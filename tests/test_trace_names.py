"""The benchmark's tracer (``perfbench/trace_child.py``) patches liequant by
name from outside the package: every name it patches or reads must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from liequant.envelope import Envelope
from liequant.groups import FiniteGroup, GammaLieBialgebra, GroupAction
from liequant.hquant.core import CoproductSeries, ElSeries, MapSeries
from liequant.hquant.gammaq import GammaQuantization
from liequant.lie import LieAlgebra, LieBialgebra
from liequant.linsolve import LinSystem, lin_solve
from liequant.tensors import BasedSpace, Tensor

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    trace_child = load_trace_child()
    for _, module, func in trace_child.SPANS:
        assert callable(getattr(importlib.import_module(module), func, None)), (module, func)
    for _, cls_path, method in trace_child.TIMED:
        assert callable(getattr(trace_child._resolve(cls_path), method, None)), (cls_path, method)


def test_attributes_the_tracer_reads_exist():
    space = BasedSpace("a", ("x",))
    env = Envelope(LieAlgebra(space, {}))
    group = FiniteGroup.trivial()
    e = group.identity
    gamma = GammaLieBialgebra(LieBialgebra(env.lie), GroupAction.trivial(group, space),
                              [Tensor.zero((space, space))])
    assembly = GammaQuantization(env, gamma, CoproductSeries.undeformed(env, 0),
                                 {e: ElSeries.unit(env, 2, 0)}, {e: MapSeries.identity(env, 0)},
                                 {(e, e): ElSeries.unit(env, 1, 0)}, 0)
    assert isinstance(env._straight, dict)
    assert isinstance(assembly._slot_cache, dict)
    assert callable(GammaQuantization._slot_product)


def test_wrapped_signatures_are_fixed():
    # the tracer's counting wrappers take exactly these parameters and read
    # the system's rows (a list of dicts) and row count
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(Envelope.k_mul) == ["self", "a", "b", "k"]
    assert params(Envelope.straighten) == ["self", "word"]
    assert params(GammaQuantization._slot_product) == ["self", "mg_a", "mg_b"]
    assert params(lin_solve) == ["system"]
    system = LinSystem(nvars=2)
    system.add_row({0: 1, 1: 2}, 3)
    assert isinstance(system.rows, list) and all(isinstance(r, dict) for r in system.rows)
    assert system.nrows == 1
