"""Shared fixtures."""

from contextlib import contextmanager

import pytest

import liequant.hquant.gammaq as gammaq_module
import liequant.hquant.pipeline as pipeline_module
from liequant.hquant.solvers import solve_iso, solve_twist_f, twisted_coproduct


def _sequential_twist_pair(bialg, cop, f, dst, order, log=None, cap=None, seed_order=None):
    """(F, i) with F solved first and i onto ``dst`` after it."""
    f_series = solve_twist_f(bialg, cop, f, order, log=log, cap=cap, seed_order=seed_order)
    return f_series, solve_iso(bialg, twisted_coproduct(cop, f_series), dst, order, log=log,
                               cap=cap, seed_order=seed_order)


@pytest.fixture(scope="session")
def sequential_gauge():
    """A context manager under which the assembly and the pipeline tower solve
    each twist pair sequentially (F first, then i) instead of jointly.

    Where that route exists (sl2 with the Cartan twist up to order 2) it gives
    another gauge, in which the transports do not compose strictly and the
    composition elements are not units."""

    @contextmanager
    def patched():
        with pytest.MonkeyPatch.context() as mp:
            for module in (gammaq_module, pipeline_module):
                mp.setattr(module, "solve_twist_pair", _sequential_twist_pair)
            yield

    return patched
