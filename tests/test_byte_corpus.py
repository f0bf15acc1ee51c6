"""``tools/byte_corpus.py --against``: which steps differ from a saved output."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_corpus.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("byte_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_steps_names_changed_missing_and_extra_steps():
    tool = load_tool()
    saved = [f"{'a' * 64}  exit=0  check sl2 json: check catalog:sl2 --format json",
             f"{'b' * 64}  exit=0  quantize+verify sl2: quantize catalog:sl2 --out artifact.json",
             f"{'c' * 64}  exit=2  fail: broken jacobi: check input.json --format json"]
    assert tool.differing_steps(saved, saved) == []
    changed = [saved[0], "d" * 64 + saved[1][64:],
               f"{'e' * 64}  exit=0  compare sl2 text: compare catalog:sl2 --format text"]
    assert tool.differing_steps(changed, saved) == [
        "quantize+verify sl2: quantize catalog:sl2 --out artifact.json",
        "compare sl2 text: compare catalog:sl2 --format text",
        "fail: broken jacobi: check input.json --format json"]
