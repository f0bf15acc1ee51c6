"""Hash every output of a fixed corpus of liequant CLI runs.

Usage (from anywhere):

    python3 tools/byte_corpus.py [--root CHECKOUT] [--jobs N] [--against FILE]

Each run is a sequence of steps in its own empty working directory; each
step is a fresh ``python -m liequant.cli`` child with ``CHECKOUT/src`` on
``PYTHONPATH`` (``CHECKOUT`` defaults to the checkout holding this script).
One line is printed per step: its name and the sha256 of its stdout, stderr,
exit code and, for a step that writes ``artifact.json``, the artifact.  Two
checkouts that print the same lines give the same bytes on every run, so
``diff`` of two outputs is the byte check of a refactor.  With ``--against
FILE``, a saved output, the run also names on stderr each step whose line
differs from the saved one (or that only one of the two has) and exits 1 if
there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]

CATALOG = ["abelian2", "sl2", "sl2-cartan-z2", "sl2-s3", "sl2-trivial", "sl2-trivial-group",
           "solvable2", "solvable2-tri", "solvable2-tri-s3", "solvable2-tri-z2"]
COMPARE = ["solvable2-tri-z2", "sl2-cartan-z2", "sl2-trivial-group", "solvable2-tri-s3"]
SEEDS = [None, 1, 7, 77, 20061]


def _break_jacobi(root: Path, work: Path) -> None:
    """``input.json``: sl2 with [e,f] = e, which breaks Jacobi."""
    doc = _catalog_document(root, "sl2")
    doc["bracket"]["0,1"] = {"0": "1"}
    (work / "input.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def _shift(path: tuple, entry: str, value: str, out: str):
    """A step writing ``out``: ``artifact.json`` with the ``entry``
    coefficient of the order-2 series at ``path`` in its assembly set to
    ``value``.  ``path`` is the section and the keys below it down to the
    series; an int key picks that index of the sorted keys."""
    def step(root: Path, work: Path) -> None:
        artifact = json.loads((work / "artifact.json").read_text())
        series = artifact["assembly"]
        for key in path:
            series = series[sorted(series)[key] if isinstance(key, int) else key]
        series[2][entry] = value
        (work / out).write_text(json.dumps(artifact, sort_keys=True, indent=2))
    return step


def _swap_family(root: Path, work: Path) -> None:
    """``flip.json``: the abelian swap family with its twist scaled to -4
    times the one its r induces, so ``compare`` finds no witness (exit 5)."""
    doc = {"dimension": 2, "basis": ["a0", "a1"], "bracket": {}, "cobracket": {},
           "r": {"0,1": "1", "1,0": "-1"},
           "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
           "action": {"s": [["0", "1"], ["1", "0"]]}, "twists": {"s": {"0,1": "-4"}}}
    (work / "flip.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def _catalog_document(root: Path, name: str) -> dict:
    out = subprocess.run([sys.executable, "-c",
                          "import json, sys; from liequant import catalog; "
                          "print(json.dumps(catalog.input_document(sys.argv[1])))", name],
                         env=_env(root), capture_output=True, check=True, text=True)
    return json.loads(out.stdout)


def corpus() -> list[tuple[str, list]]:
    """``(run name, steps)``; a step is CLI argv or a callable(root, workdir)."""
    runs = []
    for name in CATALOG:
        for fmt in ("json", "text"):
            runs.append((f"check {name} {fmt}",
                         [("check", f"catalog:{name}", "--format", fmt)]))
    for name in CATALOG:
        if name == "sl2-s3":
            continue
        runs.append((f"quantize+verify {name}", [
            ("quantize", f"catalog:{name}", "--out", "artifact.json", "--format", "json"),
            ("verify-artifact", "artifact.json", "--format", "json"),
            ("verify-artifact", "artifact.json", "--format", "text")]))
    for seed in SEEDS:
        argv = ("quantize", "catalog:sl2-cartan-z2", "--order", "3", "--d-in", "1",
                "--format", "json")
        runs.append((f"quantize sl2-cartan-z2 order 3 seed {seed}",
                     [argv if seed is None else argv + ("--seed-order", str(seed))]))
    for name in COMPARE:
        for fmt in ("json", "text"):
            runs.append((f"compare {name} {fmt}",
                         [("compare", f"catalog:{name}", "--order", "2", "--format", fmt)]))
    runs.append(("fail: swap family without witness", [
        _swap_family, ("compare", "flip.json", "--order", "2", "--format", "json")]))
    runs.append(("fail: negative seed-order", [
        ("quantize", "catalog:abelian2", "--order", "1", "--seed-order", "-7")]))
    runs.append(("fail: broken jacobi", [
        _break_jacobi, ("check", "input.json", "--format", "json")]))
    runs.append(("fail: z2 composition shifted by 1/997", [
        ("quantize", "catalog:solvable2-tri-z2", "--order", "2", "--out", "artifact.json",
         "--format", "json"),
        _shift(("compositions", "g,g"), "1", "1/997", "shifted.json"),
        ("verify-artifact", "shifted.json", "--format", "json")]))
    runs.append(("fail: z2 transport shifted by 1/997", [
        ("quantize", "catalog:solvable2-tri-z2", "--order", "2", "--out", "artifact.json",
         "--format", "json"),
        _shift(("transport", "g", "0"), "1", "1/997", "shifted.json"),
        ("verify-artifact", "shifted.json", "--format", "json")]))
    runs.append(("fail: sl2-cartan-z2 order-3 coproduct shifted to 1/7", [
        ("quantize", "catalog:sl2-cartan-z2", "--order", "3", "--d-in", "1", "--seed-order", "1",
         "--out", "artifact.json", "--format", "json"),
        _shift(("coproduct", "0"), "0|2", "1/7", "shifted.json"),
        ("verify-artifact", "shifted.json", "--format", "json")]))
    # a six-element group: compatibility, then associativity defects
    runs.append(("fail: s3 coproduct and composition shifted", [
        ("quantize", "catalog:solvable2-tri-s3", "--out", "artifact.json", "--format", "json"),
        _shift(("coproduct", "0"), "0|1", "1/7", "coproduct.json"),
        ("verify-artifact", "coproduct.json", "--format", "json"),
        _shift(("compositions", 7), "1", "1/997", "composition.json"),
        ("verify-artifact", "composition.json", "--format", "json")]))
    return runs


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_one(root: Path, name: str, steps: list) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory(prefix="byte-corpus-") as tmp:
        work = Path(tmp)
        for step in steps:
            if callable(step):
                step(root, work)
                continue
            proc = subprocess.run([sys.executable, "-m", "liequant.cli", *step], cwd=work,
                                  env=_env(root), capture_output=True)
            digest = hashlib.sha256()
            for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
                digest.update(len(part).to_bytes(8, "big") + part)
            if "--out" in step:
                digest.update((work / step[step.index("--out") + 1]).read_bytes())
            lines.append(f"{digest.hexdigest()}  exit={proc.returncode}  {name}: "
                         f"{' '.join(step)}")
    return lines


def _steps(lines) -> dict[str, str]:
    """``{step label: line}``; the label is what follows the digest and exit code."""
    return {line.split("  ", 2)[2]: line for line in lines if line.strip()}


def differing_steps(lines: list[str], saved: list[str]) -> list[str]:
    """Labels of the steps whose lines differ, in the order of ``lines``, then
    the steps only ``saved`` has."""
    got, want = _steps(lines), _steps(saved)
    return ([label for label, line in got.items() if want.get(label) != line]
            + [label for label in want if label not in got])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="liequant checkout whose src/ is run")
    parser.add_argument("--jobs", type=int, default=2, help="runs at a time")
    parser.add_argument("--against", type=Path,
                        help="saved output to compare with: exit 1 naming each step that differs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    saved = args.against.read_text().splitlines() if args.against else None
    printed = []
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = pool.map(lambda run: run_one(root, *run), corpus())
        for lines in results:
            print("\n".join(lines), flush=True)
            printed += lines
    if saved is None:
        return 0
    differing = differing_steps(printed, saved)
    for label in differing:
        print(f"differs: {label}", file=sys.stderr)
    print(f"{len(differing)} of {len(_steps(printed))} steps differ from {args.against}",
          file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
