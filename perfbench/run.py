"""liequant benchmark: closed-loop CLI jobs with end-to-end and per-layer metrics.

Usage (from the root of a liequant checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time, with no threads: each job is a fresh
``python -m liequant.cli ...`` child process, so nothing carries over between
jobs.  The seed fixes the ``--seed-order`` values of the quantize jobs; the
program sees only the generated argv.  Every job is checked: exit code 0, every
reported check ``pass``, and byte-identical output whenever a job repeats an
input.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from jobs run under ``trace_child.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"

# Later performance claims re-check on this seed, which no tuning run uses.
HELD_OUT_SEED = 20061

# A run never starts a job it could not finish inside this many seconds.
RUN_LIMIT_S = 170.0
MIN_JOBS = 3


@dataclass(frozen=True)
class Workload:
    why: str
    job_argv: tuple[str, ...]
    # argv of one set-up repetition; "{out}" is replaced by the artifact path
    setup_argv: tuple[str, ...]
    setup_repeats: int
    verifies_artifact: bool = False


WORKLOADS = {
    "quantize-sl2-z2-order3": Workload(
        why="solver-bound job: large sparse systems, a support-ladder escalation",
        job_argv=("quantize", "catalog:sl2-cartan-z2", "--order", "3", "--d-in", "1"),
        setup_argv=("check", "catalog:sl2-cartan-z2"),
        setup_repeats=3,
    ),
    "verify-solv-s3": Workload(
        why="read path: artifact parsing and verification over a 6-element group",
        job_argv=("verify-artifact",),
        setup_argv=("quantize", "catalog:solvable2-tri-s3", "--out", "{out}"),
        setup_repeats=2,
        verifies_artifact=True,
    ),
}

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.classical_s": "s",
    "schema.parse_s": "s",
    "solvers.solve_s": "s",
    "solvers.build_s": "s",
    "solvers.attempts": "count",
    "solvers.useful_ratio": "ratio",
    "solvers.unknowns": "count",
    "solvers.rows": "count",
    "linsolve.calls": "count",
    "linsolve.s": "s",
    "linsolve.nnz": "count",
    "linsolve.max_rows": "count",
    "envelope.k_mul_calls": "count",
    "envelope.k_mul_s": "s",
    "envelope.k_mul_pairs": "count",
    "envelope.straighten_hit_ratio": "ratio",
    "core.series_mul_calls": "count",
    "core.series_mul_s": "s",
    "gammaq.assemble_s": "s",
    "gammaq.axioms_s": "s",
    "gammaq.mul_calls": "count",
    "gammaq.mul_s": "s",
    "gammaq.coproduct_s": "s",
    "gammaq.slot_hit_ratio": "ratio",
    "pipeline.coherence_s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}

# Counts that must repeat exactly for the same input.
EXACT_COUNTS = ("linsolve.nnz", "linsolve.max_rows", "solvers.rows", "solvers.attempts",
                "envelope.k_mul_pairs")


class JobTimeout(Exception):
    pass


@dataclass
class JobResult:
    argv: list[str]
    seconds: float
    peak_rss_mb: float
    stdout: bytes
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_child(argv: list[str], stdout_path: Path, timeout_s: float) -> JobResult:
    """Run one child to completion; time it and read its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except JobTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            status = -1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    code = os.waitstatus_to_exitcode(status) if status != -1 else -1
    proc.returncode = code
    result = JobResult(argv, elapsed, usage.ru_maxrss / 1024.0, stdout_path.read_bytes())
    if status == -1:
        result.problems.append(f"timed out after {timeout_s:.0f} s")
    elif code != 0:
        result.problems.append(f"exit code {code}")
    return result


def check_report(result: JobResult) -> None:
    """Every check the job reports must pass."""
    if not result.ok:
        return
    try:
        report = json.loads(result.stdout)
    except ValueError:
        result.problems.append("report is not JSON")
        return
    checks = report.get("checks") or []
    failing = [c.get("name") for c in checks if c.get("status") != "pass"]
    if not checks or failing or report.get("exit") != 0:
        result.problems.append(f"checks not all pass: {failing or 'none reported'}")


def check_artifact(result: JobResult, path: Path) -> bytes | None:
    """The artifact must exist and carry passing checks and solved tables."""
    if not result.ok:
        return None
    try:
        raw = path.read_bytes()
        artifact = json.loads(raw)
    except (OSError, ValueError) as exc:
        result.problems.append(f"unreadable artifact: {exc}")
        return None
    if "assembly" not in artifact or any(c.get("status") != "pass"
                                         for c in artifact.get("checks", [])):
        result.problems.append("artifact lacks solved tables or passing checks")
        return None
    return raw


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cli = [sys.executable, "-m", "liequant.cli"]
        self.artifact: Path | None = None
        self.setups: list[JobResult] = []
        self.jobs: list[JobResult] = []
        # (job, its trace, its layer metrics) for every traced job
        self.traced: list[tuple[JobResult, dict, dict]] = []
        self.digests: dict[tuple, str] = {}

    def seed_order(self, index: int) -> int:
        """The ``--seed-order`` of input ``index``; the seed fixes them all."""
        return random.Random(f"{self.name}:{self.seed}:{index}").randrange(1, 1_000_000)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _same_as_before(self, key: tuple, payload: bytes, result: JobResult):
        digest = hashlib.sha256(payload).hexdigest()
        earlier = self.digests.setdefault(key, digest)
        if earlier != digest:
            result.problems.append(f"output differs from an earlier job with input {key}")

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        # a traced run reports no setup_s, so it sets up once
        for rep in range(1 if self.trace else self.workload.setup_repeats):
            out = self.dir / f"setup-artifact-{rep}.json"
            argv = [a.replace("{out}", str(out)) for a in self.workload.setup_argv]
            result = run_child(self.cli + argv + ["--format", "json"],
                               self.dir / f"setup-{rep}.out", self.remaining())
            check_report(result)
            if self.workload.verifies_artifact:
                raw = check_artifact(result, out)
                if raw is not None:
                    self._same_as_before(("setup artifact",), raw, result)
                self.artifact = out
            self.setups.append(result)

    # -- jobs --------------------------------------------------------------------

    def job_argv(self, index: int) -> tuple[list[str], tuple, Path | None]:
        """CLI argv of job ``index``, the key of its input, its artifact path.

        Untraced quantize jobs each get their own seed-order; in a traced run
        every job repeats the first one, so traced and untraced jobs compare
        directly.  Verify jobs all read the set-up artifact.
        """
        argv = list(self.workload.job_argv) + ["--format", "json"]
        if self.workload.verifies_artifact:
            return argv + [str(self.artifact)], ("artifact",), None
        order = self.seed_order(0 if self.trace else index)
        artifact = self.dir / f"job-{index}.json"
        argv += ["--seed-order", str(order), "--out", str(artifact)]
        return argv, ("seed-order", order), artifact

    def run_job(self, index: int) -> JobResult:
        argv, key, artifact = self.job_argv(index)
        traced = self.trace and index % 2 == 0
        trace_path = self.dir / f"trace-{index}.json"
        prefix = ([sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path),
                   str(index), "--"] if traced else self.cli)
        result = run_child(prefix + argv, self.dir / f"job-{index}.out", self.remaining())
        check_report(result)
        if artifact is not None:
            raw = check_artifact(result, artifact)
            if raw is not None:
                self._same_as_before(key, raw, result)
        elif result.ok:
            self._same_as_before(key, result.stdout, result)
        if traced and result.ok:
            try:
                trace = json.loads(trace_path.read_bytes())
            except (OSError, ValueError) as exc:
                result.problems.append(f"unreadable trace: {exc}")
            else:
                gauge = json.loads(artifact.read_bytes())["gauge_log"] if artifact else {}
                self.traced.append((result, trace, layer_metrics(trace, gauge)))
        return result

    def run(self) -> None:
        """Set up, then run jobs until the ``--seconds`` window, set-up included, is spent.

        The next job starts only if, taking the last job's time as its own, it
        ends within half a job of the window's end, so a run lasts about
        ``--seconds`` whatever the job length.
        """
        self.setup()
        while all(s.ok for s in self.setups):
            last = self.jobs[-1].seconds if self.jobs else 0.0
            elapsed = time.perf_counter() - self.started
            enough = len(self.jobs) >= MIN_JOBS and elapsed + last / 2 > self.seconds
            if enough or (self.jobs and 1.5 * last > self.remaining()):
                break
            self.jobs.append(self.run_job(len(self.jobs)))

    # -- metrics -------------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.setups) + len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.setups + self.jobs)

    def end_to_end(self) -> dict[str, float]:
        """Medians over the jobs; a run whose every job failed reports 0."""
        ok = [j for j in self.jobs if j.ok] or self.jobs
        return {
            "job_s": statistics.median(j.seconds for j in ok) if ok else 0.0,
            "setup_s": statistics.median(s.seconds for s in self.setups),
            "peak_rss_mb": statistics.median(j.peak_rss_mb for j in ok) if ok else 0.0,
        }

    def per_layer(self) -> dict[str, float]:
        """Medians over the traced jobs; exact counts must agree between them."""
        out: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        if self.traced:
            layers = [m for _, _, m in self.traced]
            for name in layers[0]:
                values = [m[name] for m in layers]
                if name in EXACT_COUNTS and len(set(values)) > 1:
                    for result, _, _ in self.traced:
                        result.problems.append(f"{name} differs between traced jobs: {values}")
                # a count stays a whole number
                count = PER_LAYER_UNITS[name] == "count"
                out[name] = (statistics.median_low if count else statistics.median)(values)
            untraced = [j.seconds for j in self.jobs[1::2] if j.ok]
            if untraced:
                traced_s = statistics.median(r.seconds for r, _, _ in self.traced)
                out["trace.overhead_s"] = traced_s - statistics.median(untraced)
        out["fail_ratio"] = self.failed / self.attempted
        return out


def layer_metrics(trace: dict, gauge_log: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job from its trace and gauge log."""
    calls, self_s, incl, counts = (trace["calls"], trace["self_s"], trace["incl_s"],
                                   trace["counts"])
    attempts = [r for r in gauge_log.get("solves", []) if r["status"] != "pinned"]
    solved = sum(r["status"] == "solved" for r in attempts)
    solve_s = incl.get("solvers.solve", 0.0)

    def ratio(hits, total):
        return counts.get(hits, 0) / counts[total] if counts.get(total) else 0.0

    return {
        "cli.classical_s": incl.get("cli.classical", 0.0),
        "schema.parse_s": incl.get("schema.parse", 0.0),
        "solvers.solve_s": solve_s,
        "solvers.build_s": solve_s - incl.get("linsolve.in_solvers", 0.0),
        "solvers.attempts": len(attempts),
        "solvers.useful_ratio": solved / len(attempts) if attempts else 0.0,
        "solvers.unknowns": sum(r["nvars"] for r in attempts),
        "solvers.rows": sum(r["nrows"] for r in attempts),
        "linsolve.calls": calls.get("lin_solve", 0),
        "linsolve.s": incl.get("linsolve", 0.0),
        "linsolve.nnz": counts.get("lin_nnz", 0),
        "linsolve.max_rows": counts.get("lin_max_rows", 0),
        "envelope.k_mul_calls": calls.get("Envelope.k_mul", 0),
        "envelope.k_mul_s": incl.get("envelope.k_mul", 0.0),
        "envelope.k_mul_pairs": counts.get("k_mul_pairs", 0),
        "envelope.straighten_hit_ratio": ratio("straighten_hits", "straighten_calls"),
        "core.series_mul_calls": calls.get("ElSeries.mul", 0),
        "core.series_mul_s": self_s.get("ElSeries.mul", 0.0),
        "gammaq.assemble_s": incl.get("gammaq.assemble", 0.0),
        "gammaq.axioms_s": incl.get("gammaq.axioms", 0.0),
        "gammaq.mul_calls": calls.get("GammaQuantization.mul", 0),
        "gammaq.mul_s": incl.get("gammaq.mul", 0.0),
        "gammaq.coproduct_s": incl.get("gammaq.coproduct", 0.0),
        "gammaq.slot_hit_ratio": ratio("slot_hits", "slot_calls"),
        "pipeline.coherence_s": incl.get("pipeline.coherence", 0.0),
    }


def self_time_table(bench: Bench) -> list[str]:
    """Per-function self time over the traced jobs, largest first."""
    totals: dict[str, list[float]] = {}
    for _, trace, _ in bench.traced:
        for name, seconds in trace["self_s"].items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += trace["calls"][name]
            entry[1] += seconds
    n = max(len(bench.traced), 1)
    lines = [f"  {'function':<34}{'calls/job':>12}{'self s/job':>12}"]
    for name, (count, seconds) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<34}{count / n:>12.0f}{seconds / n:>12.4f}")
    return lines


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()} "
            f"loadavg_at_start={load}")


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    q = (100 * (n - 10)) // n
    return q, sorted(values)[max(0, -(-q * n // 100) - 1)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liequant" / "cli.py").is_file():
        print(f"no liequant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    header = machine()
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    # per_layer() also checks that exact counts agree, so it runs before reporting
    if bench.trace:
        metrics, units = bench.per_layer(), PER_LAYER_UNITS
    else:
        metrics, units = bench.end_to_end(), END_TO_END_UNITS

    print(f"workload {bench.name}: {bench.workload.why}")
    print(f"machine: {header}")
    print(f"seed={bench.seed} held_out_seed={HELD_OUT_SEED} closed loop, 1 client,"
          f" trace={int(bench.trace)}")
    for kind, results in (("setup", bench.setups), ("job", bench.jobs)):
        for i, r in enumerate(results):
            status = "ok" if r.ok else "FAIL " + "; ".join(r.problems)
            cli_args = r.argv[r.argv.index("--") + 1:] if "--" in r.argv else r.argv[3:]
            print(f"  {kind} {i}: {r.seconds:.3f} s  rss {r.peak_rss_mb:.1f} MB  {status}"
                  f"  [{' '.join(cli_args)}]")
    times = [j.seconds for j in bench.jobs if j.ok]
    print(f"job_s median over {len(times)} jobs")
    tail = highest_percentile(times)
    if tail:
        print(f"job_s p{tail[0]}: {tail[1]:.4f} s")

    if bench.trace:
        print("per-layer self time (traced jobs):")
        print("\n".join(self_time_table(bench)))
    print(f"fail_ratio: {bench.failed}/{bench.attempted}")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")

    (WORK / "results").mkdir(exist_ok=True)
    record = {"workload": bench.name, "seed": bench.seed, "trace": int(bench.trace),
              "machine": header, "held_out_seed": HELD_OUT_SEED,
              "setup_s": [s.seconds for s in bench.setups],
              "jobs": [{"argv": j.argv, "seconds": j.seconds, "peak_rss_mb": j.peak_rss_mb,
                        "problems": j.problems} for j in bench.jobs],
              "metrics": metrics}
    (WORK / "results" / f"{bench.dir.name}.json").write_text(json.dumps(record, indent=1))

    failed = bench.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
