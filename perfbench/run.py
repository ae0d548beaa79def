"""End-to-end and per-layer benchmark of the viralcm CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload's inputs are made from the
seed; then, in a closed loop with one caller, each cycle of CLI
invocations runs in fresh interpreters (``worker.py``) for about
``--seconds``, with at least two cycles.  Every output is checked, and
repeated cycles of one seed must write byte-identical files (apart from
the embedded output path).

``--trace 0`` reports the end-to-end metrics: set-up time (importing the
package in a fresh interpreter), the wall time of a cycle's CLI calls, and
the peak RSS of the process that ran them.  ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_tmp"

#: A run stops starting cycles once this much time has passed, so that it
#: ends well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0
#: Fresh-interpreter imports behind each setup_s.
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "populations.sample_s": "s",
    "graph.build_s": "s",
    "graph.build_peak_mb": "MB",
    "graph.arcs": "count",
    "diffusion.all_reach_s": "s",
    "diffusion.all_reach_peak_mb": "MB",
    "diffusion.scc_count": "count",
    "diffusion.giant_scc_size": "count",
    "diffusion.condensation_edges": "count",
    "analytic.build_genfns_s": "s",
    "analytic.find_root_p50_s": "s",
    "analytic.find_root_p90_s": "s",
    "analytic.root_evals": "count",
    "analytic.analyze_s": "s",
    "analytic.branching_s": "s",
    "special.polylog_calls": "count",
    "special.polylog_p50_s": "s",
    "special.polylog_p90_s": "s",
    "estimators.load_csv_s": "s",
    "estimators.estimate_s": "s",
    "estimators.evaluate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
#: Span name behind each per-layer total time.
SPAN_TOTALS = {
    "populations.sample_s": "populations.sample",
    "graph.build_s": "graph.build",
    "diffusion.all_reach_s": "diffusion.all_reach",
    "analytic.build_genfns_s": "analytic.build_genfns",
    "analytic.analyze_s": "analytic.analyze",
    "analytic.branching_s": "analytic.branching",
    "estimators.load_csv_s": "estimators.load_csv",
    "estimators.estimate_s": "estimators.estimate",
    "estimators.evaluate_s": "estimators.evaluate",
}


@dataclass
class Invocation:
    result: dict = field(default_factory=dict)
    problem: str | None = None
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return self.problem is None


@dataclass
class Cycle:
    directory: Path
    traced: bool
    invocations: list

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invocations)


def invoke(argv, traced: bool, result_path: Path, deadline: float) -> Invocation:
    """Run one CLI call (or, with ``argv`` None, the import alone) in a fresh interpreter."""
    inv = Invocation()
    spec = {"src": str(SRC), "argv": argv, "trace": traced, "result": str(result_path)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        inv.problem = f"timed out after {timeout:.0f} s"
        return inv
    if proc.returncode != 0 or not result_path.is_file():
        inv.problem = f"worker exited {proc.returncode}: {proc.stderr.strip()[-1500:]}"
        return inv
    inv.result = json.loads(result_path.read_text())
    if argv is not None and inv.result["rc"] != 0:
        detail = inv.result.get("error") or proc.stderr.strip()
        inv.problem = f"CLI exit {inv.result['rc']}: {detail[-1500:]}"
    return inv


def digest(out: Path) -> str:
    """Hash of every file under ``out``, with the embedded output path masked."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes().replace(str(out).encode(), b"<out>") + b"\0")
    return h.hexdigest()


def run_cycle(wl, inputs, directory: Path, traced: bool, deadline: float, corrupt=None) -> Cycle:
    directory.mkdir(parents=True)
    cycle = Cycle(directory, traced, [])
    for i, argv in enumerate(wl.cycle(inputs, directory)):
        inv = invoke(argv, traced, directory / f"result{i}.json", deadline)
        cycle.invocations.append(inv)
        if not inv.ok:
            break
    if corrupt is not None:
        corrupt(directory)
    for i, inv in enumerate(cycle.invocations):
        if inv.ok:
            inv.digest = digest(directory / str(i))
    return cycle


def measure(wl, seed: int, seconds: float, trace: bool, work: Path, deadline: float, corrupt=None):
    """The closed loop: cycles for about ``seconds`` (at least two)."""
    inputs = wl.prepare(seed, work)
    cycles = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            cycles.append(run_cycle(wl, inputs, work / f"cycle{len(cycles)}", traced, deadline, corrupt))
        if not all(c.ok for c in cycles):
            break
        # Start another round only if it should end within the measuring
        # time (and the run's budget), once two cycles have run.
        now = time.perf_counter()
        next_end = now + (now - round_start)
        if (len(cycles) >= 2 and next_end - start > seconds) or next_end > deadline:
            break
    setups = [inv.result["setup_s"] for c in cycles for inv in c.invocations if inv.ok]
    if not trace:
        while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
            probe = invoke(None, False, work / f"setup{len(setups)}.json", deadline)
            if not probe.ok:  # the CLI calls, which import the same way, report it
                break
            setups.append(probe.result["setup_s"])
    return inputs, cycles, setups


def verify(wl, inputs, cycles) -> tuple[int, int, list[str], float | None]:
    """Count attempted and failed invocations; return the problems seen."""
    problems, failed = [], set()
    invocations = [(ci, i, inv) for ci, c in enumerate(cycles) for i, inv in enumerate(c.invocations)]
    for ci, i, inv in invocations:
        if not inv.ok:
            failed.add((ci, i))
            problems.append(f"cycle {ci} call {i}: {inv.problem}")
    positions = {i for _, i, _ in invocations}
    for i in sorted(positions):
        digests = {inv.digest for _, j, inv in invocations if j == i and inv.ok}
        if len(digests) > 1:
            problems.append(f"call {i}: outputs differ across repeated runs of one seed")
            failed |= {(ci, j) for ci, j, inv in invocations if j == i and inv.ok}
    checked = next((ci for ci, c in enumerate(cycles) if c.ok), None)
    err = None
    if checked is not None:
        try:
            per_call, err = wl.check(inputs, cycles[checked].directory)
        except Exception as exc:  # a malformed output must count as a failure
            per_call = [[f"output check raised {type(exc).__name__}: {exc}"]] * len(cycles[checked].invocations)
        for i, found in enumerate(per_call):
            if found:
                problems.extend(f"call {i}: {p}" for p in found)
                bad = cycles[checked].invocations[i].digest
                failed |= {(ci, j) for ci, j, inv in invocations if j == i and inv.digest == bad}
    return len(invocations), len(failed), problems, err


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(values) -> tuple[float, float, float, int]:
    """Median, first and third quartile, and sample count."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def layer_metrics(cycle: Cycle) -> dict:
    """Per-layer metrics of one traced cycle."""
    times, counts = {}, {}
    build_peak = reach_peak = 0.0
    traced_total = top = 0.0
    for inv in cycle.invocations:
        tr = inv.result["trace"]
        for name, values in tr["times"].items():
            times.setdefault(name, []).extend(values)
        for name, value in tr["counts"].items():
            if name == "giant_scc_size":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        build_peak = max(build_peak, tr["build_peak_mb"])
        reach_peak = max(reach_peak, tr["all_reach_peak_mb"])
        traced_total += inv.result["wall_s"]
        top += tr["top_s"]
    m = {metric: sum(times.get(span, []), 0.0) for metric, span in SPAN_TOTALS.items()}
    roots, polylogs = times.get("analytic.find_root", []), times.get("special.polylog", [])
    m.update({
        "graph.build_peak_mb": build_peak,
        "graph.arcs": counts.get("arcs", 0),
        "diffusion.all_reach_peak_mb": reach_peak,
        "diffusion.scc_count": counts.get("scc_count", 0),
        "diffusion.giant_scc_size": counts.get("giant_scc_size", 0),
        "diffusion.condensation_edges": counts.get("condensation_edges", 0),
        "analytic.find_root_p50_s": percentile(roots, 50),
        "analytic.find_root_p90_s": percentile(roots, 90),
        "analytic.root_evals": counts.get("root_evals", 0),
        "special.polylog_calls": len(polylogs),
        "special.polylog_p50_s": percentile(polylogs, 50),
        "special.polylog_p90_s": percentile(polylogs, 90),
        "cli.self_s": traced_total - top,
        "layer_spans_s": top,
        "traced_total_s": traced_total,
    })
    return m


def fingerprint() -> dict:
    mem_mb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run(wl, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """Measure, check and report one workload; return the result object."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        inputs, cycles, setups = measure(wl, seed, seconds, trace, work, deadline, corrupt)
        attempted, failed, problems, err = verify(wl, inputs, cycles)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print(f"# machine {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"# workload {wl.name}: {wl.describe()}; seed={seed} seconds={seconds} trace={int(trace)}")
    plain = [c for c in cycles if not c.traced and c.ok]
    walls = [sum(inv.result["wall_s"] for inv in c.invocations) for c in plain]
    rss = [max(inv.result["peak_rss_mb"] for inv in c.invocations) for c in plain]
    rows = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss}
    metrics = {}
    if trace:
        traced = [layer_metrics(c) for c in cycles if c.traced and c.ok]
        for name in PER_LAYER:
            if name != "trace.overhead_ratio":
                rows[name] = [m[name] for m in traced]
        wall_med = statistics.median(walls) if walls else 0.0
        total_med = statistics.median([m["traced_total_s"] for m in traced]) if traced else 0.0
        rows["trace.overhead_ratio"] = [total_med / wall_med] if wall_med else [0.0]
        spans_med = statistics.median([m["layer_spans_s"] for m in traced]) if traced else 0.0
        print(f"# medians: untraced wall_s {wall_med:.6g} s; traced cycle {total_med:.6g} s, "
              f"of which spans entered from the CLI {spans_med:.6g} s; the rest is cli.self_s")
        missing = sorted({m for c in cycles if c.traced for inv in c.invocations if inv.ok
                          for m in inv.result["trace"]["missing"]})
        if missing:
            print(f"# not found, so not traced: {', '.join(missing)}")
    units = PER_LAYER if trace else END_TO_END
    for name, values in rows.items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        med, q1, q3, n = summary(values)
        print(f"{name:<30} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={n:<3} {unit}")
        if name in units:
            metrics[name] = {"value": med, "unit": unit}
    print(f"{'frac_abs_err':<30} {'n/a (writes no roots or fractions)' if err is None else repr(err)}")
    print(f"{'failed_ratio':<30} {failed}/{attempted} = {failed / attempted if attempted else 1.0!r}")
    for p in problems:
        print(f"! {p}")
    return {"correct": failed == 0 and not problems and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.full()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "viralcm" / "cli.py").is_file():
        print(f"error: no viralcm sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so the running worker is killed and waited
    # for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(workloads.full()[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
