"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, together with
``frac_abs_err`` and ``failed_ratio``.  Then it corrupts outputs (a
histogram count, a closed-form fraction, one repeated run) and checks that
each corruption is counted as a failed invocation, and that the benchmark
refuses to run without the package sources.  It asserts nothing about
wall-clock time.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


def run_captured(wl, trace: bool, corrupt=None) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(wl, seed=3, seconds=0, trace=trace, corrupt=corrupt)
    return result, out.getvalue()


def bump_histogram(cycle_dir: Path) -> None:
    path = cycle_dir / "0" / "reach_histogram.csv"
    lines = path.read_text().splitlines()
    frac, count = lines[-1].split(",")
    lines[-1] = f"{frac},{int(count) + 1}"
    path.write_text("\n".join(lines) + "\n")


def shift_alpha(cycle_dir: Path) -> None:
    path = cycle_dir / "0" / "analysis.json"
    payload = json.loads(path.read_text())
    payload["result"]["alpha"] += 1e-6
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def perturb_second_run(cycle_dir: Path) -> None:
    if cycle_dir.name == "cycle1":
        path = cycle_dir / "0" / "evaluation.json"
        path.write_text(path.read_text() + " ")


def refuses_without_sources(failures: list) -> None:
    """In a directory with only the benchmark files, the command must fail."""
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        shutil.copytree(run.HERE / "refs", bare / "perfbench" / "refs")
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.WORK_ROOT.is_dir() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.SETUP_SAMPLES = 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    toy = workloads.toy()
    failures: list[str] = []
    if not {w["name"] for w in spec["workloads"]} <= set(toy):
        failures.append(f"BENCHMARK.json names a workload outside {sorted(toy)}")

    for name, wl in toy.items():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, text = run_captured(wl, trace)
            label = f"{name} trace={int(trace)}"
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 2):
                failures.append(f"{label}: expected a correct run\n{text}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metrics {got} differ from BENCHMARK.json {expected}")
            for metric, unit in expected.items():
                if not re.search(rf"^{re.escape(metric)} +median .* {re.escape(unit)}$", text, re.M):
                    failures.append(f"{label}: {metric} not printed with unit {unit}")
            for metric in ("frac_abs_err", "failed_ratio"):
                if not re.search(rf"^{metric} ", text, re.M):
                    failures.append(f"{label}: {metric} not printed")
            if trace and result["metrics"]["cli.self_s"]["value"] < 0:
                failures.append(f"{label}: negative cli.self_s")

    for name, corrupt in (("simulate-large", bump_histogram), ("analytic-powerlaw", shift_alpha),
                          ("evaluate-large", perturb_second_run)):
        result, text = run_captured(toy[name], False, corrupt)
        if result["correct"] or result["failed"] == 0 or not re.search(r"^failed_ratio +[1-9]", text, re.M):
            failures.append(f"{name}: corrupted output ({corrupt.__name__}) was not counted as failed\n{text}")

    refuses_without_sources(failures)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
