"""Self-test of the benchmark: every workload once at minimum size.

Run from anywhere:

    python3 perfbench/selftest.py

Each workload runs untraced and traced, each run in its own process, with
``--size min``.  The test fails unless every run passes the correctness gate
and prints, as its last line, every metric that ``BENCHMARK.json`` lists for
that mode with its unit (end-to-end metrics untraced, per-layer metrics
traced), and unless every end-to-end value is a positive number.  A second
traced run of each workload must repeat every exact count (calls, calls per
round, true shares).  Last, the benchmark must refuse to run, without
printing a result, in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_KINDS = (".calls", ".per_round", ".true_share")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "min"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc: subprocess.CompletedProcess, listed: list[dict]) -> tuple[dict, list[str]]:
    """The metrics of a run's last line, and every way the run breaks the contract."""
    if proc.returncode != 0:
        return {}, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(last)}")
    if last.get("correct") is not True or last.get("failed") != 0 or not last.get("attempted", 0) >= 1:
        errors.append(f"correctness gate: {proc.stdout.strip().splitlines()[-2][:800]}")
    metrics = last.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in listed):
        missing = {m["name"] for m in listed} - set(metrics)
        errors.append(f"metrics differ from BENCHMARK.json; missing {sorted(missing)[:5]}")
    for m in listed:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: {got}")
    return metrics, errors


def bare_directory_refuses() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py printed a result without the package sources"]
    return []


def main() -> int:
    failures = []
    for w in (w["name"] for w in SPEC["workloads"]):
        metrics, errors = result(run(w, 0), SPEC["end_to_end"])
        errors += [f"{name} is not positive" for name, m in metrics.items() if not m["value"] > 0]
        traced, more = result(run(w, 1), SPEC["per_layer"])
        again, _ = result(run(w, 1), SPEC["per_layer"])
        errors += more + [
            f"{name} differs between two traced runs of one seed"
            for name in traced
            if name.endswith(EXACT_KINDS) and traced[name] != again.get(name)
        ]
        print(f"{w}: {'ok' if not errors else 'FAILED'}")
        failures += [f"{w}: {e}" for e in errors]
    failures += bare_directory_refuses()
    for f in failures:
        print(f"  {f}")
    print("self-test", "passed" if not failures else "failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
