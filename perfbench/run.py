"""Benchmark of the fibrous command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``BENCHMARK.json`` (``all`` runs each in its
own process, one after another).  The package is imported from ``src/`` and
driven in-process through ``fibrous.cli.main``, from one process and one
thread.  The seed decides every input; the same seed gives the same inputs.

With ``--trace 0`` the set-up runs several times (the median is ``setup_s``)
and then whole passes over the workload's commands run in a closed loop until
``--seconds`` have passed.  Every command's exit code and JSON stdout are
checked, and stdout must be byte-identical each time the same command
repeats.  A command's latency is the median of its repetitions, and all
times are scaled to a reference machine speed (see ``Speed``).  With
``--trace 1`` a fixed amount of work runs instead (a warm-up pass, an
untraced pass and a traced pass), so every call count is exact for a seed;
the per-layer metrics come from the traced pass and the tracing overhead is
the traced pass's command time minus the untraced one's.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit, the sample counts, the workload's own throughput names, the failure
share and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7

# Tail percentile per workload, fixed so that runs of different commits
# compare the same quantile.  Each is the highest of 50/75/90/95/99 that
# keeps well over ten timed commands beyond it (17 to 74 in 30 s runs on a
# shared 2-core Xeon under CPython 3.11); the next rung up kept only 10-12
# on lazy-sample and finite-large.  The report gives the count on every run.
TAIL_PERCENTILE = {"lazy-sample": 95, "finite-large": 90, "finite-many": 99, "violations": 95}

# What work_per_s counts on each workload.
THROUGHPUT_NAME = {
    "lazy-sample": "rounds_per_s",
    "finite-large": "elements_per_s",
    "finite-many": "carriers_per_s",
    "violations": "witnesses_per_s",
}

ALL_LABELS = (
    *workloads.SAMPLE_INSTANCES,
    *workloads.PASSING_MODULI,
    "broken-metric-q",
    "broken-padic:3",
    "q-double-bad",
)


def load_program() -> types.SimpleNamespace:
    """Import the package from ``src/`` afresh and collect its entry points."""
    for name in [m for m in sys.modules if m == "fibrous" or m.startswith("fibrous.")]:
        del sys.modules[name]
    cli = importlib.import_module("fibrous.cli")
    if Path(cli.__file__).resolve().parent != SRC / "fibrous":
        raise ImportError(f"fibrous was imported from {cli.__file__}, not from src/")
    mods = {n: importlib.import_module(f"fibrous.{n}") for n in ("core", "functors", "topology", "report", "lazy")}
    return types.SimpleNamespace(
        cli=cli,
        **mods,
        main=cli.main,
        sample_check=mods["lazy"].sample_check,
        broken_metric_q=mods["lazy"].broken_metric_q,
        broken_padic=mods["lazy"].broken_padic,
        random_spatial_preorder=mods["functors"].random_spatial_preorder,
        preorder_to_json=mods["core"].preorder_to_json,
    )


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


class Gate:
    """Correctness bookkeeping: expected exit code, output check, and byte
    identity of each command's stdout across its repetitions."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd, code, text: str, err: str):
        """Return the parsed stdout of a command that passed, else ``None``."""
        self.attempted += 1
        obj, problem = None, None
        if code != cmd.exit:
            problem = f"exit code {code}, expected {cmd.exit} {err.strip()[-300:]}"
        else:
            try:
                obj = json.loads(text)
            except ValueError:
                problem = "stdout is not one JSON document"
            else:
                problem = cmd.check(obj, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(cmd.label, digest) != digest and problem is None:
            problem = "stdout differs from an earlier run of the same command"
        if problem is None:
            return obj
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{cmd.label}: {problem}")
        return None


def execute(cmd, tracer=None):
    """Run one command with stdout and stderr captured; return the exit code,
    the command's latency and the captured text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cmd.run() if tracer is None else tracer.run_command(cmd.run, cmd.instance, cmd.rounds)
        except Exception as exc:  # a traceback is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


class Speed:
    """Samples the machine's speed with a fixed pure-Python loop.

    The benchmark runs on shared machines whose speed drifts by tens of
    percent for minutes at a time as other tenants load the same cores, and
    that moves every timing alike.  So the loop runs every ``INTERVAL_S`` during
    set-up and timing, and reported times are scaled by ``REFERENCE_S`` over
    the loop's median time (for set-up, over the samples taken between the
    set-ups): they read as on a machine where the loop takes 25 ms.  The
    scale and the unscaled values are in the report.
    """

    INTERVAL_S = 0.5
    REFERENCE_S = 0.025

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(375_000):
            acc += i * i % 7
        self._last = perf_counter()
        self.samples.append(self._last - t0)
        return self.samples[-1]

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def scale(self, samples=None) -> float:
        return self.REFERENCE_S / statistics.median(samples or self.samples)

    def report(self) -> dict:
        return {"scale": self.scale(), "loop_median_s": statistics.median(self.samples), "loop_samples": len(self.samples)}


def run_pass(cmds, gate, speed, tracer=None):
    """One pass over the commands; returns latencies, work units and rounds."""
    latencies, work, rounds = [], 0, 0
    for cmd in cmds:
        code, elapsed, text, err = execute(cmd, tracer)
        latencies.append(elapsed)
        obj = gate.check(cmd, code, text, err)
        if obj is not None:
            work += cmd.work(obj)
        rounds += cmd.rounds
        speed.maybe_sample()
    return latencies, work, rounds


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def set_up(workload: str, seed: int, size: str, workdir: Path, speed: Speed):
    """Import the package and write the workload's inputs, several times;
    the last set-up is kept.  Returns the median set-up time, scaled by the
    speed samples taken between the set-ups, and the unscaled times."""
    times, loops = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        loops.append(speed.sample())
        t0 = perf_counter()
        workdir.mkdir(parents=True)
        program = load_program()
        cmds = workloads.BUILDERS[workload](program, seed, workdir, workloads.SIZES[size])
        times.append(perf_counter() - t0)
    return program, cmds, statistics.median(times) * speed.scale(loops), times


def untraced_run(workload, cmds, gate, seconds, setup_s, setup_times, speed):
    """Whole passes in a closed loop until ``seconds`` have passed.

    Every repetition of a command does the same work (its stdout is checked
    byte for byte), so a command's latency is the median of its
    repetitions, which also makes a separate warm-up pass unnecessary.
    Percentiles run over all timed commands, each counted at that latency,
    and throughput is one pass's work over the sum of them.
    """
    samples = [[] for _ in cmds]
    work, rounds, passes = 0, 0, 0
    deadline = perf_counter() + seconds
    while True:
        lat, w, r = run_pass(cmds, gate, speed)
        for reps, elapsed in zip(samples, lat):
            reps.append(elapsed)
        work, rounds, passes = work + w, rounds + r, passes + 1
        if perf_counter() >= deadline:
            break
    latency = [statistics.median(reps) for reps in samples]
    timed = sorted(latency * passes)
    q = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(timed, q)
    unscaled = {
        "setup_s": statistics.median(setup_times),
        "cmd_p50_ms": percentile(timed, 50)[0] * 1000,
        "cmd_tail_ms": tail * 1000,
        "work_per_s": work / passes / sum(latency),
    }
    scale = speed.scale()
    values = {
        "setup_s": setup_s,
        "cmd_p50_ms": unscaled["cmd_p50_ms"] * scale,
        "cmd_tail_ms": unscaled["cmd_tail_ms"] * scale,
        "work_per_s": unscaled["work_per_s"] / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": passes,
        "setup_runs_s": setup_times,
        "cmd_p50_ms": {"samples": len(timed)},
        "cmd_tail_ms": {"percentile": q, "beyond": beyond, "samples": len(timed)},
        THROUGHPUT_NAME[workload]: {"value": values["work_per_s"], "unit": "1/s"},
        "unscaled": unscaled,
        "speed": speed.report(),
    }
    if rounds and workload != "lazy-sample":
        details["rounds_per_s"] = {"value": rounds / passes / sum(latency) / scale, "unit": "1/s"}
    return values, details


def traced_run(workload, seed, program, cmds, gate, speed):
    """A warm-up pass, an untraced pass and a traced pass, each a fixed
    amount of work; times are scaled like the untraced run's."""
    run_pass(cmds, gate, speed)  # warm-up
    untraced, _, _ = run_pass(cmds, gate, speed)
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        traced, _, _ = run_pass(cmds, gate, speed, tracer)
    finally:
        tracer.uninstall()
    scale = speed.scale()
    values = {
        name: v * scale if name.endswith("_s") else v
        for name, v in tracer.layer_metrics(ALL_LABELS).items()
    }
    values["trace.overhead_s"] = (sum(traced) - sum(untraced)) * scale
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.tsv.gz"
    tracer.write(path)
    details = {
        "untraced_pass_s": sum(untraced),
        "traced_pass_s": sum(traced),
        "spans": len(tracer.start),
        "spans_file": str(path.relative_to(ROOT)),
        "speed": speed.report(),
    }
    return values, details


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'min' is the self-test's")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fibrous" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    gate = Gate()
    try:
        speed = Speed()
        program, cmds, setup_s, setup_times = set_up(args.workload, args.seed, args.size, workdir, speed)
        if args.trace:
            values, details = traced_run(args.workload, args.seed, program, cmds, gate, speed)
            listed = spec["per_layer"]
        else:
            values, details = untraced_run(args.workload, cmds, gate, args.seconds, setup_s, setup_times, speed)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        **details,
        "fail_share": gate.failed / gate.attempted,
        "problems": gate.problems,
        "machine": machine(),
    }
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_share':48} {report['fail_share']:.6g} ({gate.failed} of {gate.attempted} commands)")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
