"""Benchmark of the steinmac command line and library, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each run writes the workload's input files (made from the seed)
under ``.bench_work/``, drives ``steinmac.cli.main`` in this process as one
closed-loop caller, checks every call's output, and removes the files.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a separate
run that installs spans around the calls into each layer (see
``tracing.py``) and reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the same figures for
people. ``--workload all`` runs every workload in its own process.

Wall time only: no hardware counters are read. On a small shared machine
other tenants' load slows the processor for seconds at a time, so a pass
is timed segment by segment and each segment's fastest time is kept (see
``segments.py``), and ``setup_s`` is a median of set-ups spread over the
run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from segments import SegmentClock, pass_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NAMES = ("sparse_is_ladder", "gg_local_ladder", "frozen_oracle", "exponent_mix")
DEADLINE_S = 0.5  # per exponent call; interior solves take a few ms
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s
MIN_PASSES = 3  # a segment's fastest time needs a few passes to pick from


class DeadlineExceeded(Exception):
    """Raised by SIGALRM inside a call. Neither a SteinmacError nor an
    OSError, so ``cli.main`` does not turn it into exit code 1."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Runner:
    """Makes CLI calls one after another and keeps the tally."""

    def __init__(self, main):
        self.main = main
        self.tracer = None
        self.clock = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.exponent_s: list = []
        self.errors: list = []

    def record(self, what: str, status: str | None, wrong=False) -> None:
        self.attempted += 1
        if status is not None:
            self.failed += 1
            self.wrong += wrong
            self.errors.append(f"{what}: {status}")

    def run(self, call) -> list:
        """One call under the deadline; returns the wall seconds of its
        segments, or of the whole call when no segment clock is set."""
        out, err = io.StringIO(), io.StringIO()
        status, rc = None, None
        deadline = DEADLINE_S if call.kind == "exponent" else 0
        if self.clock is not None:
            self.clock.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    if self.tracer is None:
                        rc = self.main(call.argv)
                    else:
                        rc = self.tracer.span(f"cli.{call.kind}", self.main,
                                              call.argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            status = f"passed its {DEADLINE_S} s deadline"
        except SystemExit as exc:
            status = f"exited with {exc.code!r}"
        except Exception as exc:  # a crash is a failed call, not a dead run
            status = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        segments = [elapsed] if self.clock is None else self.clock.stop()
        if status is None and rc != 0:
            status = f"exit code {rc}: {err.getvalue().strip()}"
        wrong = False
        if status is None:
            message = call.check(out.getvalue())
            if message is not None:
                status, wrong = f"wrong output: {message}", True
        self.record(" ".join(call.argv[:2]), status, wrong)
        if call.kind == "exponent":
            self.exponent_s.append(elapsed)
        return segments


def one_pass(runner, calls) -> list:
    """The segment times of a pass's calls, so the checks between calls
    are not counted."""
    return [t for call in calls for t in runner.run(call)]


def setup_once(manifest: Path) -> float:
    """Seconds a fresh interpreter takes to import steinmac.cli and parse
    the workload's inputs."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(manifest)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_passes(runner, calls, seconds: float, manifest: Path) -> tuple:
    """Passes while the next one is expected to end within `seconds`, and
    at least MIN_PASSES; the SETUP_SAMPLES set-ups are spread between them
    in proportion to the time the passes have taken, so a slow spell of
    the host cannot hold every set-up."""
    passes, setups = [], []
    busy = 0.0
    while len(passes) < MIN_PASSES or busy + busy / len(passes) <= seconds:
        while (len(setups) < SETUP_SAMPLES
               and len(setups) <= SETUP_SAMPLES * busy / seconds):
            setups.append(setup_once(manifest))
        start = time.perf_counter()
        passes.append(one_pass(runner, calls))
        busy += time.perf_counter() - start
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_once(manifest))
    return passes, setups


def parallel_efficiency(runner, workload) -> float:
    """t(workers=1) / (2 t(workers=2)) for the null side of the n=400 rung,
    measured untraced; both runs must give the same estimate."""
    from steinmac import cli, simulate
    from steinmac.channels import BudgetLaw, ChannelClass, CostModel
    from steinmac.schemes import build_scheme_for_class
    from workloads import TRIALS

    problem_file, kernel_file = workload.pool_instance
    problem = cli.load_problem(problem_file)
    channel = cli.load_dmmac(kernel_file)
    cost = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
    scheme = build_scheme_for_class(
        ChannelClass.SPARSE, channel, problem.p, cost, 400, 0.05
    )
    times, results = [], []
    for workers in (1, 2):
        start = time.perf_counter()
        results.append(simulate.run_trials(
            problem, channel, scheme, 400, TRIALS,
            (workload.seed, 400, 0), workers=workers, sides=("null",),
        ))
        times.append(time.perf_counter() - start)
        runner.record(f"run_trials workers={workers}", None)
    if results[0] != results[1]:
        runner.record("run_trials", "estimate depends on the worker count",
                      wrong=True)
    return times[0] / (2 * times[1])


def environment() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner, workload, seconds: float) -> dict:
    manifest = workload.dir / "inputs.json"
    manifest.write_text(json.dumps([[k, str(p)] for k, p in workload.inputs]))
    setup_once(manifest)  # warm-up, not timed: file cache, bytecode
    for call in workload.prepare:
        runner.run(call)
    runner.clock = SegmentClock()
    runner.clock.install()
    try:
        passes, setups = run_passes(runner, workload.calls, seconds, manifest)
    finally:
        runner.clock.uninstall()
        runner.clock = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {len(passes)} passes of {len(workload.calls)} calls cut into "
          f"{len(passes[0])} segments; pass totals in seconds: "
          + " ".join(f"{sum(p):.4f}" for p in passes))
    print(f"# setup_s is the median of {SETUP_SAMPLES} fresh interpreters: "
          + " ".join(f"{t:.4f}" for t in sorted(setups)))
    lat = runner.exponent_s
    if len(lat) >= 2:
        print(f"# exponent_ms_p50 {1e3 * quantile(lat, 0.5):.4f} ms, "
              f"exponent_ms_p99 {1e3 * quantile(lat, 0.99):.4f} ms "
              f"over {len(lat)} exponent calls")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_seconds(passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(runner, workload, seconds: float) -> dict:
    from tracing import PER_LAYER, Tracer, per_layer_metrics

    for call in workload.prepare:
        runner.run(call)
    par_eff = 0.0
    if workload.pool_instance is not None:
        par_eff = parallel_efficiency(runner, workload)
    # untraced and traced passes alternate, so load that drifts during the
    # run lands on both sides of the overhead estimate
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(sum(one_pass(runner, workload.calls)))
            continue
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(sum(one_pass(runner, workload.calls)))
        finally:
            runner.tracer = None
            tracer.uninstall()
    values = per_layer_metrics(tracer.spans, len(traced), "cli.exponent")
    values["simulate.run_trials.par_eff"] = par_eff
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced)
    )
    print(f"# {len(traced)} traced passes, {len(tracer.spans)} spans, seconds: "
          + " ".join(f"{t:.4f}" for t in traced))
    print(f"# {len(untraced)} untraced passes, seconds: "
          + " ".join(f"{t:.4f}" for t in untraced))
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        from steinmac import cli
    except ImportError as exc:
        print(f"error: cannot import steinmac from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: steinmac was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        print(f"# workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} {environment()}")
        print("# closed loop, one caller; wall time only, no hardware counters")
        runner = Runner(cli.main)
        signal.signal(signal.SIGALRM, _on_alarm)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for line in runner.errors[:5]:
        print(f"# failed: {line}")
    print(f"# failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one JSON line keyed by workload."""
    results, code = {}, 0
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = code or done.returncode
        if done.returncode == 0:
            results[name] = json.loads(done.stdout.splitlines()[-1])
    if code == 0:
        print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
