"""The determinism contract as a test: every CSV and stdout of the
benchmark's three ladder workloads (seeds 7 and 2026, one and two
workers) and the stdout of the 1000 seed-7 exponent_mix calls hash to the
SHA-256 digests recorded in data/output_digests.json.

The calls are bench/workloads.py's call lists, run through cli.main. numpy
does not promise a Generator's streams across versions (NEP 19), so the
file records the numpy it was made with, and under another version every
test here fails and says so. A change that moves an output on purpose
rewrites the file with

    PYTHONPATH=src python tests/test_output_digests.py

and says which digests moved and why.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from steinmac import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.json"
REWRITE = "PYTHONPATH=src python tests/test_output_digests.py"
# (workload, seed, --workers of its simulate calls, if it makes any)
RUNS = [
    (name, seed, workers)
    for name in ("sparse_is_ladder", "gg_local_ladder", "frozen_oracle")
    for seed in (7, 2026)
    for workers in (1, 2)
] + [("exponent_mix", 7, None)]


@functools.cache
def _workloads() -> dict:
    """bench/workloads.py's WORKLOADS, loaded by path so that bench/ stays
    off sys.path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _with_workers(argv: list, workers: int) -> list:
    if "--workers" in argv:
        i = argv.index("--workers")
        argv = argv[:i] + argv[i + 2:]
    return argv + ["--workers", str(workers)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_workload(name: str, seed: int, workers, workdir: Path) -> tuple:
    """Run a workload's prepare calls and one pass of its calls in workdir.
    Returns, per call, its command line and {output: digest}, where the
    outputs are stdout and, for simulate, the CSV it wrote; workdir reads
    as <workdir> in both, so the digests name no temporary directory."""
    workload = _workloads()[name](workdir, seed)
    argvs, digests = [], []
    for call in workload.prepare + workload.calls:
        argv = _with_workers(call.argv, workers) if call.kind == "simulate" else call.argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        shown = " ".join(argv).replace(str(workdir), "<workdir>")
        if code != 0:  # the rewrite must never record a failed call
            raise RuntimeError(f"{name} seed {seed}: `{shown}` failed: {err.getvalue()}")
        stdout = out.getvalue().replace(str(workdir), "<workdir>")
        outputs = {"stdout": _sha256(stdout.encode())}
        if call.kind == "simulate":
            cfg = Path(argv[1])
            csv = cfg.parent / cli.load_config(cfg)["out"]
            outputs[csv.name] = _sha256(csv.read_bytes())
        argvs.append(shown)
        digests.append(outputs)
    return argvs, digests


def _recorded() -> dict:
    data = json.loads(DIGESTS.read_text())
    if data["numpy"] != np.__version__:
        pytest.fail(
            f"{DIGESTS.name} was made with numpy {data['numpy']} and this is numpy "
            f"{np.__version__}; numpy does not promise a Generator's streams across "
            f"versions, so rewrite the file with `{REWRITE}` and check which "
            f"digests moved"
        )
    return data["outputs"]


@pytest.mark.parametrize("name, seed, workers", RUNS)
def test_outputs_match_recorded_digests(name, seed, workers, tmp_path):
    want = _recorded()[f"{name} seed={seed}"]
    argvs, got = run_workload(name, seed, workers, tmp_path)
    assert len(got) == len(want), f"{name} seed {seed}: {len(got)} calls, {len(want)} recorded"
    moved = [
        f"{name} seed {seed} workers {workers} call {i} `{argv}`: {output} digest "
        f"{have.get(output)} != recorded {recorded.get(output)}"
        for i, (argv, have, recorded) in enumerate(zip(argvs, got, want))
        for output in sorted(have.keys() | recorded.keys())
        if have.get(output) != recorded.get(output)
    ]
    assert not moved, "\n".join(moved[:10]) + (
        f"\n... {len(moved)} outputs moved" if len(moved) > 10 else ""
    )


def main() -> None:
    outputs: dict = {}
    for name, seed, workers in RUNS:
        with tempfile.TemporaryDirectory() as d:
            _, digests = run_workload(name, seed, workers, Path(d))
        key = f"{name} seed={seed}"
        if outputs.setdefault(key, digests) != digests:
            sys.exit(f"{key}: --workers {workers} gives other outputs than --workers 1")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({"numpy": np.__version__, "outputs": outputs}, indent=1) + "\n"
    )
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
