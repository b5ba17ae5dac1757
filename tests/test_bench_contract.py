"""The benchmark's tracer looks steinmac functions up by module and name;
a refactor that renames or moves one breaks `bench/run.py --trace 1`."""

import importlib
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_sites_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    from steinmac.schemes import Scheme

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.SITES
    }
    methods = {attr: Scheme.__dict__[attr] for attr, _ in tracing.METHOD_SITES}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn, (module, attr)
        for attr, fn in methods.items():
            assert Scheme.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()

    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, (module, attr)
    for attr, fn in methods.items():
        assert Scheme.__dict__[attr] is fn, attr


NOISY = "2 2 3\n0.6 0.4 0\n0 0.7 0.3\n0 0.5 0.5\n0 0.1 0.9\n"
PROBLEM = (
    "2 2 2\n0.10 0.06\n0.12 0.08\n0.20 0.09\n0.23 0.12\n\n"
    "0.15 0.10\n0.10 0.05\n0.15 0.10\n0.20 0.15\n"
)


def test_traced_calls_bind_their_arguments(monkeypatch, tmp_path, capsys):
    # the info functions bind n, trials, sides, scheme and problem by
    # parameter name, so a renamed or dropped parameter fails only here
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    from steinmac import cli

    (tmp_path / "noisy.kernel").write_text(NOISY)
    (tmp_path / "frozen.problem").write_text(PROBLEM)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for estimator in ("exact", "direct", "importance"):
            cfg = tmp_path / f"{estimator}.cfg"
            cfg.write_text(
                "problem = frozen.problem\nchannel.kind = dmmac\n"
                "channel.file = noisy.kernel\ncost.a = 1\ncost.b = 0.5\n"
                "sim.trials = 200\nsim.seed = 9\nsim.mu = 0.2\n"
                f"sim.ladder = 8,12,16\nestimator = {estimator}\n"
                f"out = {estimator}.csv\n"
            )
            assert cli.main(["simulate", str(cfg)]) == 0
        argv = ["exponent", str(tmp_path / "frozen.problem"),
                "--channel", str(tmp_path / "noisy.kernel")]
        assert tracer.span("cli.exponent", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert [s for s in tracer.spans if s[6] is not None] == []
    names = {s[2] for s in tracer.spans}
    for name in ("simulate.run_trials", "simulate.importance_sample_beta",
                 "simulate.exact_error_probs", "schemes.build_scheme_for_class"):
        assert name in names, name
    metrics = tracing.per_layer_metrics(tracer.spans, 1, "cli.exponent")
    assert metrics["exponents.min_kl_fixed_marginals.calls_per_exponent"] == 1.0


def test_traced_exponent_spans_each_layer_once(monkeypatch, tmp_path, capsys):
    # the exponent path reaches the parser, the kernel loader, the
    # classifier and the solver once each, through the module globals the
    # tracer replaces
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    from steinmac import cli

    (tmp_path / "noisy.kernel").write_text(NOISY)
    (tmp_path / "frozen.problem").write_text(PROBLEM)
    argv = ["exponent", str(tmp_path / "frozen.problem"),
            "--channel", str(tmp_path / "noisy.kernel")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.span("cli.exponent", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    counts = Counter(s[2] for s in tracer.spans)
    for name in ("exponents.min_kl_fixed_marginals", "cli.load_problem",
                 "channels.load_dmmac", "channels.classify"):
        assert counts[name] == 1, (name, counts)


def test_segment_marks_resolve_and_land(monkeypatch, tmp_path, capsys):
    # SegmentClock.install skips a name steinmac no longer has without a
    # word, which would only coarsen the segments whose fastest times
    # pass_s sums; so every marked name must resolve, and the block and
    # typicality marks must land inside a direct and an importance ladder,
    # one typicality call per block and hypothesis sampled, and the exact
    # ladder must reach the DP through the module global, once per rung
    # and hypothesis
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "segments", raising=False)
    segments = importlib.import_module("segments")
    from steinmac import cli, simulate

    gone = {("steinmac.simulate", "_compositions")}  # joint-type enumeration
    for module, attr in segments.MARKED:
        if (module, attr) not in gone:
            assert module == "steinmac.simulate", (module, attr)
            assert callable(getattr(simulate, attr, None)), attr

    class RecordingClock(segments.SegmentClock):
        def __init__(self):
            super().__init__()
            self.marked_in = Counter()

        def _wrap(self, fn):
            marked = super()._wrap(fn)

            def recorded(*args, **kwargs):
                before = len(self._marks or ())
                try:
                    return marked(*args, **kwargs)
                finally:
                    if len(self._marks or ()) > before:
                        self.marked_in[fn] += 1

            return recorded

    (tmp_path / "noisy.kernel").write_text(NOISY)
    (tmp_path / "frozen.problem").write_text(PROBLEM)
    # 200 trials make one block per rung; a direct block samples both
    # hypotheses, the importance ladder's direct block only the null
    for estimator, blocks, per_rung, decided in (
        ("direct", ("_direct_block",), 1, 6),
        ("importance", ("_direct_block", "_is_block"), 1, 6),
        ("exact", ("_exact_accept_prob",), 2, 6),
    ):
        cfg = tmp_path / f"{estimator}.cfg"
        cfg.write_text(
            "problem = frozen.problem\nchannel.kind = dmmac\n"
            "channel.file = noisy.kernel\ncost.a = 1\ncost.b = 0.5\n"
            "sim.trials = 200\nsim.seed = 9\nsim.mu = 0.2\n"
            f"sim.ladder = 8,12,16\nestimator = {estimator}\nout = {estimator}.csv\n"
        )
        originals = {attr: getattr(simulate, attr) for attr in (*blocks, "_typicality_flags")}
        clock = RecordingClock()
        clock.install()
        try:
            clock.start()
            assert cli.main(["simulate", str(cfg), "--workers", "1"]) == 0
            clock.stop()
        finally:
            clock.uninstall()
        capsys.readouterr()

        for attr, fn in originals.items():
            assert getattr(simulate, attr) is fn, attr
        for attr in blocks:
            assert clock.marked_in[originals[attr]] == 3 * per_rung, (estimator, attr)
        flags = originals["_typicality_flags"]
        assert clock.marked_in[flags] == decided, estimator
