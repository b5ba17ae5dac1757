import ast
import contextlib
import csv
import importlib.metadata
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmac
from steinmac import cli, schemes
from steinmac.channels import BudgetLaw, ChannelClass, CostModel, load_dmmac
from steinmac.cli import load_config, load_problem, main
from steinmac.errors import ParseError
from steinmac.simulate import SimConfig, run_ladder

ADDER = """2 2 4
0.5 0.5 0 0
0 0.5 0.5 0
0 0.5 0.5 0
0 0 0.5 0.5
"""

FULL = """2 2 2
0.5 0.5
0.5 0.5
0.5 0.5
0.5 0.5
"""

NOISY = """2 2 3
0.6 0.4 0
0 0.7 0.3
0 0.5 0.5
0 0.1 0.9
"""

# uniform null against a product of Bernoulli(0.25) coordinates
PROBLEM_UNIFORM = """2 2 2
0.125 0.125
0.125 0.125
0.125 0.125
0.125 0.125

0.421875 0.140625
0.140625 0.046875
0.140625 0.046875
0.046875 0.015625
"""

PROBLEM_FROZEN = """# joint null and alternative for the sparse fixture
2 2 2
0.10 0.06
0.12 0.08
0.20 0.09
0.23 0.12

0.15 0.10
0.10 0.05
0.15 0.10
0.20 0.15
"""

# all three marginals pinned force the Q-supported cell 010 to zero: the
# I-projection lies on the boundary of the simplex and its value is ln 1.25
PROBLEM_BOUNDARY = """2 2 2
0.5 0
0 0
0 0
0 0.5

0.4 0
0.2 0
0 0
0 0.4
"""

# a 3x3x3 null and alternative, every cell charged
PROBLEM_333 = """3 3 3
0.052 0.031 0.018
0.044 0.027 0.036
0.015 0.061 0.022
0.039 0.048 0.025
0.033 0.057 0.029
0.041 0.020 0.046
0.035 0.024 0.050
0.028 0.043 0.037
0.019 0.055 0.065

0.030 0.045 0.038
0.026 0.041 0.033
0.050 0.022 0.047
0.036 0.029 0.044
0.031 0.048 0.025
0.039 0.042 0.027
0.034 0.051 0.023
0.046 0.028 0.040
0.035 0.032 0.058
"""

# exponent stdout, byte for byte, as the per-cell printing loop wrote it
GOLDEN_FROZEN_NOISY = """class: sparse
exponent: 0.012606
exponent_nats: 0.01260573824175671
minimizer (u1 u2 v probability):
0 0 0 0.136071886755
0 0 1 0.0728032157593
0 1 0 0.107848042902
0 1 1 0.0432768545575
1 0 0 0.157081046757
1 0 1 0.0840438507286
1 1 0 0.248999023586
1 1 1 0.149876078955
"""

GOLDEN_333_GG = """exponent: 0.001892
exponent_nats: 0.0018918802923614136
minimizer (u1 u2 v probability):
0 0 0 0.0280733944954
0 0 1 0.0487278106509
0 0 2 0.0372059701493
0 1 0 0.0243302752294
0 1 1 0.0443964497041
0 1 2 0.0323104477612
0 2 0 0.0467889908257
0 2 1 0.0238224852071
0 2 2 0.0460179104478
1 0 0 0.0336880733945
1 0 1 0.0314023668639
1 0 2 0.0430805970149
1 1 0 0.0290091743119
1 1 1 0.0519763313609
1 1 2 0.0244776119403
1 2 0 0.036495412844
1 2 1 0.0454792899408
1 2 2 0.0264358208955
2 0 0 0.0318165137615
2 0 1 0.055224852071
2 0 2 0.0225194029851
2 1 0 0.0430458715596
2 1 1 0.0303195266272
2 1 2 0.0391641791045
2 2 0 0.032752293578
2 2 1 0.034650887574
2 2 2 0.0567880597015
"""

ALPHA_N8 = 0.8686963871738652
BETA_N8 = 0.13403004969375013


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "adder.kernel").write_text(ADDER)
    (tmp_path / "full.kernel").write_text(FULL)
    (tmp_path / "noisy.kernel").write_text(NOISY)
    (tmp_path / "uniform.problem").write_text(PROBLEM_UNIFORM)
    (tmp_path / "frozen.problem").write_text(PROBLEM_FROZEN)
    (tmp_path / "boundary.problem").write_text(PROBLEM_BOUNDARY)
    (tmp_path / "mixed.problem").write_text(PROBLEM_333)
    return tmp_path


class TestClassify:
    def test_sparse_with_witnesses(self, run, workdir):
        code, out, err = run("classify", str(workdir / "adder.kernel"))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "class: sparse"
        assert lines[1] == (
            "sensor 1 marker: off_input=1 on_input=0 partner_pilot=0 "
            "marker_output=0 p_marker=0.5"
        )
        assert lines[2] == (
            "sensor 2 marker: off_input=1 on_input=0 partner_pilot=0 "
            "marker_output=0 p_marker=0.5"
        )

    def test_full_reports_no_markers(self, run, workdir):
        code, out, _ = run("classify", str(workdir / "full.kernel"))
        assert code == 0
        assert out.splitlines() == [
            "class: full",
            "markers: none (every output stays reachable)",
        ]

    def test_missing_file_fails_cleanly(self, run, tmp_path):
        code, out, err = run("classify", str(tmp_path / "nope.kernel"))
        assert code == 1
        assert err.startswith("error:")


class TestExponent:
    def test_sparse_value_and_minimizer(self, run, workdir):
        code, out, _ = run(
            "exponent",
            str(workdir / "uniform.problem"),
            "--channel",
            str(workdir / "adder.kernel"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "class: sparse"
        assert lines[1] == "exponent: 0.431523"
        nats = float(lines[2].split(":")[1])
        assert nats == pytest.approx(3 * 0.14384103622589046, abs=1e-12)
        assert lines[3] == "minimizer (u1 u2 v probability):"
        cells = [line.split() for line in lines[4:]]
        assert len(cells) == 8
        # uniform marginals pinned against a product alternative project
        # back onto the uniform joint
        for cell in cells:
            assert float(cell[3]) == pytest.approx(0.125, abs=1e-9)

    def test_additive_channel_pins_only_v(self, run, workdir):
        code, out, _ = run(
            "exponent", str(workdir / "uniform.problem"), "--gg", "2,1,1,1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exponent: 0.143841"
        rows = [line.split() for line in lines[3:]]
        v_mass = sum(float(r[3]) for r in rows if r[2] == "0")
        assert v_mass == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("channel", ["adder.kernel", "full.kernel", None])
    def test_solves_one_projection(self, run, workdir, monkeypatch, channel):
        solves = []
        solve = steinmac.min_kl_fixed_marginals

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        for module in (cli, schemes):
            monkeypatch.setattr(module, "min_kl_fixed_marginals", counted)
        tail = ["--gg", "2,1,1,1"] if channel is None else ["--channel", str(workdir / channel)]
        code, _, _ = run("exponent", str(workdir / "uniform.problem"), *tail)
        assert code == 0
        assert len(solves) == 1

    def test_boundary_projection_answered(self, run, workdir):
        argv = ["exponent", str(workdir / "boundary.problem"),
                "--channel", str(workdir / "adder.kernel")]
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "class: sparse"
        assert abs(float(lines[2].split(":")[1]) - math.log(1.25)) <= 1e-12
        assert "0 1 0 0" in lines
        assert err == ""

    def test_verbose_reports_solve_on_stderr_only(self, run, workdir):
        argv = ["exponent", str(workdir / "boundary.problem"),
                "--channel", str(workdir / "adder.kernel")]
        _, quiet, _ = run(*argv)
        code, out, err = run(*argv, "-v")
        assert code == 0
        assert out == quiet
        assert err.startswith("ipf: sweeps=")
        assert "face=2 of 3 cells" in err
        _, quiet, _ = run("exponent", str(workdir / "uniform.problem"), "--gg", "2,1,1,1")
        code, out, err = run("exponent", str(workdir / "uniform.problem"),
                             "--gg", "2,1,1,1", "-v")
        assert out == quiet
        assert "face=8 of 8 cells" in err

    def test_bad_gg_argument(self, run, workdir):
        code, _, err = run(
            "exponent", str(workdir / "uniform.problem"), "--gg", "2,1,1"
        )
        assert code == 1 and "p,sigma,h1,h2" in err

    def test_non_numeric_gg_argument(self, run, workdir):
        code, out, err = run(
            "exponent", str(workdir / "uniform.problem"), "--gg", "a,b,c,d"
        )
        assert (code, out) == (1, "")
        assert err == "error: --gg expects four numbers, got 'a,b,c,d'\n"

    @pytest.mark.parametrize("problem, tail, golden", [
        ("frozen.problem", ["--channel", "noisy.kernel"], GOLDEN_FROZEN_NOISY),
        ("mixed.problem", ["--gg", "2,1,1,1"], GOLDEN_333_GG),
    ])
    def test_stdout_is_golden(self, run, workdir, problem, tail, golden):
        tail = [str(workdir / t) if t.endswith(".kernel") else t for t in tail]
        code, out, err = run("exponent", str(workdir / problem), *tail)
        assert (code, err) == (0, "")
        assert out == golden

    def test_undominated_null_is_one_error_line(self, run, tmp_path, workdir):
        # P charges 0 1 0 and 1 0 1, where Q has no mass; the first in
        # row-major order is named
        bad = tmp_path / "bad.problem"
        bad.write_text("2 2 2\n0.25 0\n0.25 0\n0 0.25\n0.25 0\n\n"
                       "0.5 0\n0 0\n0 0\n0.5 0\n")
        code, out, err = run(
            "exponent", str(bad), "--channel", str(workdir / "noisy.kernel")
        )
        assert (code, out) == (1, "")
        assert err == "error: P > 0 but Q == 0 at cell (0, 1, 0)\n"

    def test_undominated_null_fails(self, run, tmp_path, workdir):
        bad = tmp_path / "bad.problem"
        bad.write_text("1 1 2\n0.5 0.5\n\n1 0\n")
        code, _, err = run(
            "exponent", str(bad), "--channel", str(workdir / "adder.kernel")
        )
        assert code == 1
        assert err.startswith("error:")


class TestProblemFiles:
    def test_blank_line_separates_exactly_two_tensors(self, tmp_path):
        f = tmp_path / "p.problem"
        f.write_text("1 1 2\n0.5 0.5\n\n0.5 0.5\n\n0.5 0.5\n")
        with pytest.raises(ParseError, match="3 block"):
            load_problem(f)

    def test_wrong_entry_count(self, tmp_path):
        f = tmp_path / "p.problem"
        f.write_text("1 1 2\n0.5 0.5 0.1\n\n0.5 0.5\n")
        with pytest.raises(ParseError, match="entries"):
            load_problem(f)

    def test_bad_number_reports_line(self, tmp_path):
        f = tmp_path / "p.problem"
        f.write_text("1 1 2\n0.5 oops\n\n0.5 0.5\n")
        with pytest.raises(ParseError) as err:
            load_problem(f)
        assert err.value.line == 2

    def test_sum_tolerance(self, tmp_path):
        f = tmp_path / "p.problem"
        f.write_text("1 1 2\n0.5 0.5000000004\n\n0.5 0.5\n")
        problem = load_problem(f)
        assert float(problem.p.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        f.write_text("1 1 2\n0.5 0.6\n\n0.5 0.5\n")
        with pytest.raises(ParseError, match="sums to") as err:
            load_problem(f)
        assert str(err.value) == f"{f}: tensor P sums to 1.1, not 1"


class TestConfigFiles:
    def test_unknown_key_reports_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("problem = p.txt\nbogus = 1\n")
        with pytest.raises(ParseError) as err:
            load_config(f)
        assert "bogus" in str(err.value) and err.value.line == 2

    def test_duplicate_and_empty(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("out = a.csv\nout = b.csv\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_config(f)
        f.write_text("out =\n")
        with pytest.raises(ParseError, match="empty value"):
            load_config(f)

    def test_comments_skipped(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# a comment\nout = a.csv\n")
        assert load_config(f) == {"out": "a.csv"}

    def test_values_are_read_by_their_key(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("sim.ladder = 8, 12\nsim.mu = 0.2\nsim.seed = 9\nout = a.csv\n")
        assert load_config(f) == {
            "sim.ladder": (8, 12), "sim.mu": 0.2, "sim.seed": 9, "out": "a.csv",
        }

    @pytest.mark.parametrize("line, says", [
        ("sim.mu = x", "sim.mu must be a number, got 'x'"),
        ("sim.trials = 2.5", "sim.trials must be an integer, got '2.5'"),
        ("sim.ladder = 10,x", "sim.ladder must be comma-separated integers, got '10,x'"),
        ("gg.p = x", "gg.p must be a number, got 'x'"),
    ], ids=["number", "integer", "integers", "unused-key"])
    def test_unreadable_value_reports_line(self, tmp_path, line, says):
        f = tmp_path / "c.cfg"
        f.write_text(f"out = a.csv\n{line}\n")
        with pytest.raises(ParseError) as err:
            load_config(f)
        assert str(err.value) == f"{f}:2: {says}"


def write_sim_config(workdir, **overrides):
    entries = {
        "problem": "frozen.problem",
        "channel.kind": "dmmac",
        "channel.file": "noisy.kernel",
        "cost.a": "1",
        "cost.b": "0.5",
        "sim.trials": "50",
        "sim.seed": "9",
        "sim.mu": "0.2",
        "sim.ladder": "8,12,16",
        "estimator": "exact",
        "out": "run.csv",
    }
    entries.update(overrides)
    text = "".join(
        f"{k} = {v}\n" for k, v in entries.items() if v is not None
    )
    path = workdir / "sim.cfg"
    path.write_text(text)
    return path


# a local-scheme direct ladder over the additive generalized-Gaussian channel
GG_LOCAL = {
    "channel.kind": "gg",
    "channel.file": None,
    "gg.p": "2",
    "gg.sigma": "1",
    "gg.h1": "1",
    "gg.h2": "1",
    "cost.a": None,
    "cost.b": None,
    "estimator": "direct",
    "sim.ladder": "10,20,30",
    "sim.trials": "200",
}


class TestSimulate:
    def test_exact_ladder_golden_values(self, run, workdir):
        cfg = write_sim_config(workdir)
        code, out, err = run("simulate", str(cfg))
        assert code == 0, err
        assert f"wrote {workdir / 'run.csv'}" in out
        assert "theoretical_exponent:" in out
        rows = (workdir / "run.csv").read_text().splitlines()
        assert len(rows) == 4
        first = rows[1].split(",")
        assert first[0] == "8" and first[1] == "exact"
        assert float(first[2]) == pytest.approx(ALPHA_N8, abs=1e-12)
        assert float(first[5]) == pytest.approx(BETA_N8, abs=1e-12)

    def test_byte_identical_across_runs_and_workers(self, run, workdir):
        cfg = write_sim_config(workdir, estimator="direct", **{"sim.trials": "3000"})
        run("simulate", str(cfg))
        first = (workdir / "run.csv").read_bytes()
        run("simulate", str(cfg))
        assert (workdir / "run.csv").read_bytes() == first
        run("simulate", str(cfg), "--workers", "4")
        assert (workdir / "run.csv").read_bytes() == first

    def test_paths_resolve_relative_to_config(self, run, workdir, monkeypatch, tmp_path):
        cfg = write_sim_config(workdir)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("simulate", str(cfg))
        assert code == 0
        assert (workdir / "run.csv").exists()

    def test_additive_channel_runs_local_scheme(self, run, workdir):
        cfg = write_sim_config(workdir, **GG_LOCAL)
        code, out, _ = run("simulate", str(cfg))
        assert code == 0
        assert len((workdir / "run.csv").read_text().splitlines()) == 4

    def test_scheme_refusals_explain_the_auto_choice(self, run, workdir):
        cfg = write_sim_config(
            workdir,
            scheme="sparse",
            **{
                "channel.kind": "gg",
                "channel.file": None,
                "gg.p": "2",
                "gg.sigma": "1",
                "gg.h1": "1",
                "gg.h2": "1",
            },
        )
        code, _, err = run("simulate", str(cfg))
        assert code == 1
        assert "scheme=auto selects local" in err

        cfg = write_sim_config(workdir, scheme="sparse_full")
        code, _, err = run("simulate", str(cfg))
        assert code == 1
        assert "classifies as sparse" in err
        assert "scheme=auto selects sparse" in err

    def test_scheme_choices_against_the_library(self, run, workdir):
        # the noisy kernel classifies as sparse: naming that class runs the
        # auto scheme, local runs the side-information rule, and a log cost
        # law sizes the marker blocks
        problem = load_problem(workdir / "frozen.problem")
        channel = load_dmmac(workdir / "noisy.kernel")
        power = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        cases = [
            ({"scheme": "sparse"}, ChannelClass.SPARSE, power),
            ({"scheme": "local", "cost.a": None, "cost.b": None}, ChannelClass.FULL, None),
            ({"cost.law": "log", "cost.a": "2", "cost.b": None}, ChannelClass.SPARSE,
             CostModel.unit(2, 2, BudgetLaw.log(2.0))),
        ]
        for overrides, cls, cost_model in cases:
            cfg = write_sim_config(workdir, **overrides)
            code, _, err = run("simulate", str(cfg))
            assert code == 0, err
            config = SimConfig(n_ladder=(8, 12, 16), trials=50, master_seed=9, mu=0.2,
                               cost_model=cost_model, estimator="exact")
            want = run_ladder(problem, channel, cls, config).to_csv()
            assert (workdir / "run.csv").read_text() == want, overrides

    def test_unknown_cost_law(self, run, workdir):
        cfg = write_sim_config(workdir, **{"cost.law": "linear"})
        code, _, err = run("simulate", str(cfg))
        assert code == 1
        assert "cost.law must be power or log, got 'linear'" in err

    def test_unreadable_value_refused_under_an_unused_key(self, run, workdir):
        # a dmmac run never reads gg.p, but a value that does not read is
        # refused at load all the same
        cfg = write_sim_config(workdir, **{"gg.p": "x"})
        line = cfg.read_text().splitlines().index("gg.p = x") + 1
        code, out, err = run("simulate", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:{line}: gg.p must be a number, got 'x'\n"

    def test_boundary_instance_exact_ladder(self, run, workdir):
        cfg = write_sim_config(
            workdir, problem="boundary.problem", **{"channel.file": "adder.kernel"}
        )
        start = time.perf_counter()
        code, out, err = run("simulate", str(cfg))
        assert time.perf_counter() - start < 10.0
        assert code == 0, err
        assert "theoretical_exponent: 0.223144" in out
        rows = list(csv.DictReader(io.StringIO((workdir / "run.csv").read_text())))
        assert len(rows) == 3
        theta = float(rows[0]["theoretical_exponent"])
        assert abs(theta - math.log(1.25)) <= 1e-12

    def test_boundary_exact_ladder_refused_before_any_rung(self, run, workdir):
        # the DP would take about 2.4 s over n = 100 and 200 before its
        # lattice at n = 400 overflowed; every rung is sized first instead
        cfg = write_sim_config(
            workdir, problem="boundary.problem",
            **{"sim.mu": "0.05", "sim.ladder": "100,200,400"},
        )
        start = time.perf_counter()
        code, out, err = run("simulate", str(cfg))
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err == "error: 10842924 padded lattice states exceed the 4000000 cap\n"

    def test_boundary_instance_importance_refuses_zero_tilt(self, run, workdir):
        # the tilt is the I-projection, which vanishes on the Q-supported
        # cell 010 where acceptance is possible, so IS would be biased
        cfg = write_sim_config(
            workdir, problem="boundary.problem", estimator="importance",
            **{"channel.file": "adder.kernel"},
        )
        start = time.perf_counter()
        code, _, err = run("simulate", str(cfg))
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert err.startswith("error: tilt is zero at cell (0, 1, 0)")

    def test_config_error_paths(self, run, workdir):
        cases = [
            dict(**{"channel.kind": "awgn"}),
            dict(**{"sim.ladder": "10,x"}),
            dict(**{"sim.trials": None}),
            dict(scheme="bogus"),
        ]
        for overrides in cases:
            cfg = write_sim_config(workdir, **overrides)
            code, _, err = run("simulate", str(cfg))
            assert code == 1, overrides
            assert err.startswith("error:")


class _NoLapack:
    """Stands in for numpy's LAPACK module: any use of it fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"LAPACK reached: _umath_linalg.{name}")


class TestNoLapack:
    """No CLI path calls LAPACK, whose first call in a process adds 1.3-1.5
    MB of resident memory (see exponents._certifies_face)."""

    @pytest.fixture(autouse=True)
    def no_lapack(self, monkeypatch):
        monkeypatch.setattr("numpy.linalg._linalg._umath_linalg", _NoLapack())
        with pytest.raises(AssertionError, match="LAPACK reached"):
            np.linalg.lstsq(np.eye(2), np.ones(2))

    @pytest.mark.parametrize("argv", [
        ["exponent", "uniform.problem", "--channel", "adder.kernel"],
        ["exponent", "boundary.problem", "--channel", "adder.kernel"],  # face certificate
        ["classify", "adder.kernel"],
    ])
    def test_exponent_and_classify(self, run, workdir, argv):
        argv = [str(workdir / a) if a.endswith((".problem", ".kernel")) else a for a in argv]
        code, _, err = run(*argv)
        assert code == 0, err

    @pytest.mark.parametrize("overrides", [
        {"estimator": "exact"}, {"estimator": "direct"}, {"estimator": "importance"}, GG_LOCAL,
    ], ids=["exact", "direct", "importance", "gg_local"])
    def test_simulate_fits_its_ladder(self, run, workdir, overrides):
        cfg = write_sim_config(workdir, **overrides)
        code, out, err = run("simulate", str(cfg))
        assert code == 0, err
        assert "fitted_exponent: nan" not in out  # the fit ran


class TestOutOfRangeValues:
    """A value the library rejects as out of range is one error line that
    names where it came from, never a traceback."""

    @pytest.mark.parametrize("overrides, argv, where", [
        ({"sim.mu": "2"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"sim.trials": "0"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"sim.ladder": "30,20,10"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"cost.b": "1.5"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"channel.kind": "gg", "channel.file": None, "gg.sigma": "1",
          "gg.h1": "1", "gg.h2": "1", "gg.p": "-1"}, ["simulate", "{cfg}"], "{cfg}"),
        ({}, ["exponent", "{problem}", "--gg", "0,1,1,1"], "--gg"),
        ({}, ["simulate", "{cfg}", "--workers", "0"], "--workers"),
        ({"sim.seed": "-1"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"cost.a": "nan"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"cost.a": "inf"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"channel.kind": "gg", "channel.file": None, "gg.sigma": "1",
          "gg.h1": "1", "gg.h2": "1", "gg.p": "inf"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"channel.kind": "gg", "channel.file": None, "gg.p": "2",
          "gg.h1": "1", "gg.h2": "1", "gg.sigma": "inf"}, ["simulate", "{cfg}"], "{cfg}"),
        ({"channel.kind": "gg", "channel.file": None, "gg.p": "2",
          "gg.sigma": "1", "gg.h2": "1", "gg.h1": "nan"}, ["simulate", "{cfg}"], "{cfg}"),
        ({}, ["exponent", "{problem}", "--gg", "inf,1,1,1"], "--gg"),
    ])
    def test_out_of_range_value_is_one_error_line(self, run, workdir, overrides, argv, where):
        names = dict(cfg=write_sim_config(workdir, **overrides),
                     problem=workdir / "uniform.problem")
        code, _, err = run(*(a.format(**names) for a in argv))
        assert code == 1
        # the line names the config key at fault: the last one overridden
        key = f"{list(overrides)[-1]} " if overrides else ""
        assert err.startswith(f"error: {where.format(**names)}: {key}")
        assert len(err.splitlines()) == 1


class TestMalformedInput:
    """A malformed input file ends in one error line and exit status 1,
    never a traceback."""

    @pytest.mark.parametrize("name, text, argv, says", [
        ("nan.problem", "1 1 2\nnan 0.5\n\n0.5 0.5\n",
         ["exponent", "{f}", "--gg", "2,1,1,1"], "{f}: tensor P sums to nan, not 1"),
        ("nan.kernel", "1 1 2\n0.5 nan\n",
         ["classify", "{f}"], "{f}:2: row for (x1=0, x2=0) sums to nan, not 1"),
        ("inf.problem", "inf 1 2\n0.5 0.5\n\n0.5 0.5\n",
         ["exponent", "{f}", "--gg", "2,1,1,1"],
         "{f}:1: dims line must hold three integers >= 1"),
    ])
    def test_non_finite_number(self, run, tmp_path, name, text, argv, says):
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run(*(a.format(f=f) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {says.format(f=f)}\n"

    # each input file with the commands that read it
    COMMANDS = {
        "frozen.problem": (["exponent", "{problem}", "--channel", "{kernel}"],
                           ["simulate", "{cfg}"]),
        "noisy.kernel": (["classify", "{kernel}"],
                         ["exponent", "{problem}", "--channel", "{kernel}"],
                         ["simulate", "{cfg}"]),
        "sim.cfg": (["simulate", "{cfg}"],),
    }

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_one_edit_is_an_answer_or_one_error_line(self, data):
        with tempfile.TemporaryDirectory() as d:
            workdir = Path(d)
            (workdir / "frozen.problem").write_text(PROBLEM_FROZEN)
            (workdir / "noisy.kernel").write_text(NOISY)
            write_sim_config(workdir)
            name = data.draw(st.sampled_from(sorted(self.COMMANDS)))
            lines = (workdir / name).read_text().splitlines()
            edit = data.draw(st.sampled_from(["token", "drop", "duplicate"]))
            if edit == "token":
                i = data.draw(st.sampled_from([i for i, t in enumerate(lines) if t]))
                tokens = lines[i].split()
                j = data.draw(st.integers(0, len(tokens) - 1))
                tokens[j] = data.draw(
                    st.sampled_from(["nan", "inf", "-1", "1e400", "x", "2.5", ""])
                )
                lines[i] = " ".join(tokens)
            else:
                i = data.draw(st.integers(0, len(lines) - 1))
                lines[i:i + 1] = [] if edit == "drop" else [lines[i]] * 2
            (workdir / name).write_text("\n".join(lines) + "\n")
            argv = data.draw(st.sampled_from(self.COMMANDS[name]))
            paths = dict(problem=workdir / "frozen.problem",
                         kernel=workdir / "noisy.kernel", cfg=workdir / "sim.cfg")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(**paths) for a in argv])
        assert code in (0, 1)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_project():
    """The ``[project]`` table of this checkout's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        from pip._vendor import tomli as tomllib
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]


def declared_scripts():
    """The ``[project.scripts]`` table of this checkout's pyproject.toml."""
    return declared_project()["scripts"]


def third_party_imports():
    """Top-level modules that src/steinmac imports from outside the
    standard library and the package itself."""
    names = set()
    for path in Path(steinmac.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"steinmac"}


class TestPackaging:
    def test_runtime_dependencies_are_the_imported_modules(self):
        # scipy is a test dependency: only tests import it
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                    for spec in declared_project()["dependencies"]}
        assert declared == third_party_imports() == {"numpy"}
        assert any(spec.startswith("scipy")
                   for spec in declared_project()["optional-dependencies"]["test"])


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture
def checkout_env():
    """Environment for a child Python that imports the steinmac under test."""
    env = dict(os.environ)
    src_dir = str(Path(steinmac.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    return env


class TestEntryPoint:
    def test_console_script_installed(self, workdir, tmp_path, checkout_env):
        # Write the launcher that an install of this checkout would put on
        # PATH, with the code pip uses at install time, so the test runs this
        # checkout's entry point and not whichever steinmac PATH holds.
        scripts = pytest.importorskip("pip._vendor.distlib.scripts")
        declared = declared_scripts()
        assert "steinmac" in declared
        bin_dir = tmp_path / "bin"
        maker = scripts.ScriptMaker(None, str(bin_dir))
        maker.executable = sys.executable
        maker.variants = {""}
        maker.make(f"steinmac = {declared['steinmac']}")

        checkout_env["PATH"] = os.pathsep.join(
            [str(bin_dir), checkout_env.get("PATH", "")]
        )
        launcher = shutil.which("steinmac", path=checkout_env["PATH"])
        assert launcher is not None
        assert Path(launcher).parent == bin_dir

        proc = subprocess.run(
            ["steinmac", "classify", str(workdir / "adder.kernel")],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("class: sparse")

        # the launcher hands main()'s return value to sys.exit
        proc = subprocess.run(
            ["steinmac", "classify", str(tmp_path / "nope.kernel")],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode != 0
        assert proc.stderr.startswith("error:")

    @pytest.mark.skipif(
        not distribution_installed("steinmac"),
        reason="steinmac distribution not installed",
    )
    def test_installed_distribution_matches_pyproject(self):
        dist = importlib.metadata.distribution("steinmac")
        console = {
            ep.name: ep.value
            for ep in dist.entry_points
            if ep.group == "console_scripts"
        }
        assert console.get("steinmac") == declared_scripts()["steinmac"]
        assert shutil.which("steinmac") is not None

    def test_cli_import_does_not_load_scipy(self, checkout_env):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, steinmac.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_exponent_on_boundary_does_not_load_scipy(self, workdir, checkout_env):
        code = (
            "import sys\n"
            "from steinmac.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('scipy' in sys.modules, rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "exponent",
             str(workdir / "boundary.problem"), "--channel",
             str(workdir / "adder.kernel")],
            capture_output=True, text=True, env=checkout_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "exponent_nats: 0.2231435513142097" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False 0"

    def test_one_process_matches_fresh_processes(self, workdir, checkout_env):
        # the parser is built once per process; a run of calls in one
        # process, an argparse error first, must print what fresh
        # processes print
        cfg = write_sim_config(workdir)
        calls = [
            ["exponent", str(workdir / "uniform.problem")],
            ["exponent", str(workdir / "uniform.problem"), "--gg", "2,1,1,1"],
            ["exponent", str(workdir / "boundary.problem"), "--channel",
             str(workdir / "adder.kernel")],
            ["classify", str(workdir / "adder.kernel")],
            ["simulate", str(cfg)],
        ]
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "steinmac.cli", *argv],
                capture_output=True, text=True, env=checkout_env,
            )
            fresh.append([proc.returncode, proc.stdout, proc.stderr])
        code = (
            "import contextlib, io, json, sys\n"
            "from steinmac.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            rc = main(argv)\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    results.append([rc, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(calls)],
            capture_output=True, text=True, env=checkout_env,
        )
        assert proc.returncode == 0, proc.stderr
        together = json.loads(proc.stdout)
        assert fresh[0][0] == 2 and "usage: steinmac exponent" in fresh[0][2]
        assert together[0][0] == fresh[0][0]
        assert together[0][1] == fresh[0][1] == ""
        assert together[0][2] == fresh[0][2]
        for got, want in zip(together[1:], fresh[1:]):
            assert got[:2] == want[:2]
        assert [rc for rc, _, _ in fresh[1:]] == [0, 0, 0, 0]

    def test_module_invocation(self, workdir, checkout_env):
        proc = subprocess.run(
            [sys.executable, "-m", "steinmac.cli", "classify",
             str(workdir / "full.kernel")],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("class: full")
