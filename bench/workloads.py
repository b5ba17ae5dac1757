"""The four benchmark workloads: input files made from the seed, the CLI
calls of one pass, and the checks on every call's output.

Every check reuses a tolerance from the acceptance tests
(``tests/test_acceptance.py``); none is tuned to the benchmark.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TRIALS = 8192
# frozen_oracle's direct ladder: half the trials, so a run holds more
# passes of a workload whose exact rungs already take a quarter of a pass
FROZEN_TRIALS = 4096
LADDER = "100,200,400,800"
FIT_TOL = 0.15  # criteria 09 and 10: fitted exponent within 15%
ALPHA_MAX = 0.05  # criteria 09 and 10: alpha at the top rung
EXPONENT_TOL = 1e-8  # criterion 02: exponent against a closed form
FROZEN_TOL = 1e-12  # criterion 08: exact n=8 against the frozen oracle
SE_TOL = 4.0  # criterion 08: estimate within 4 standard errors

# criterion 08's frozen instance and its exact n=8 error probabilities
P_FROZEN = np.array([[[0.10, 0.06], [0.12, 0.08]], [[0.20, 0.09], [0.23, 0.12]]])
Q_FROZEN = np.array([[[0.15, 0.10], [0.10, 0.05]], [[0.15, 0.10], [0.20, 0.15]]])
ALPHA_N8 = 0.8686963871738652
BETA_N8 = 0.13403004969375013

# classes by label, with the marginals each class pins in the exponent
PINNED = {
    "sparse": (0, 1, 2),
    "sparse_full": (0, 2),
    "full_sparse": (1, 2),
    "full": (2,),
}


@dataclass
class Call:
    """One ``steinmac`` command line and the check on its standard output.

    ``check`` returns None when the output is right, else a message.
    """

    kind: str  # "exponent" or "simulate"
    argv: list
    check: Callable[[str], str | None]


# --- input files ---


def _fmt_rows(arr: np.ndarray, fmt: str) -> str:
    rows = arr.reshape(-1, arr.shape[-1])
    return "\n".join(" ".join(fmt % v for v in row) for row in rows)


def write_problem(path: Path, p: np.ndarray, q: np.ndarray, fmt="%.17g") -> Path:
    dims = " ".join(str(d) for d in p.shape)
    path.write_text(
        f"{dims}\n{_fmt_rows(p, fmt)}\n\n{_fmt_rows(q, fmt)}\n"
    )
    return path


def write_kernel(path: Path, kernel: np.ndarray) -> Path:
    dims = " ".join(str(d) for d in kernel.shape)
    path.write_text(f"{dims}\n{_fmt_rows(kernel, '%.17g')}\n")
    return path


def write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k.replace('_', '.', 1)} = {v}\n"
                            for k, v in keys.items()))
    return path


def adder_kernel() -> np.ndarray:
    k = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            k[a, b, a + b] = 0.5
            k[a, b, a + b + 1] = 0.5
    return k


def fading_kernel(s1_states, s2_states) -> np.ndarray:
    """Criterion 04's fading MAC: y = s1 x1 + s2 x2 + z, inputs in {-1, 1}."""
    k = np.zeros((2, 2, 6))
    weight = 1.0 / (len(s1_states) * len(s2_states) * 2)
    for i, x1 in enumerate((-1, 1)):
        for j, x2 in enumerate((-1, 1)):
            for s1 in s1_states:
                for s2 in s2_states:
                    for z in (0, 1):
                        k[i, j, s1 * x1 + s2 * x2 + z + 2] += weight
    return k


def random_joint(rng, dims) -> np.ndarray:
    x = rng.dirichlet(np.ones(int(np.prod(dims)))).reshape(dims)
    x = np.clip(x, 1e-6, None)
    return x / x.sum()


def random_pmf(rng, size: int) -> np.ndarray:
    x = rng.dirichlet(np.ones(size)) + 1e-3
    return x / x.sum()


def _marginal(arr: np.ndarray, axis: int) -> np.ndarray:
    return arr.sum(axis=tuple(a for a in range(3) if a != axis))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


# --- output checks ---


def parse_exponent(out: str, dims) -> tuple:
    """(class label or None, exponent_nats, minimizer) from ``exponent``."""
    lines = out.splitlines()
    head = dict(
        line.split(": ", 1) for line in lines if ": " in line
    )
    start = lines.index("minimizer (u1 u2 v probability):") + 1
    arg = np.zeros(dims)
    for line in lines[start:]:
        a, b, c, prob = line.split()
        arg[int(a), int(b), int(c)] = float(prob)
    return head.get("class"), float(head["exponent_nats"]), arg


def check_exponent(out, p, q, label, expected=None, keep=None):
    """The printed minimizer pins P's marginals on the class's axes, its
    divergence from Q is the printed exponent, and the exponent equals
    its closed form where one exists."""
    try:
        got_label, theta, arg = parse_exponent(out, p.shape)
    except (ValueError, KeyError) as exc:
        return f"unparsable exponent output: {exc}"
    if label is not None and got_label != label:
        return f"class {got_label!r}, expected {label!r}"
    pinned = PINNED[label or "full"]
    gap = max(
        float(np.abs(_marginal(arg, a) - _marginal(p, a)).max()) for a in pinned
    )
    if gap > EXPONENT_TOL:
        return f"minimizer marginals off P by {gap:.3e}"
    if abs(_kl(arg, q) - theta) > EXPONENT_TOL:
        return f"KL(minimizer||Q) = {_kl(arg, q)!r} != exponent {theta!r}"
    if expected is not None and abs(theta - expected) > EXPONENT_TOL:
        return f"exponent {theta!r} != closed form {expected!r}"
    if keep is not None:
        keep.append(theta)
    return None


def read_csv(path: Path) -> tuple:
    text = path.read_text()
    return text, list(csv.DictReader(io.StringIO(text)))


class _SameBytes:
    """The CSV a simulate call writes must repeat byte for byte on every
    pass with the same seed."""

    def __init__(self, path: Path):
        self.path = path
        self.first = None

    def __call__(self) -> tuple:
        text, rows = read_csv(self.path)
        if self.first is None:
            self.first = text
        elif text != self.first:
            return f"{self.path.name} differs from the first pass", rows
        return None, rows


def _fit_ratio(rows, target: float) -> str | None:
    fitted = float(rows[0]["fitted_exponent"])
    ratio = fitted / target
    if not abs(ratio - 1.0) <= FIT_TOL:
        return f"fitted/target = {ratio:.4f}, not within {FIT_TOL:.0%}"
    alpha = float(rows[-1]["alpha_hat"])
    if not alpha <= ALPHA_MAX:
        return f"alpha(n={rows[-1]['n']}) = {alpha:.4f} > {ALPHA_MAX}"
    return None


# --- workloads ---


class Workload:
    """Inputs live in `workdir`; `inputs` lists (loader, path) for every
    file the set-up parses; `prepare` calls run once before the passes;
    `pool_instance` is the (problem, kernel) files whose n=400 rung the
    traced run times with one and two workers, if any."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.inputs: list = []
        self.prepare: list = []
        self.calls: list = []
        self.pool_instance = None


class SparseIsLadder(Workload):
    name = "sparse_is_ladder"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        p = np.zeros((2, 2, 2))
        p[1] = 0.25
        q23 = np.array([[0.35, 0.15], [0.15, 0.35]])
        q = np.stack([0.5 * q23, 0.5 * q23])
        problem = write_problem(workdir / "ladder.problem", p, q)
        kernel = write_kernel(workdir / "adder.kernel", adder_kernel())
        cfg = write_config(
            workdir / "ladder.cfg", problem="ladder.problem",
            channel_kind="dmmac", channel_file="adder.kernel", cost_a=1,
            cost_b=0.5, sim_trials=TRIALS, sim_seed=seed, sim_mu=0.05,
            sim_ladder=LADDER, estimator="importance", out="ladder.csv",
        )
        self.inputs = [("problem", problem), ("kernel", kernel), ("config", cfg)]
        self.theta: list = []
        self.prepare = [Call(
            "exponent", ["exponent", str(problem), "--channel", str(kernel)],
            lambda out: check_exponent(out, p, q, "sparse", keep=self.theta),
        )]
        same = _SameBytes(workdir / "ladder.csv")

        def check(out):
            err, rows = same()
            if err is None and not self.theta:
                err = "no theoretical exponent from the exponent call"
            return err or _fit_ratio(rows, self.theta[0])

        self.calls = [
            Call("simulate", ["simulate", str(cfg), "--workers", "2"], check)
        ]
        self.pool_instance = (problem, kernel)


class GgLocalLadder(Workload):
    name = "gg_local_ladder"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        p = np.array([0.0, 1.0]).reshape(1, 1, 2)
        q = np.array([0.55, 0.45]).reshape(1, 1, 2)
        problem = write_problem(workdir / "gg.problem", p, q)
        cfg = write_config(
            workdir / "gg.cfg", problem="gg.problem", channel_kind="gg",
            gg_p=2, gg_sigma=1, gg_h1=1, gg_h2=1, sim_trials=TRIALS,
            sim_seed=seed, sim_mu=0.05, sim_ladder=LADDER,
            estimator="importance", scheme="local", out="gg.csv",
        )
        self.inputs = [("problem", problem), ("config", cfg)]
        target = _kl(_marginal(p, 2), _marginal(q, 2))
        same = _SameBytes(workdir / "gg.csv")

        def check(out):
            err, rows = same()
            return err or _fit_ratio(rows, target)

        self.calls = [Call("simulate", ["simulate", str(cfg)], check)]


class FrozenOracle(Workload):
    name = "frozen_oracle"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        problem = write_problem(
            workdir / "frozen.problem", P_FROZEN, Q_FROZEN, fmt="%.2f"
        )
        kernel = write_kernel(workdir / "noisy.kernel", np.array(
            [[[0.6, 0.4, 0.0], [0.0, 0.7, 0.3]],
             [[0.0, 0.5, 0.5], [0.0, 0.1, 0.9]]]
        ))
        common = dict(
            problem="frozen.problem", channel_kind="dmmac",
            channel_file="noisy.kernel", cost_a=1, cost_b=0.5,
            sim_trials=FROZEN_TRIALS, sim_seed=seed, sim_mu=0.2,
        )
        exact_cfg = write_config(
            workdir / "exact.cfg", **common, sim_ladder="8,12,16,20",
            estimator="exact", out="exact.csv",
        )
        direct_cfg = write_config(
            workdir / "direct.cfg", **common, sim_ladder="8,12,16",
            estimator="direct", out="direct.csv",
        )
        self.inputs = [("problem", problem), ("kernel", kernel),
                       ("config", exact_cfg), ("config", direct_cfg)]
        same_exact = _SameBytes(workdir / "exact.csv")
        same_direct = _SameBytes(workdir / "direct.csv")
        exact = {}

        def check_exact(out):
            err, rows = same_exact()
            if err:
                return err
            for row in rows:
                exact[int(row["n"])] = (float(row["alpha_hat"]),
                                        float(row["beta_hat"]))
            alpha, beta = exact[8]
            if abs(alpha - ALPHA_N8) > FROZEN_TOL or abs(beta - BETA_N8) > FROZEN_TOL:
                return f"exact n=8 gives ({alpha!r}, {beta!r}), frozen oracle " \
                       f"({ALPHA_N8!r}, {BETA_N8!r})"
            return None

        def check_direct(out):
            err, rows = same_direct()
            if err:
                return err
            for row in rows:
                n = int(row["n"])
                if n not in exact:
                    return f"no exact value at n={n}"
                for name, want in zip(("alpha_hat", "beta_hat"), exact[n]):
                    se = math.sqrt(want * (1 - want) / FROZEN_TRIALS)
                    dev = abs(float(row[name]) - want) / se
                    if dev > SE_TOL:
                        return f"direct {name} at n={n} is {dev:.2f} SE " \
                               f"from exact (tol {SE_TOL})"
            return None

        self.calls = [
            Call("simulate", ["simulate", str(exact_cfg)], check_exact),
            Call("simulate", ["simulate", str(direct_cfg)], check_direct),
        ]


class ExponentMix(Workload):
    name = "exponent_mix"
    RANDOM_222 = 400
    RANDOM_333 = 200
    PRODUCT_Q = 399  # with the boundary instance, 1000 calls per pass

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        rng = np.random.default_rng(seed)
        det, unif = (1,), (-1, 1)
        channels = []  # (argv tail, class label printed or None)
        for label, states in (("sparse", (det, det)), ("full", (unif, unif)),
                              ("sparse_full", (det, unif)),
                              ("full_sparse", (unif, det))):
            path = write_kernel(workdir / f"{label}.kernel",
                                fading_kernel(*states))
            self.inputs.append(("kernel", path))
            channels.append((["--channel", str(path)], label))
        channels.append((["--gg", "2,1,1,1"], None))

        cases = []  # (p, q, closed-form exponent or None, channel index)
        for dims, count in (((2, 2, 2), self.RANDOM_222),
                            ((3, 3, 3), self.RANDOM_333)):
            for _ in range(count):
                cases.append((random_joint(rng, dims), random_joint(rng, dims),
                              None, int(rng.integers(len(channels)))))
        for _ in range(self.PRODUCT_Q):
            dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
            qs = [random_pmf(rng, d) for d in dims]
            p = random_joint(rng, dims)
            ch = int(rng.integers(len(channels)))
            pinned = PINNED[channels[ch][1] or "full"]
            closed = sum(_kl(_marginal(p, a), qs[a]) for a in pinned)
            cases.append((p, np.einsum("i,j,k->ijk", *qs), closed, ch))
        # the I-projection on the simplex boundary: all three marginals
        # pinned force the 010 cell to zero, and the answer is ln 1.25
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[1, 1, 1] = 0.5
        q = np.zeros((2, 2, 2))
        q[0, 0, 0] = q[1, 1, 1] = 0.4
        q[0, 1, 0] = 0.2
        cases.append((p, q, math.log(1.25), 0))
        order = rng.permutation(len(cases))

        for i in order:
            p, q, closed, ch = cases[i]
            path = write_problem(workdir / f"case{i:04d}.problem", p, q)
            self.inputs.append(("problem", path))
            tail, label = channels[ch]
            self.calls.append(Call(
                "exponent", ["exponent", str(path)] + tail,
                lambda out, p=p, q=q, label=label, closed=closed:
                    check_exponent(out, p, q, label, closed),
            ))


WORKLOADS = {
    w.name: w for w in (SparseIsLadder, GgLocalLadder, FrozenOracle, ExponentMix)
}
