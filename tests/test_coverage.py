"""Coverage gate: the 95% intervals a ladder's CSV reports cover the exact
error probabilities at their nominal rate.

Each case runs one-rung run_ladder calls, the source of every CSV row, over
SEEDS seeds fixed in advance, TRIALS trials each, and counts how often the
reported interval holds the exact DP's value. The bound is fixed from the
nominal level and the seed count, not from the data: at level 0.95 the
count of covering seeds is binomial with standard deviation
sqrt(0.95 * 0.05 / SEEDS) in rate, and the gate allows four of them below
0.95, about 0.90 at 300 seeds. Four rather than two because Wilson
intervals run somewhat below nominal at some (n, p) (Brown, Cai & DasGupta
2001, Statist. Sci. 16(2)), so a correct interval may sit near 0.93 and
still must pass.
"""

import functools
import math

import numpy as np
import pytest

from steinmac.channels import BudgetLaw, ChannelClass, CostModel, Dmmac
from steinmac.prob import Joint3Pmf
from steinmac.simulate import SimConfig, TestProblem, run_ladder

SEEDS = 300
TRIALS = 256
LEVEL = 0.95
BOUND = LEVEL - 4 * math.sqrt(LEVEL * (1 - LEVEL) / SEEDS)

NOISY = np.array([
    [[0.6, 0.4, 0.0], [0.0, 0.7, 0.3]],
    [[0.0, 0.5, 0.5], [0.0, 0.1, 0.9]],
])
ADDER = np.zeros((2, 2, 4))
for _a in range(2):
    for _b in range(2):
        ADDER[_a, _b, _a + _b:_a + _b + 2] = 0.5


def _product(*ones):
    """The product joint of binary axes with the given Pr(symbol 1)."""
    return np.einsum("a,b,c->abc", *([1.0 - m, m] for m in ones))


def _criterion_09():
    p = np.zeros((2, 2, 2))
    p[1] = 0.25
    q23 = np.array([[0.35, 0.15], [0.15, 0.35]])
    return p, np.stack([0.5 * q23] * 2)


# (P, Q, kernel, mu) per instance: criterion 08's frozen pair, the README's
# uniform null against Q = (0.75, 0.25) on each axis, and criterion 09
INSTANCES = {
    "criterion08": (
        np.array([[[0.10, 0.06], [0.12, 0.08]], [[0.20, 0.09], [0.23, 0.12]]]),
        np.array([[[0.15, 0.10], [0.10, 0.05]], [[0.15, 0.10], [0.20, 0.15]]]),
        NOISY, 0.2,
    ),
    "readme": (_product(0.5, 0.5, 0.5), _product(0.25, 0.25, 0.25), NOISY, 0.2),
    "criterion09": (*_criterion_09(), ADDER, 0.05),
}
CASES = [("criterion08", 8), ("criterion08", 16), ("readme", 32), ("readme", 64),
         ("criterion09", 100)]


def _ladder(instance, n, estimator, seed):
    p, q, kernel, mu = INSTANCES[instance]
    config = SimConfig(
        n_ladder=(n,), trials=TRIALS, master_seed=seed, mu=mu,
        cost_model=CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5)), estimator=estimator,
    )
    problem = TestProblem(Joint3Pmf(p), Joint3Pmf(q))
    return run_ladder(problem, Dmmac(kernel), ChannelClass.SPARSE, config).points[0]


@functools.cache
def _coverage(instance, n, estimator):
    """{side: share of the seeds whose reported interval holds the exact value}."""
    exact = _ladder(instance, n, "exact", 0)
    hits = {"alpha": 0, "beta": 0}
    for seed in range(SEEDS):
        pt = _ladder(instance, n, estimator, seed)
        hits["alpha"] += pt.alpha_lo <= exact.alpha_hat <= pt.alpha_hi
        hits["beta"] += pt.beta_lo <= exact.beta_hat <= pt.beta_hi
    return {side: count / SEEDS for side, count in hits.items()}


# where the typicality box binds, the importance tilt at its centre rarely
# draws the sequences that carry beta, and beta_hat and its standard error
# are both far too small (ROADMAP section 1): coverage reads 0.410 at n = 32
# and 0.040 at n = 64
BOX_BINDS = pytest.mark.xfail(
    strict=True, reason="importance tilt misses the box edge where mu binds (ROADMAP 1)")
GATES = [
    pytest.param(instance, n, estimator, side, id=f"{instance}-n{n}-{estimator}-{side}",
                 marks=BOX_BINDS if (instance, estimator) == ("readme", "importance") else ())
    for instance, n in CASES
    for estimator, side in (("direct", "alpha"), ("direct", "beta"), ("importance", "beta"))
]


def test_bound_is_fixed_from_level_and_seed_count():
    assert BOUND == pytest.approx(0.8997, abs=1e-4)


@pytest.mark.parametrize("instance, n, estimator, side", GATES)
def test_interval_covers(instance, n, estimator, side):
    coverage = _coverage(instance, n, estimator)[side]
    assert coverage >= BOUND, f"{side} covered {coverage:.3f} < {BOUND:.3f}"
