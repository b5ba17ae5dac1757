"""Every blocklength, trial count and alphabet size passes one check,
prob._as_count: a fraction, even a whole float, raises OutOfRange naming
the parameter, a value below the least count raises with the entry
point's own message, and a numpy integer is taken as an int."""

import numpy as np
import pytest

from steinmac.channels import (
    BudgetLaw,
    CostModel,
    GgMac,
    admissible,
    cost_budget,
    gg_dn_tail,
    gg_ratio_bound,
    gg_sample,
)
from steinmac.errors import OutOfRange
from steinmac.exponents import brute_force_min_kl, min_kl_fixed_marginals
from steinmac.prob import (
    Joint3Pmf,
    Pmf,
    SequenceType,
    _as_count,
    empirical_type,
    sample_iid,
    typical_bounds,
)
from steinmac.schemes import build_local_scheme, gamma_schedule
from steinmac.simulate import (
    SimConfig,
    TestProblem,
    fit_exponent,
    importance_sample_beta,
    run_trials,
    wilson_interval,
)

LAW = BudgetLaw.power(1.0, 0.5)
CM = CostModel.unit(2, 2, LAW)
MAC = GgMac(2.0, 1.0, 1.0, 1.0)
HALF = Pmf([0.5, 0.5])
PROBLEM = TestProblem(
    Joint3Pmf(np.array([0.5, 0.5]).reshape(1, 1, 2)),
    Joint3Pmf(np.array([0.3, 0.7]).reshape(1, 1, 2)),
)
SCHEME = build_local_scheme(HALF, 0.2, 10)
Q_222 = np.full((2, 2, 2), 0.125)
CONS = {2: Pmf([0.4, 0.6])}

# (entry point, parameter, call with the count, a valid count, the greatest
# refused count and its message). The valid count is passed as np.int64.
SITES = [
    ("BudgetLaw.gamma", "n", LAW.gamma, 100, 0, "n must be >= 1"),
    ("cost_budget", "n", lambda n: cost_budget(CM, n), 100, 0, "n must be >= 1"),
    ("gg_sample", "n", lambda n: gg_sample(2.0, 1.0, n, 0), 10, 0, "n must be >= 1"),
    ("admissible", "n", lambda n: admissible([0, 0], 1, CM, n), 2, 0, "n must be >= 1"),
    ("gg_ratio_bound", "n", lambda n: gg_ratio_bound(MAC, CM, n, 0.5),
     100, 0, "n must be >= 1"),
    ("gg_dn_tail", "trials", lambda t: gg_dn_tail(MAC, CM, 100, 0.5, t, 0),
     10, 0, "trials must be >= 1"),
    ("SequenceType", "n", lambda n: SequenceType(np.array([0, 2]), n),
     2, 0, "n must be >= 1"),
    ("empirical_type", "alphabet_size", lambda k: empirical_type([0, 1], k),
     2, 0, "alphabet_size must be >= 1"),
    ("typical_bounds", "n", lambda n: typical_bounds(HALF, 0.1, n), 10, 0, "n must be >= 1"),
    ("sample_iid", "n", lambda n: sample_iid(HALF, n, 0), 10, 0, "n must be >= 1"),
    ("build_local_scheme", "n", lambda n: build_local_scheme(HALF, 0.2, n),
     10, 0, "n must be >= 1"),
    ("gamma_schedule", "n", gamma_schedule, 10, 0, "n must be >= 1"),
    ("SimConfig", "n_ladder", lambda n: SimConfig((n, 200), 10, 0, 0.2),
     100, 0, "n_ladder must hold blocklengths >= 1"),
    ("SimConfig", "trials", lambda t: SimConfig((10, 20), t, 0, 0.2),
     10, 0, "trials must be >= 1"),
    ("SimConfig", "master_seed", lambda s: SimConfig((10, 20), 10, s, 0.2),
     0, -1, "master_seed must be >= 0"),
    ("SimConfig", "workers", lambda w: SimConfig((10, 20), 10, 0, 0.2, workers=w),
     1, 0, "workers must be >= 1"),
    ("wilson_interval", "trials", lambda t: wilson_interval(0, t), 10, 0, "trials must be >= 1"),
    ("wilson_interval", "successes", lambda s: wilson_interval(s, 10), 3, -1,
     "successes must lie in [0, trials]"),
    ("run_trials", "trials", lambda t: run_trials(PROBLEM, None, SCHEME, 10, t, 0),
     10, 0, "trials must be >= 1"),
    ("run_trials", "workers", lambda w: run_trials(PROBLEM, None, SCHEME, 10, 10, 0, workers=w),
     1, 0, "workers must be >= 1"),
    ("run_trials", "seed", lambda s: run_trials(PROBLEM, None, SCHEME, 10, 10, s),
     0, -1, "seed must be >= 0"),
    ("importance_sample_beta", "trials",
     lambda t: importance_sample_beta(PROBLEM, None, SCHEME, 10, t, seed=0),
     10, 0, "trials must be >= 1"),
    ("importance_sample_beta", "workers",
     lambda w: importance_sample_beta(PROBLEM, None, SCHEME, 10, 10, seed=0, workers=w),
     1, 0, "workers must be >= 1"),
    ("importance_sample_beta", "seed",
     lambda s: importance_sample_beta(PROBLEM, None, SCHEME, 10, 10, seed=s),
     0, -1, "seed must be >= 0"),
    ("fit_exponent", "n", lambda n: fit_exponent([(n, 0.5), (20, 0.2), (30, 0.1)]),
     10, 0, "n must be >= 1"),
    ("min_kl_fixed_marginals", "max_iters",
     lambda m: min_kl_fixed_marginals(Q_222, CONS, max_iters=m),
     1000, 0, "max_iters must be >= 1"),
    ("brute_force_min_kl", "refine",
     lambda r: brute_force_min_kl(Q_222, CONS, 0.5, refine=r), 1, -1, "refine must be >= 0"),
]
IDS = [f"{site}-{field}" for site, field, *_ in SITES]


@pytest.mark.parametrize("site, field, call, valid, low, message", SITES, ids=IDS)
class TestCountParameters:
    def test_fraction_refused(self, site, field, call, valid, low, message):
        for fraction in (2.5, float(valid)):
            with pytest.raises(OutOfRange) as err:
                call(fraction)
            assert err.value.field == field
            assert str(err.value) == f"{field} must be an integer, got {fraction!r}"

    def test_below_least_refused(self, site, field, call, valid, low, message):
        with pytest.raises(OutOfRange) as err:
            call(low)
        assert err.value.field == field
        assert str(err.value) == message

    def test_numpy_integer_accepted(self, site, field, call, valid, low, message):
        call(np.int64(valid))


def test_numpy_integer_comes_back_as_int():
    n = _as_count("n", np.int64(7))
    assert n == 7 and type(n) is int
    assert type(SequenceType(np.array([3, 4]), np.int64(7)).n) is int
    assert type(cost_budget(CM, np.int64(100)).n) is int
    assert type(SimConfig((np.int64(10), 20), np.int64(5), 0, 0.2).trials) is int


def test_least_is_a_bound_of_its_own():
    assert _as_count("master_seed", 0, least=0) == 0
    with pytest.raises(OutOfRange, match="^workers must be >= 2$"):
        _as_count("workers", 1, least=2)
    with pytest.raises(OutOfRange, match="^n must be an integer, got '1'$"):
        _as_count("n", "1")
