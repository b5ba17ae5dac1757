import csv
import io
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmac import schemes, simulate
from steinmac.channels import BudgetLaw, ChannelClass, CostModel, Dmmac, GgMac, find_markers
from steinmac.errors import (
    AbsoluteContinuityViolation,
    DegenerateFit,
    InstanceTooLarge,
    OutOfRange,
    ZeroTiltOnSupport,
)
from steinmac.prob import Joint3Pmf, Pmf, marginal, quantile_map
from steinmac.schemes import (
    Scheme,
    build_local_scheme,
    build_scheme_for_class,
    class_exponent,
    pinned_axes,
)
from steinmac.simulate import (
    LadderPoint,
    SimConfig,
    SimReport,
    TestProblem,
    default_tilt,
    exact_error_probs,
    fit_exponent,
    importance_sample_beta,
    run_ladder,
    run_trials,
    wilson_interval,
)
from steinmac.simulate import (
    _exact_accept_prob,
    _marker_shown,
    _read_flags,
    _read_plan,
)

# Joint source and sparse channel pair whose exact error probabilities were
# computed once by brute enumeration of all 8^8 trajectory tables and then
# frozen here.
P_JOINT = np.array(
    [[[0.10, 0.06], [0.12, 0.08]], [[0.20, 0.09], [0.23, 0.12]]]
)
Q_JOINT = np.array(
    [[[0.15, 0.10], [0.10, 0.05]], [[0.15, 0.10], [0.20, 0.15]]]
)
ALPHA_N8 = 0.8686963871738652
BETA_N8 = 0.13403004969375013


def sparse_channel():
    k = np.zeros((2, 2, 3))
    k[0, 0] = [0.6, 0.4, 0.0]
    k[0, 1] = [0.0, 0.7, 0.3]
    k[1, 0] = [0.0, 0.5, 0.5]
    k[1, 1] = [0.0, 0.1, 0.9]
    return Dmmac(k)


def criterion_09(ladder, trials, estimator="importance"):
    """Sparse adder channel, null uniform on u1 = 1, and an alternative with
    correlated (u2, v): the criterion-09 achievability instance."""
    p = np.zeros((2, 2, 2))
    p[1] = 0.25
    q23 = np.array([[0.35, 0.15], [0.15, 0.35]])
    problem = TestProblem(Joint3Pmf(p), Joint3Pmf(np.stack([0.5 * q23] * 2)))
    adder = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            adder[a, b, a + b : a + b + 2] = 0.5
    config = SimConfig(
        n_ladder=ladder, trials=trials, master_seed=7, mu=0.05,
        cost_model=CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5)),
        estimator=estimator,
    )
    return problem, Dmmac(adder), config


def sparse_fixture(n=8):
    problem = TestProblem(Joint3Pmf(P_JOINT), Joint3Pmf(Q_JOINT))
    ch = sparse_channel()
    cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
    scheme = build_scheme_for_class(ChannelClass.SPARSE, ch, P_JOINT, cm, n, 0.2)
    return problem, ch, cm, scheme


@pytest.fixture
def fresh_pools():
    """No block pool cached before or after the test: a stub executor a
    test installs does not outlive it."""
    simulate._pool.cache_clear()
    yield
    simulate._pool.cache_clear()


# a pooled call, a fork, and the same pooled call in the child, which must
# return the parent's estimate before a deadline; the usable cores are
# faked so that two workers build a pool on a one-core host too
FORK_AFTER_POOL = """
import os, sys, time
import numpy as np
from steinmac import simulate
from steinmac.channels import BudgetLaw, ChannelClass, CostModel, Dmmac
from steinmac.schemes import build_scheme_for_class
from steinmac.simulate import TestProblem, run_trials

os.sched_getaffinity = lambda pid: {0, 1}
p = np.array(%r)
ch = Dmmac(np.array(%r))
cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
scheme = build_scheme_for_class(ChannelClass.SPARSE, ch, p, cm, 8, 0.2)
problem = TestProblem(p, np.array(%r))
want = run_trials(problem, ch, scheme, 8, 3 * 2048, seed=5, workers=2)
assert simulate._pool.cache_info().currsize == 1
pid = os.fork()
if pid == 0:
    got = run_trials(problem, ch, scheme, 8, 3 * 2048, seed=5, workers=2)
    os._exit(0 if got == want else 3)
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child's pooled run_trials did not return")
""" % (P_JOINT.tolist(), sparse_channel().kernel.tolist(), Q_JOINT.tolist())


def fading_channel(s1_states, s2_states):
    """y = s1 x1 + s2 x2 + z over inputs {-1, 1}, fair states and z in {0, 1}:
    a deterministic gain keeps that sensor's toggle, a random one loses it."""
    k = np.zeros((2, 2, 6))
    for i, x1 in enumerate((-1, 1)):
        for j, x2 in enumerate((-1, 1)):
            for s1 in s1_states:
                for s2 in s2_states:
                    for z in (0, 1):
                        k[i, j, s1 * x1 + s2 * x2 + z + 2] += 1.0 / (
                            len(s1_states) * len(s2_states) * 2
                        )
    return Dmmac(k)


# one channel of each class; the full class runs the local scheme
CLASS_CHANNELS = {
    ChannelClass.SPARSE: sparse_channel(),
    ChannelClass.SPARSE_FULL: fading_channel((1,), (-1, 1)),
    ChannelClass.FULL_SPARSE: fading_channel((-1, 1), (1,)),
    ChannelClass.FULL: None,
}


def class_fixture(cls, p, q, n, mu):
    ch = CLASS_CHANNELS[cls]
    cm = CostModel.unit(2, 2, BudgetLaw.power(2.0, 0.5))
    scheme = build_scheme_for_class(cls, ch, p, cm, n, mu)
    return TestProblem(Joint3Pmf(p), Joint3Pmf(q)), ch, scheme


def per_sequence_accepts(joint, channel, scheme, u_src, u_marker):
    """The batch rule's reference, one trial at a time: encode each sensor's
    sequence, draw the channel output in every marker slot from the kernel
    row of that slot's inputs, and run Scheme.decide. Slots the rule never
    reads hold -1, which is no output symbol."""
    sensors = [s for s, on in ((1, scheme.signals1), (2, scheme.signals2)) if on]
    out = []
    for i in range(u_src.shape[0]):
        cells = quantile_map(joint.probs.ravel(), u_src[i])
        u1, u2, v = np.unravel_index(cells, joint.dims)
        x1, x2 = scheme.encode1(u1), scheme.encode2(u2)
        y = np.full(scheme.n, -1)
        for sensor, u in zip(sensors, u_marker):
            slots = range(scheme.n)[scheme._block(sensor)]
            for slot, uu in zip(slots, u[i]):
                row = channel.kernel[x1[slot], x2[slot]]
                y[slot] = quantile_map(row, np.array([uu]))[0]
        out.append(scheme.decide(y, v) == 0)
    return np.array(out)


def local_fixture(p_v, q_v, mu, n):
    p = np.asarray(p_v, dtype=float).reshape(1, 1, -1)
    q = np.asarray(q_v, dtype=float).reshape(1, 1, -1)
    problem = TestProblem(Joint3Pmf(p), Joint3Pmf(q))
    return problem, build_local_scheme(Pmf(p_v), mu, n)


class TestProblemValidation:
    def test_dims_must_match(self):
        p = Joint3Pmf(np.full((2, 2, 2), 0.125))
        q = Joint3Pmf(np.full((2, 2, 3), 1 / 12))
        with pytest.raises(ValueError, match="dims"):
            TestProblem(p, q)

    def test_null_must_be_dominated(self):
        p = np.full((1, 1, 2), 0.5)
        q = np.zeros((1, 1, 2))
        q[0, 0, 0] = 1.0
        with pytest.raises(AbsoluteContinuityViolation):
            TestProblem(Joint3Pmf(p), Joint3Pmf(q))

    def test_first_undominated_cell_named(self):
        # P charges 011 and 101 where Q has no mass; 011 comes first in
        # row-major order
        q = np.zeros((2, 2, 2))
        q[0, 0, 0] = q[1, 1, 1] = 0.5
        p = np.full((2, 2, 2), 0.0)
        p[0, 0, 0] = p[0, 1, 1] = p[1, 0, 1] = p[1, 1, 1] = 0.25
        with pytest.raises(AbsoluteContinuityViolation) as err:
            TestProblem(Joint3Pmf(p), Joint3Pmf(q))
        assert err.value.cell == (0, 1, 1)
        assert str(err.value) == "P > 0 but Q == 0 at cell (0, 1, 1)"


class TestWilson:
    def test_boundaries_are_exact(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 1
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and 0 < lo < 1

    def test_agrees_with_closed_form(self):
        z = 1.959963984540054
        for s, t in ((50, 100), (3, 17), (999, 1000)):
            lo, hi = wilson_interval(s, t)
            center = (s + z * z / 2) / (t + z * z)
            half = (
                z * math.sqrt(s * (t - s) / t + z * z / 4) / (t + z * z)
            )
            assert lo == pytest.approx(center - half, abs=1e-12)
            assert hi == pytest.approx(center + half, abs=1e-12)
            assert lo <= s / t <= hi

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestExactEnumeration:
    def test_frozen_sparse_instance(self):
        problem, ch, _, scheme = sparse_fixture()
        alpha, beta = exact_error_probs(problem, ch, scheme, 8)
        assert alpha == pytest.approx(ALPHA_N8, abs=1e-12)
        assert beta == pytest.approx(BETA_N8, abs=1e-12)

    def test_wide_window_accepts_everything(self):
        problem, scheme = local_fixture([0.5, 0.5], [0.3, 0.7], 0.9, 10)
        alpha, beta = exact_error_probs(problem, None, scheme, 10)
        assert alpha == 0.0
        # the multinomial weights sum to 1 only up to float rounding
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_single_sample_rejects_everything(self):
        problem, scheme = local_fixture([0.5, 0.5], [0.3, 0.7], 1e-9, 1)
        alpha, beta = exact_error_probs(problem, None, scheme, 1)
        assert alpha == 1.0
        assert beta == 0.0

    def test_degenerate_null_marginal(self):
        problem, scheme = local_fixture([0.0, 1.0], [0.55, 0.45], 0.2, 100)
        alpha, beta = exact_error_probs(problem, None, scheme, 100)
        assert alpha == 0.0
        assert beta == pytest.approx(0.45**100, rel=1e-12)

    def test_composition_count_capped(self):
        rng = np.random.default_rng(0)
        p_v = rng.random(30) + 0.1
        p_v /= p_v.sum()
        problem, scheme = local_fixture(p_v, p_v, 0.2, 1000)
        with pytest.raises(InstanceTooLarge):
            exact_error_probs(problem, None, scheme, 1000)

    def test_step_states_capped(self):
        # 400 003 padded lattice states pass the state cap, but 10**6 steps
        # over them would run for hours; the refusal comes before any work
        problem, scheme = local_fixture([0.8, 0.2], [0.8, 0.2], 0.2, 10**6)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match="step-state"):
            exact_error_probs(problem, None, scheme, 10**6)
        assert time.perf_counter() - start < 1.0

    def test_padded_lattice_capped_before_allocation(self):
        # two counted symbols capped at 1999: the 2000 x 2000 box of counts
        # is exactly the cap, its padded lattice of 2001 x 2001 states and
        # a 2002-state tail is past it; the refusal allocates nothing of the
        # 32 MB that lattice would take
        problem, scheme = local_fixture([0.4, 0.3, 0.3], [0.4, 0.3, 0.3], 0.1, 4998)
        assert simulate._MAX_STATES == 2000 * 2000
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLarge, match="4006003 padded lattice states"):
                exact_error_probs(problem, None, scheme, 4998)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_blocklength_must_match_scheme(self):
        problem, ch, _, scheme = sparse_fixture()
        with pytest.raises(ValueError, match="built for"):
            exact_error_probs(problem, ch, scheme, 9)


def criterion09_fixture():
    """Acceptance criterion 09's instance: under the null u1 is always 1 and
    (u2, v) is uniform; the alternative makes u1 uniform and correlates
    (u2, v). The adder channel gives both sensors a marker."""
    p = np.zeros((2, 2, 2))
    p[1] = 0.25
    q23 = np.array([[0.35, 0.15], [0.15, 0.35]])
    problem = TestProblem(Joint3Pmf(p), Joint3Pmf(np.stack([0.5 * q23] * 2)))
    adder = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            adder[a, b, a + b : a + b + 2] = 0.5
    cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
    return problem, Dmmac(adder), cm


def float_typical(counts, ref, mu, n):
    """Strong typicality as the float test on frequencies, per row of
    symbol counts (last axis): the reference the count intervals of
    `prob.typical_bounds` must reproduce."""
    within = np.all(np.abs(counts / n - ref.probs) <= mu, axis=-1)
    return within & np.all(counts[..., ref.probs == 0] == 0, axis=-1)


def enumerated_accept_prob(joint, scheme):
    """P(decide 0) by brute force over the joint types of the read axes:
    every multiset of n support cells, its multinomial weight, the
    typicality flag of each read axis and the marker factor."""
    n, axes = scheme.n, pinned_axes(scheme.cls)
    reduced = joint.sum(axis=tuple(a for a in range(3) if a not in axes))
    support = np.flatnonzero(reduced)
    probs = reduced.ravel()[support]
    symbols = np.unravel_index(support, reduced.shape)
    combos = np.array(
        list(itertools.combinations_with_replacement(range(support.size), n))
    )
    counts = np.zeros((len(combos), support.size), dtype=np.int64)
    for col in combos.T:
        counts[np.arange(len(combos)), col] += 1
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    weights = fact[n] / fact[counts].prod(axis=1) * (probs**counts).prod(axis=1)
    refs = {0: scheme.ref_u1, 1: scheme.ref_u2, 2: scheme.ref_v}
    acc = np.ones(len(combos))
    for pos, axis in enumerate(axes):
        onehot = np.eye(reduced.shape[pos], dtype=np.int64)[symbols[pos]]
        acc *= float_typical(counts @ onehot, refs[axis], scheme.mu, n)
    for on, p_marker in ((scheme.signals1, scheme.p_marker1),
                         (scheme.signals2, scheme.p_marker2)):
        if on:
            acc *= 1.0 - (1.0 - p_marker) ** scheme.k
    return float(weights @ acc)


def draw_pmf(data, size):
    """A pmf on `size` symbols, some of them of probability zero."""
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    w = np.array(data.draw(st.lists(weight, min_size=size, max_size=size)))
    if w.sum() == 0:
        w[data.draw(st.integers(0, size - 1))] = 1.0
    return w / w.sum()


class TestExactDpProperty:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_joint_type_enumeration(self, data):
        dims = tuple(data.draw(st.integers(1, d)) for d in (3, 3, 2))
        joint = draw_pmf(data, math.prod(dims)).reshape(dims)
        ref_u1, ref_u2, ref_v = (Pmf(draw_pmf(data, d)) for d in dims)
        scheme = Scheme(
            cls=data.draw(st.sampled_from(list(ChannelClass))),
            n=data.draw(st.integers(1, 7)),
            k=data.draw(st.integers(1, 3)),
            mu=data.draw(st.floats(0.05, 0.6)),
            ref_v=ref_v, ref_u1=ref_u1, ref_u2=ref_u2,
            p_marker1=data.draw(st.floats(0.05, 1.0)),
            p_marker2=data.draw(st.floats(0.05, 1.0)),
        )
        got = _exact_accept_prob(Joint3Pmf(joint), scheme)
        assert got == pytest.approx(enumerated_accept_prob(joint, scheme), abs=1e-12)


def binary_flag_prob(q1, ref, mu, n):
    """Pr(an axis is typical) when its n symbols are iid with Pr(1) = q1
    and the axis is binary: the binomial band of counts c of symbol 1 that
    pass the float test for both symbols, each term from lgamma in log
    space."""
    c = np.arange(n + 1)
    freqs = np.stack([(n - c) / n, c / n], axis=1)
    within = np.all(np.abs(freqs - ref.probs) <= mu, axis=1)
    within &= np.all(freqs[:, ref.probs == 0] == 0, axis=1)
    if q1 in (0.0, 1.0):
        return float(within[int(q1) * n])
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(q1) + (n - k) * math.log1p(-q1)
        for k in c[within].tolist()
    ]
    return math.fsum(math.exp(x) for x in log_pmf)


def product_accept_prob(marginals, scheme):
    """P(decide 0) under a source that is a product over the read axes,
    `marginals` each axis's Pr(symbol 1): the axes' count vectors are then
    independent, so this is the sum over flag patterns of the product of
    each axis's flag probability times the acceptance of the pattern."""
    axes = pinned_axes(scheme.cls)
    typical = {a: binary_flag_prob(marginals[a], scheme.ref(a), scheme.mu, scheme.n)
               for a in axes}
    total = 0.0
    for pattern in itertools.product((False, True), repeat=len(axes)):
        weight = math.prod(typical[a] if f else 1.0 - typical[a]
                           for a, f in zip(axes, pattern))
        total += weight * float(scheme.accept_weights(dict(zip(axes, pattern))))
    return total


def product_joint(*marginals):
    """The product joint of binary axes with the given Pr(symbol 1)."""
    return np.einsum("a,b,c->abc", *([1.0 - m, m] for m in marginals))


class TestExactAgainstProductOracle:
    # the README instance: uniform null against Q = (0.75, 0.25) on each
    # axis, the noisy sparse kernel, mu = 0.2
    @pytest.mark.parametrize("n", [32, 64])
    def test_readme_instance(self, n):
        p, q = (0.5, 0.5, 0.5), (0.25, 0.25, 0.25)
        problem = TestProblem(Joint3Pmf(product_joint(*p)), Joint3Pmf(product_joint(*q)))
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        scheme = build_scheme_for_class(ChannelClass.SPARSE, sparse_channel(),
                                        problem.p, cm, n, 0.2)
        alpha, beta = exact_error_probs(problem, None, scheme, n)
        assert 0 < beta < 0.05
        assert alpha == pytest.approx(1.0 - product_accept_prob(p, scheme), rel=1e-9)
        assert beta == pytest.approx(product_accept_prob(q, scheme), rel=1e-9)

    def test_sparse_null_with_point_mass_sensor(self):
        # u1 is always 1 under the null, so u1's symbol 0 has the typical
        # interval [0, 0] and no lattice dimension: every alternative
        # sequence that holds a 0 on u1 is rejected as it is drawn
        n, p, q = 200, (1.0, 0.5, 0.5), (0.5, 0.6, 0.7)
        problem = TestProblem(Joint3Pmf(product_joint(*p)), Joint3Pmf(product_joint(*q)))
        _, ch, cm = criterion09_fixture()
        scheme = build_scheme_for_class(ChannelClass.SPARSE, ch, problem.p, cm, n, 0.05)
        alpha, beta = exact_error_probs(problem, ch, scheme, n)
        assert 0 < beta < 0.5**n
        assert alpha == pytest.approx(1.0 - product_accept_prob(p, scheme), rel=1e-9)
        assert beta == pytest.approx(product_accept_prob(q, scheme), rel=1e-9)


class TestExactAtLadderScale:
    def test_importance_within_four_sigma_of_exact(self):
        problem, ch, cm = criterion09_fixture()
        base = dict(n_ladder=(100, 200), trials=8192, master_seed=7, mu=0.05,
                    cost_model=cm)
        exact = run_ladder(problem, ch, ChannelClass.SPARSE,
                           SimConfig(**base, estimator="exact"))
        sampled = run_ladder(problem, ch, ChannelClass.SPARSE,
                             SimConfig(**base, estimator="importance"))
        for ex, pt in zip(exact.points, sampled.points):
            assert 0 < ex.beta_hat < 1e-30
            assert abs(pt.beta_hat - ex.beta_hat) <= 4 * pt.beta_std_err

    def test_std_err_survives_variance_underflow(self):
        problem, ch, cm = criterion09_fixture()
        config = SimConfig(
            n_ladder=(800,), trials=4096, master_seed=7, mu=0.05,
            cost_model=cm, estimator="importance",
        )
        pt = run_ladder(problem, ch, ChannelClass.SPARSE, config).points[0]
        assert pt.beta_hat < 1e-200
        assert pt.beta_std_err > 0


class TestDirectMonteCarlo:
    def test_agrees_with_exact(self):
        problem, ch, _, scheme = sparse_fixture()
        trials = 20_000
        r = run_trials(problem, ch, scheme, 8, trials, seed=101)
        for hat, truth in ((r.alpha_hat, ALPHA_N8), (r.beta_hat, BETA_N8)):
            se = math.sqrt(truth * (1 - truth) / trials)
            assert abs(hat - truth) <= 4 * se
        assert r.alpha_lo <= r.alpha_hat <= r.alpha_hi
        assert r.beta_lo <= r.beta_hat <= r.beta_hi

    def test_returns_a_direct_ladder_rung(self):
        problem, ch, _, scheme = sparse_fixture()
        r = run_trials(problem, ch, scheme, 8, 100, seed=1, sides=("null",))
        assert isinstance(r, LadderPoint)
        assert (r.n, r.estimator, r.beta_std_err) == (8, "direct", None)
        assert math.isnan(r.beta_hat) and math.isnan(r.beta_lo)

    def test_coupled_hypotheses_sum_to_one_when_equal(self):
        p_v = [0.5, 0.5]
        problem, scheme = local_fixture(p_v, p_v, 0.2, 20)
        r = run_trials(problem, None, scheme, 20, 1000, seed=7)
        assert r.alpha_hat + r.beta_hat == 1.0

    def test_same_seed_same_answer(self):
        problem, ch, _, scheme = sparse_fixture()
        a = run_trials(problem, ch, scheme, 8, 3000, seed=(1, 2))
        b = run_trials(problem, ch, scheme, 8, 3000, seed=(1, 2))
        assert a == b

    def test_worker_count_does_not_change_estimates(self):
        problem, ch, _, scheme = sparse_fixture()
        a = run_trials(problem, ch, scheme, 8, 3000, seed=5, workers=1)
        b = run_trials(problem, ch, scheme, 8, 3000, seed=5, workers=4)
        assert a == b

    def test_pool_is_capped_at_usable_cores(self, monkeypatch, fresh_pools):
        pools = []

        class SerialPool:
            """Records the pool size and maps the blocks in this thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
        problem, ch, _, scheme = sparse_fixture()
        serial = run_trials(problem, ch, scheme, 8, 5 * 2048, seed=5)
        for cores, want in (({0, 1, 2}, [3]), ({0}, [])):
            pools.clear()
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: cores)
            pooled = run_trials(problem, ch, scheme, 8, 5 * 2048, seed=5, workers=64)
            assert pools == want
            assert pooled == serial

    def test_pool_is_built_once_per_process(self, monkeypatch, fresh_pools):
        built = []

        class CountedPool(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", CountedPool)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1})
        problem, ch, _, scheme = sparse_fixture()
        a = run_trials(problem, ch, scheme, 8, 3 * 2048, seed=5, workers=2)
        b = run_trials(problem, ch, scheme, 8, 3 * 2048, seed=5, workers=2)
        assert built == [2]
        assert a == b == run_trials(problem, ch, scheme, 8, 3 * 2048, seed=5)

    def test_concurrent_callers_share_the_pool(self, monkeypatch, fresh_pools):
        # more callers than cores map on one pool, with frequent thread
        # switches; each caller gets its own blocks back, in block order
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1})
        problem, ch, _, scheme = sparse_fixture()
        want = [run_trials(problem, ch, scheme, 8, 3 * 2048, seed=s) for s in range(4)]
        got = [None] * 4

        def call(s):
            got[s] = run_trials(problem, ch, scheme, 8, 3 * 2048, seed=s, workers=2)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(s,)) for s in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in callers)
        assert got == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self):
        # the child inherits the parent's executor without its threads; a
        # map on it would never return, so the child is killed at a deadline
        src_dir = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", FORK_AFTER_POOL],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_trials_must_be_integer(self):
        problem, ch, _, scheme = sparse_fixture()
        with pytest.raises(OutOfRange, match="trials"):
            run_trials(problem, ch, scheme, 8, 2.5, seed=0)

    def test_marker_coupling_sums_to_one_when_equal(self):
        problem, ch, _, scheme = sparse_fixture(n=12)
        same = TestProblem(problem.p, problem.p)
        r = run_trials(same, ch, scheme, 12, 5000, seed=3)
        assert r.alpha_hat + r.beta_hat == 1.0

    def test_local_scheme_draws_no_channel_output(self):
        problem, scheme = local_fixture([0.5, 0.5], [0.3, 0.7], 0.2, 20)
        a = run_trials(problem, None, scheme, 20, 3000, seed=4)
        b = run_trials(problem, GgMac(2.0, 1.0, 1.0, 1.0), scheme, 20, 3000, seed=4)
        assert a == b

    def test_marker_scheme_needs_a_kernel(self):
        problem, _, _, scheme = sparse_fixture()
        with pytest.raises(TypeError, match="discrete"):
            run_trials(problem, GgMac(2.0, 1.0, 1.0, 1.0), scheme, 8, 10, seed=0)

    def test_one_sided_run_reads_the_two_sided_draws(self):
        problem, ch, _, scheme = sparse_fixture(n=12)
        local, local_scheme = local_fixture([0.5, 0.5], [0.3, 0.7], 0.2, 20)
        for prob, chan, sch in ((problem, ch, scheme), (local, None, local_scheme)):
            both = run_trials(prob, chan, sch, sch.n, 5000, seed=9)
            null = run_trials(prob, chan, sch, sch.n, 5000, seed=9, sides=("null",))
            assert null.alpha_hat == both.alpha_hat
            assert (null.alpha_lo, null.alpha_hi) == (both.alpha_lo, both.alpha_hi)

    def test_block_memory_does_not_grow_with_n(self):
        # a whole (2048, 800) block of uniforms and cell indices is 26 MB
        problem, ch, _, scheme = sparse_fixture(n=800)
        tracemalloc.start()
        try:
            run_trials(problem, ch, scheme, 800, 2048, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_argument_validation(self):
        problem, ch, _, scheme = sparse_fixture()
        with pytest.raises(ValueError, match="built for"):
            run_trials(problem, ch, scheme, 9, 10, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_trials(problem, ch, scheme, 8, 0, seed=0)
        with pytest.raises(ValueError, match="sides"):
            run_trials(problem, ch, scheme, 8, 10, seed=0, sides=("weird",))


class TestSeededEstimatesPinned:
    """Seeded estimates frozen from the release before the block kernel
    summed axes by one product and tested marker presence by cdf interval.
    Moving one decision, or the order of the draws, changes them."""

    # n: (rejects under P, accepts under Q, beta_hat, std_err), 8192 trials
    CRITERION_09 = {
        100: (5096, 0, 3.117834196347051e-31, 4.0385854058332275e-33),
        800: (88, 0, 1.4857852926100943e-241, 1.577952558710124e-244),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", sorted(CRITERION_09))
    def test_criterion_09(self, n, workers):
        problem, ch, cm = criterion09_fixture()
        scheme = build_scheme_for_class(ChannelClass.SPARSE, ch, problem.p, cm, n, 0.05)
        rejects, accepts, beta_hat, std_err = self.CRITERION_09[n]
        r = run_trials(problem, ch, scheme, n, 8192, (7, n, 0), workers=workers)
        assert (r.alpha_hat * 8192, r.beta_hat * 8192) == (rejects, accepts)
        est = importance_sample_beta(problem, ch, scheme, n, 8192, seed=(7, n, 1),
                                     workers=workers)
        # the weights are BLAS dot products, whose last bits may differ
        # between builds; one moved trial moves beta_hat by far more
        assert est[0] == pytest.approx(beta_hat, rel=1e-9)
        assert est.std_err == pytest.approx(std_err, rel=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_both_sides_decide(self, workers):
        # criterion 09 accepts no trial under Q; the frozen instance does
        problem, ch, _, scheme = sparse_fixture(n=12)
        r = run_trials(problem, ch, scheme, 12, 8192, (7, 12, 0), workers=workers)
        assert (r.alpha_hat * 8192, r.beta_hat * 8192) == (6528, 1446)


class TestBatchRule:
    @pytest.mark.parametrize("cls", list(CLASS_CHANNELS), ids=lambda c: c.label)
    def test_matches_per_sequence_rule(self, cls):
        rng = np.random.default_rng(31)
        trials = 300
        outcomes = set()
        for n, mu in ((8, 0.15), (12, 0.2), (16, 0.25)):
            p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            q = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            problem, ch, scheme = class_fixture(cls, p, q, n, mu)
            u_src = rng.random((trials, n))
            # joint-cell counts of each row of the explicit sequences
            rows = np.arange(trials)[:, None] * 8
            u_marker = [
                rng.random((trials, scheme.k))
                for _ in range(int(scheme.signals1) + int(scheme.signals2))
            ]
            # the batch rule reads marker presence on the on input only; the
            # reference draws every slot from the row its real inputs select
            shown = []
            for sensor, u in zip(scheme.cls.signalling, u_marker):
                w = scheme.markers.witness(sensor)
                shown.append(_marker_shown(w.row(ch, sensor, w.on_input), w.marker_output, u))
            for joint in (problem.p, problem.q):
                cells = quantile_map(joint.probs.ravel(), u_src) + rows
                counts = np.bincount(cells.ravel(), minlength=trials * 8).reshape(trials, 8)
                flags = _read_flags(counts, _read_plan(joint.dims, scheme))
                batch = scheme.accept_weights(flags, shown)
                ref = per_sequence_accepts(joint, ch, scheme, u_src, u_marker)
                np.testing.assert_array_equal(batch, ref)
                outcomes.update(batch.tolist())
        assert outcomes == {True, False}


class TestBlockKernelProperty:
    """The block kernel's shortcuts against the operations they replace:
    per-axis symbol counts from one incidence product, typicality from
    per-symbol count intervals instead of the float test on frequencies,
    and marker presence from the marker output's cdf interval instead of an
    inverse-cdf map."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_read_flags_match_per_axis_sums(self, data):
        # axes of size one are common, so the local rule on (1, 1, K) joints,
        # whose plan is the identity, is drawn often
        size = st.one_of(st.just(1), st.integers(1, 3))
        dims = tuple(data.draw(size) for _ in range(3))
        scheme = Scheme(
            cls=data.draw(st.sampled_from(list(ChannelClass))),
            n=data.draw(st.integers(1, 60)),
            k=1,
            mu=data.draw(st.floats(0.02, 0.5)),
            ref_u1=Pmf(draw_pmf(data, dims[0])),
            ref_u2=Pmf(draw_pmf(data, dims[1])),
            ref_v=Pmf(draw_pmf(data, dims[2])),
            p_marker1=0.5,
            p_marker2=0.5,
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts = rng.multinomial(scheme.n, draw_pmf(data, math.prod(dims)), size=200)
        flags = _read_flags(counts, _read_plan(dims, scheme))
        assert sorted(flags) == sorted(pinned_axes(scheme.cls))
        for axis, got in flags.items():
            other = tuple(1 + a for a in range(3) if a != axis)
            per_axis = counts.reshape(-1, *dims).sum(axis=other)
            want = float_typical(per_axis, scheme.ref(axis), scheme.mu, scheme.n)
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_marker_interval_matches_inverse_cdf(self, data):
        row = draw_pmf(data, data.draw(st.integers(1, 6)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.random((300, data.draw(st.integers(1, 4))))
        # uniforms on the cdf's steps, where a half-open end decides
        steps = np.cumsum(row)
        steps = steps[steps < 1.0]
        u.flat[: steps.size] = steps
        zeros = np.flatnonzero(row == 0)
        markers = {0, row.size - 1, *zeros, *(zeros - 1), *(zeros + 1)} & set(range(row.size))
        for m in sorted(markers):
            want = (quantile_map(row, u) == m).any(axis=1)
            np.testing.assert_array_equal(_marker_shown(row, m, u), want)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(cls=st.sampled_from([c for c in ChannelClass if c.signalling]),
           seed=st.integers(0, 2**32 - 1))
    def test_off_input_never_shows_the_marker(self, cls, seed):
        ch = CLASS_CHANNELS[cls]
        u = np.random.default_rng(seed).random((500, 3))
        for sensor in cls.signalling:
            w = find_markers(ch, cls).witness(sensor)
            off = w.row(ch, sensor, w.off_input)
            u.flat[: off.size] = np.minimum(np.cumsum(off), np.nextafter(1.0, 0.0))
            assert not _marker_shown(off, w.marker_output, u).any()
            on = w.row(ch, sensor, w.on_input)
            assert _marker_shown(on, w.marker_output, u).any()


class TestDirectAgainstExactProperty:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        cells=st.lists(st.floats(0.05, 1.0), min_size=16, max_size=16),
        cls=st.sampled_from(list(CLASS_CHANNELS)),
        n=st.integers(6, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_direct_within_four_se_of_exact(self, cells, cls, n, seed):
        p = np.array(cells[:8]).reshape(2, 2, 2)
        q = np.array(cells[8:]).reshape(2, 2, 2)
        problem, ch, scheme = class_fixture(cls, p / p.sum(), q / q.sum(), n, 0.2)
        alpha, beta = exact_error_probs(problem, ch, scheme, n)
        trials = 4000
        r = run_trials(problem, ch, scheme, n, trials, seed=seed)
        for hat, truth in ((r.alpha_hat, alpha), (r.beta_hat, beta)):
            assert abs(hat - truth) <= 4 * math.sqrt(truth * (1 - truth) / trials)


class TestImportanceSampling:
    def test_unbiased_against_exact(self):
        problem, ch, _, scheme = sparse_fixture()
        beta_hat, var = importance_sample_beta(
            problem, ch, scheme, 8, 20_000, seed=13
        )
        assert abs(beta_hat - BETA_N8) <= 4 * math.sqrt(var)
        assert var > 0

    def test_alternative_as_tilt_recovers_plain_mc(self):
        problem, ch, _, scheme = sparse_fixture()
        beta_hat, var = importance_sample_beta(
            problem, ch, scheme, 8, 20_000, tilt=problem.q, seed=17
        )
        assert abs(beta_hat - BETA_N8) <= 4 * math.sqrt(var)

    def test_default_tilt_pins_null_marginals(self):
        problem, _, _, scheme = sparse_fixture()
        tilt = default_tilt(problem, scheme)
        for axis in (0, 1, 2):
            np.testing.assert_allclose(
                marginal(tilt.probs, axis).probs,
                marginal(P_JOINT, axis).probs,
                atol=1e-6,
            )

    def test_zero_tilt_on_live_support_rejected(self):
        problem, scheme = local_fixture([0.5, 0.5], [0.55, 0.45], 0.2, 20)
        tilt = Joint3Pmf(np.array([1.0, 0.0]).reshape(1, 1, 2))
        with pytest.raises(ZeroTiltOnSupport):
            importance_sample_beta(
                problem, None, scheme, 20, 100, tilt=tilt, seed=1
            )

    def test_zero_tilt_allowed_where_rejection_is_forced(self):
        problem, scheme = local_fixture([0.0, 1.0], [0.55, 0.45], 0.2, 100)
        tilt = Joint3Pmf(np.array([0.0, 1.0]).reshape(1, 1, 2))
        beta_hat, var = importance_sample_beta(
            problem, None, scheme, 100, 200, tilt=tilt, seed=3
        )
        assert beta_hat == pytest.approx(0.45**100, rel=1e-12)
        assert var == pytest.approx(0.0, abs=1e-250)

    def test_tilt_outside_alternative_support(self):
        # the tilt charges symbol 2, which Q never produces: a trial that
        # draws it has weight zero, and every other trial keeps its weight
        problem, scheme = local_fixture([0.5, 0.5, 0.0], [0.6, 0.4, 0.0], 0.2, 20)
        tilt = np.array([0.45, 0.45, 0.1]).reshape(1, 1, 3)
        est = importance_sample_beta(problem, None, scheme, 20, 20_000, tilt=tilt, seed=3)
        _, beta = exact_error_probs(problem, None, scheme, 20)
        assert beta == pytest.approx(0.8728, abs=1e-4)
        assert est.std_err > 0
        assert abs(est[0] - beta) <= 4 * est.std_err

    def test_std_err_is_root_of_variance(self):
        problem, ch, _, scheme = sparse_fixture()
        est = importance_sample_beta(problem, ch, scheme, 8, 3000, seed=19)
        assert est.std_err == pytest.approx(math.sqrt(est[1]), rel=1e-12)

    def test_interval_survives_variance_underflow(self):
        # criterion-09 instance: beta(800) is near 1e-241, so its variance
        # (near 1e-484) is below the smallest double while the SE is not
        problem, ch, config = criterion_09((800,), 4096)
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        pt = report.points[0]
        assert pt.beta_hat < 1e-200
        assert pt.beta_lo < pt.beta_hat < pt.beta_hi

    def test_seed_required(self):
        problem, ch, _, scheme = sparse_fixture()
        with pytest.raises(ValueError, match="seed"):
            importance_sample_beta(problem, ch, scheme, 8, 100)

    def test_trials_must_be_integer(self):
        problem, ch, _, scheme = sparse_fixture()
        with pytest.raises(OutOfRange, match="trials"):
            importance_sample_beta(problem, ch, scheme, 8, 2.5, seed=0)

    def test_worker_count_does_not_change_estimate(self):
        problem, ch, _, scheme = sparse_fixture()
        a = importance_sample_beta(problem, ch, scheme, 8, 3000, seed=9, workers=1)
        b = importance_sample_beta(problem, ch, scheme, 8, 3000, seed=9, workers=3)
        assert a == b

    def test_plain_array_tilt(self):
        problem, ch, _, scheme = sparse_fixture()
        a = importance_sample_beta(problem, ch, scheme, 8, 3000, tilt=Q_JOINT, seed=9)
        b = importance_sample_beta(problem, ch, scheme, 8, 3000, tilt=problem.q, seed=9)
        assert a == b

    def test_no_accepted_trial_gives_zero(self):
        # only the all-ones v sequence is typical, and sampling from Q
        # draws it with probability 0.45**100
        problem, scheme = local_fixture([0.0, 1.0], [0.55, 0.45], 0.2, 100)
        est = importance_sample_beta(problem, None, scheme, 100, 3000, tilt=problem.q, seed=5)
        assert tuple(est) == (0.0, 0.0)
        assert est.std_err == 0.0


    def test_ladder_solves_one_projection_and_keeps_the_default_tilt(self, monkeypatch):
        problem, ch, config = criterion_09((100, 200, 400), 512)
        solves = []
        solve = simulate.min_kl_fixed_marginals

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        for module in (schemes, simulate):
            monkeypatch.setattr(module, "min_kl_fixed_marginals", counted)
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        assert len(solves) == 1
        monkeypatch.undo()
        for pt in report.points:
            scheme = build_scheme_for_class(
                ChannelClass.SPARSE, ch, problem.p, config.cost_model, pt.n, config.mu
            )
            beta = importance_sample_beta(
                problem, ch, scheme, pt.n, config.trials, tilt=None,
                seed=(config.master_seed, pt.n, 1),
            )
            assert pt.beta_hat == beta[0]


class TestFitExponent:
    def test_recovers_synthetic_decay_exactly(self):
        t = 0.2
        pts = [(n, 3.0 * math.exp(-t * n)) for n in (10, 20, 30, 40)]
        assert fit_exponent(pts) == pytest.approx(t, abs=1e-12)

    def test_constant_factor_absorbed(self):
        t = 0.05
        for c in (1e-6, 1.0):
            pts = [(n, c * math.exp(-t * n)) for n in (20, 40, 60)]
            assert fit_exponent(pts) == pytest.approx(t, abs=1e-12)

    def test_tolerates_lognormal_noise(self):
        t = 0.3
        rng = np.random.default_rng(23)
        pts = [
            (n, math.exp(-t * n + 0.1 * rng.standard_normal()))
            for n in range(50, 110, 10)
        ]
        assert fit_exponent(pts) == pytest.approx(t, rel=0.10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3"):
            fit_exponent([(10, 0.5), (20, 0.25)])

    def test_rejects_improper_beta(self):
        with pytest.raises(ValueError, match="beta"):
            fit_exponent([(10, 0.5), (20, 1.25), (30, 0.1)])

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta"):
            fit_exponent([(10, 0.5), (20, math.nan), (30, 0.1)])

    def test_blocklength_must_be_integer(self):
        # a float blocklength is refused, not truncated to the n below it
        with pytest.raises(OutOfRange, match="n must be an integer"):
            fit_exponent([(10.7, 0.5), (20, 0.2), (30, 0.1)])

    def test_needs_two_distinct_blocklengths(self):
        # a slope through points at one n is not defined
        with pytest.raises(ValueError, match="distinct"):
            fit_exponent([(10, 0.5), (10, 0.25), (10, 0.1)])

    def test_zero_beta_degenerates_with_lower_bound(self):
        pts = [(10, math.exp(-1)), (20, math.exp(-2)), (30, 0.0)]
        with pytest.raises(DegenerateFit) as err:
            fit_exponent(pts)
        assert err.value.lower_bound == pytest.approx(0.1, abs=1e-12)

    def test_single_surviving_rung_bounds_by_its_own_decay(self):
        with pytest.raises(DegenerateFit) as err:
            fit_exponent([(10, 0.1), (20, 0.0), (30, 0.0)])
        assert err.value.lower_bound == pytest.approx(math.log(10) / 10, abs=1e-12)  # 0.2303

    def test_all_zero_beta_has_no_bound(self):
        with pytest.raises(DegenerateFit) as err:
            fit_exponent([(10, 0.0), (20, 0.0), (30, 0.0)])
        assert err.value.lower_bound is None


class TestSimConfig:
    def test_ladder_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SimConfig(n_ladder=(10, 10), trials=5, master_seed=0, mu=0.2)

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trials"):
            SimConfig(n_ladder=(10,), trials=0, master_seed=0, mu=0.2)

    def test_trials_must_be_integer(self):
        with pytest.raises(OutOfRange, match="trials"):
            SimConfig(n_ladder=(10,), trials=2.5, master_seed=0, mu=0.2)

    def test_master_seed_must_be_integer(self):
        with pytest.raises(OutOfRange, match="master_seed"):
            SimConfig(n_ladder=(10,), trials=5, master_seed=1.5, mu=0.2)

    def test_workers_must_be_integer(self):
        with pytest.raises(OutOfRange, match="workers"):
            SimConfig(n_ladder=(10,), trials=5, master_seed=0, mu=0.2, workers=1.5)

    def test_ladder_entries_must_be_integers(self):
        # a float blocklength is refused, not truncated
        with pytest.raises(OutOfRange, match="n_ladder"):
            SimConfig(n_ladder=(10.7, 20), trials=5, master_seed=0, mu=0.2)

    def test_numpy_integers_accepted(self):
        config = SimConfig(n_ladder=np.array([8, 12]), trials=np.int64(5),
                           master_seed=np.uint32(3), mu=0.2, workers=np.int8(2))
        values = (*config.n_ladder, config.trials, config.master_seed, config.workers)
        assert values == (8, 12, 5, 3, 2)
        assert all(type(v) is int for v in values)

    def test_estimator_names(self):
        with pytest.raises(ValueError, match="estimator"):
            SimConfig(
                n_ladder=(10,), trials=5, master_seed=0, mu=0.2, estimator="mc"
            )

    def test_mu_and_workers(self):
        with pytest.raises(ValueError, match="mu"):
            SimConfig(n_ladder=(10,), trials=5, master_seed=0, mu=1.5)
        with pytest.raises(ValueError, match="workers"):
            SimConfig(n_ladder=(10,), trials=5, master_seed=0, mu=0.2, workers=0)


class TestRunLadder:
    def test_exact_ladder_report(self):
        problem, ch, cm, _ = sparse_fixture()
        config = SimConfig(
            n_ladder=(8, 12, 16),
            trials=1,
            master_seed=5,
            mu=0.2,
            cost_model=cm,
            estimator="exact",
        )
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        assert report.points[0].alpha_hat == pytest.approx(ALPHA_N8, abs=1e-12)
        assert report.points[0].beta_hat == pytest.approx(BETA_N8, abs=1e-12)
        for pt in report.points:
            assert pt.alpha_lo == pt.alpha_hat == pt.alpha_hi
            assert pt.beta_lo == pt.beta_hat == pt.beta_hi
            assert pt.beta_std_err == 0.0
        assert report.fitted_exponent is not None
        assert report.theoretical_exponent == pytest.approx(
            class_exponent(ChannelClass.SPARSE, P_JOINT, Q_JOINT), abs=1e-12
        )

    def test_csv_schema(self):
        problem, ch, cm, _ = sparse_fixture()
        config = SimConfig(
            n_ladder=(8, 12, 16),
            trials=1,
            master_seed=5,
            mu=0.2,
            cost_model=cm,
            estimator="exact",
        )
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        text = report.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "n", "estimator",
            "alpha_hat", "alpha_lo", "alpha_hi",
            "beta_hat", "beta_lo", "beta_hi",
            "fitted_exponent", "theoretical_exponent", "seed",
        ]
        assert len(rows) == 4
        for row, n in zip(rows[1:], (8, 12, 16)):
            assert row[0] == str(n)
            assert row[1] == "exact"
            assert float(row[2]) == float(row[3]) == float(row[4])
            assert row[10] == "5"

    def test_csv_reproducible_across_runs_and_workers(self):
        problem, ch, cm, _ = sparse_fixture()
        base = dict(
            n_ladder=(8, 12), trials=3000, master_seed=42, mu=0.2,
            cost_model=cm, estimator="direct",
        )
        a = run_ladder(problem, ch, ChannelClass.SPARSE, SimConfig(**base))
        b = run_ladder(problem, ch, ChannelClass.SPARSE, SimConfig(**base))
        c = run_ladder(
            problem, ch, ChannelClass.SPARSE, SimConfig(**base, workers=4)
        )
        assert a.to_csv() == b.to_csv() == c.to_csv()

    def test_importance_ladder_has_variance_intervals(self):
        problem, ch, cm, _ = sparse_fixture()
        config = SimConfig(
            n_ladder=(8, 12, 16),
            trials=2000,
            master_seed=11,
            mu=0.2,
            cost_model=cm,
            estimator="importance",
        )
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        for pt in report.points:
            assert pt.beta_std_err is not None and pt.beta_std_err > 0
            assert pt.beta_lo <= pt.beta_hat <= pt.beta_hi
            assert 0.0 <= pt.alpha_hat <= 1.0

    def test_outrun_sampling_resolution_reports_nan_fit(self):
        p = np.array([0.0, 1.0]).reshape(1, 1, 2)
        q = np.array([0.55, 0.45]).reshape(1, 1, 2)
        problem = TestProblem(Joint3Pmf(p), Joint3Pmf(q))
        config = SimConfig(
            n_ladder=(50, 60, 70),
            trials=50,
            master_seed=2,
            mu=0.2,
            estimator="direct",
        )
        report = run_ladder(problem, None, ChannelClass.FULL, config)
        assert report.fitted_exponent is None
        assert all(pt.beta_hat == 0.0 for pt in report.points)
        lines = report.to_csv().splitlines()
        assert lines[1].split(",")[8] == "nan"

    def test_marker_class_on_gg_channel_refused(self):
        # the channel reaches the builder as given, which names what is wrong
        problem, _, cm, _ = sparse_fixture()
        config = SimConfig(n_ladder=(8, 12, 16), trials=1, master_seed=0, mu=0.2,
                           cost_model=cm, estimator="exact")
        with pytest.raises(TypeError, match="discrete channel kernel"):
            run_ladder(problem, GgMac(2.0, 1.0, 1.0, 1.0), ChannelClass.SPARSE, config)

    def test_short_ladder_skips_fit(self):
        problem, ch, cm, _ = sparse_fixture()
        config = SimConfig(
            n_ladder=(8, 12), trials=1, master_seed=0, mu=0.2,
            cost_model=cm, estimator="exact",
        )
        report = run_ladder(problem, ch, ChannelClass.SPARSE, config)
        assert report.fitted_exponent is None
