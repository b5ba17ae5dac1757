import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import norm

from steinmac.channels import (
    BudgetLaw,
    ChannelClass,
    CostModel,
    Dmmac,
    GgMac,
    ToggleWitness,
    classify,
    cost_budget,
    find_markers,
    gg_channel_output,
    gg_constant,
    gg_dn_tail,
    gg_log_density,
    gg_ratio_bound,
    gg_sample,
    admissible,
    load_dmmac,
    parse_dmmac,
    toggle_predicate,
    verify_markers,
)
from steinmac.errors import (
    BlocklengthTooSmall,
    LengthMismatch,
    MarkerMismatch,
    NoMarkers,
    OutOfAlphabet,
    OutOfRange,
    ParseError,
)


def adder_kernel():
    """Binary adder with additive uniform {0,1} noise: Y = x1 + x2 + Z."""
    k = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            k[a, b, a + b] = 0.5
            k[a, b, a + b + 1] = 0.5
    return Dmmac(k)


def fading_kernel(s1_states, s2_states):
    """Y = S1*x1 + S2*x2 + Z over inputs {-1,1}, Z uniform on {0,1};
    output value y in {-2..3} is stored at index y+2."""
    k = np.zeros((2, 2, 6))
    inputs = (-1, 1)
    for i, x1 in enumerate(inputs):
        for j, x2 in enumerate(inputs):
            for s1 in s1_states:
                for s2 in s2_states:
                    for z in (0, 1):
                        y = s1 * x1 + s2 * x2 + z
                        k[i, j, y + 2] += 1.0 / (
                            len(s1_states) * len(s2_states) * 2
                        )
    return Dmmac(k)


class TestDmmac:
    def test_row_sums_validated(self):
        k = np.full((2, 2, 2), 0.5)
        k[0, 0, 0] = 0.6
        with pytest.raises(ValueError):
            Dmmac(k)

    def test_dims(self):
        assert adder_kernel().dims == (2, 2, 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_entry_named(self, value):
        k = np.full((2, 2, 2), 0.5)
        k[1, 0, 1] = value
        with pytest.raises(ValueError) as err:
            Dmmac(k)
        assert str(err.value) == "kernel entries must be finite and nonnegative"

    def test_off_unit_row_named(self):
        # the worst row is named, its index and sum as plain numbers
        k = np.full((2, 2, 2), 0.5)
        k[0, 1, 0] = 0.6
        k[1, 1, 1] = 0.55
        with pytest.raises(ValueError) as err:
            Dmmac(k)
        assert str(err.value) == "kernel row (0, 1) sums to 1.1, expected 1 within 1e-12"

    def test_toggle_matches_its_definition(self):
        # some output impossible under one of the sensor's inputs and
        # possible under another, with the partner's input held fixed
        rng = np.random.default_rng(5)
        for _ in range(200):
            shape = tuple(int(d) for d in rng.integers(1, 4, size=3))
            k = rng.random(shape) * (rng.random(shape) < 0.6)
            k[..., 0] += k.sum(axis=2) == 0
            ch = Dmmac(k / k.sum(axis=2, keepdims=True))
            for sensor, axis in ((1, 0), (2, 1)):
                want = (np.any(ch.kernel == 0, axis=axis)
                        & np.any(ch.kernel > 0, axis=axis)).any()
                assert toggle_predicate(ch, sensor) == want


class TestToggle:
    def test_all_positive_false(self):
        ch = Dmmac(np.full((2, 2, 2), 0.5))
        assert not toggle_predicate(ch, 1)
        assert not toggle_predicate(ch, 2)

    def test_adder_sensor1(self):
        # P(0|1,x2)=0 while P(0|0,0)>0
        assert toggle_predicate(adder_kernel(), 1)
        assert toggle_predicate(adder_kernel(), 2)

    def test_one_sided_dependence(self):
        k = np.zeros((2, 2, 2))
        k[0] = [[1.0, 0.0], [1.0, 0.0]]
        k[1] = [[0.5, 0.5], [0.5, 0.5]]
        ch = Dmmac(k)
        assert toggle_predicate(ch, 1)
        assert not toggle_predicate(ch, 2)


class TestClassify:
    def test_example_family_all_four(self):
        det = (1,)
        rand = (-1, 1)
        assert classify(fading_kernel(det, det)) is ChannelClass.SPARSE
        assert classify(fading_kernel(rand, rand)) is ChannelClass.FULL
        assert classify(fading_kernel(det, rand)) is ChannelClass.SPARSE_FULL
        assert classify(fading_kernel(rand, det)) is ChannelClass.FULL_SPARSE

    def test_strictly_positive_is_full(self):
        rng = np.random.default_rng(5)
        k = rng.random((3, 2, 4)) + 0.05
        k /= k.sum(axis=2, keepdims=True)
        assert classify(Dmmac(k)) is ChannelClass.FULL

    def test_random_kernels_get_exactly_one_class(self):
        rng = np.random.default_rng(99)
        labels = set()
        for _ in range(1000):
            dims = (rng.integers(2, 4), rng.integers(2, 4), rng.integers(2, 5))
            k = rng.random(dims)
            mask = rng.random(dims) < 0.35
            k[mask] = 0.0
            # keep every row a valid conditional law
            for a in range(dims[0]):
                for b in range(dims[1]):
                    if k[a, b].sum() == 0:
                        k[a, b, rng.integers(dims[2])] = 1.0
            k /= k.sum(axis=2, keepdims=True)
            cls = classify(Dmmac(k))
            assert cls in ChannelClass
            labels.add(cls)
        assert labels == set(ChannelClass)

    def test_full_class_is_positive_on_every_reachable_output(self):
        # no toggles in either direction: an output that some input pair
        # produces is produced by every input pair
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(400):
            dims = (2, 2, rng.integers(2, 4))
            k = rng.random(dims)
            mask = rng.random(dims) < 0.3
            k[mask] = 0.0
            for a in range(2):
                for b in range(2):
                    if k[a, b].sum() == 0:
                        k[a, b, rng.integers(dims[2])] = 1.0
            k /= k.sum(axis=2, keepdims=True)
            ch = Dmmac(k)
            if classify(ch) is ChannelClass.FULL:
                seen += 1
                reachable = ch.kernel.sum(axis=(0, 1)) > 0
                assert np.all(ch.kernel[:, :, reachable] > 0)
        assert seen > 0

    def test_dead_output_columns_change_nothing(self):
        # an output no input pair produces never toggles, wherever it sits
        for ch in (adder_kernel(), fading_kernel((1,), (-1, 1)),
                   fading_kernel((-1, 1), (1,)), Dmmac(np.full((2, 2, 2), 0.5))):
            cls = classify(ch)
            for at in (0, ch.dims[2]):
                padded = Dmmac(np.insert(ch.kernel, [at, at], 0.0, axis=2))
                assert classify(padded) is cls
            appended = Dmmac(np.concatenate([ch.kernel, np.zeros((2, 2, 3))], axis=2))
            if cls.signalling:
                assert find_markers(appended, cls) == find_markers(ch, cls)


def scan_witness(kernel, sensor):
    """The marker search as a plain scan: outputs first, then partner
    pilots, then the first input that makes the output impossible and the
    first that makes it possible."""
    n_own, n_partner = kernel.shape[sensor - 1], kernel.shape[2 - sensor]
    for y in range(kernel.shape[2]):
        for pilot in range(n_partner):
            col = [kernel[ToggleWitness.inputs(sensor, x, pilot)][y] for x in range(n_own)]
            off = next((x for x, v in enumerate(col) if v == 0), None)
            on = next((x for x, v in enumerate(col) if v > 0), None)
            if off is not None and on is not None:
                return ToggleWitness(off, on, pilot, y)
    return None


def pruned_class(kernel):
    """The class of the kernel once the outputs no input pair produces are
    removed: a sensor signals when the scan finds it a witness there."""
    live = kernel[:, :, kernel.sum(axis=(0, 1)) > 0]
    toggles = tuple(s for s in (1, 2) if scan_witness(live, s) is not None)
    return next(c for c in ChannelClass if c.signalling == toggles)


class TestToggleTable:
    """Classification and the marker search read one toggle table; here
    they are checked against a plain scan and against classifying the
    kernel with its dead outputs pruned."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
        dead=st.integers(0, 3),
        zero_frac=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scan_on_kernels_with_dead_outputs(self, dims, dead, zero_frac, seed):
        rng = np.random.default_rng(seed)
        live = rng.random(dims) * (rng.random(dims) >= zero_frac)
        live[..., 0] += live.sum(axis=2) == 0
        k = np.zeros(dims[:2] + (dims[2] + dead,))
        k[..., np.sort(rng.choice(dims[2] + dead, dims[2], replace=False))] = live
        ch = Dmmac(k / k.sum(axis=2, keepdims=True))

        cls = classify(ch)
        assert cls is pruned_class(ch.kernel)
        for sensor in (1, 2):
            want = scan_witness(ch.kernel, sensor)
            assert toggle_predicate(ch, sensor) == (want is not None)
            assert (want is not None) == (sensor in cls.signalling)
        if cls.signalling:
            markers = find_markers(ch, cls)
            for sensor in cls.signalling:
                got = markers.witness(sensor)
                assert got == scan_witness(ch.kernel, sensor)
                assert all(type(v) is int for v in dataclasses.astuple(got))


class TestMarkers:
    def test_adder_witness_matches_hand_enumeration(self):
        ch = adder_kernel()
        markers = find_markers(ch, ChannelClass.SPARSE)
        w1 = markers.sensor1
        assert (w1.off_input, w1.on_input, w1.partner_pilot, w1.marker_output) == (
            1, 0, 0, 0,
        )
        w2 = markers.sensor2
        assert (w2.off_input, w2.on_input, w2.partner_pilot, w2.marker_output) == (
            1, 0, 0, 0,
        )
        assert w1.marker_prob(ch, 1) == 0.5

    def test_full_channel_has_no_markers(self):
        ch = Dmmac(np.full((2, 2, 2), 0.5))
        with pytest.raises(NoMarkers):
            find_markers(ch, ChannelClass.FULL)

    def test_sparse_full_has_sensor1_witness_only(self):
        ch = fading_kernel((1,), (-1, 1))
        markers = find_markers(ch, ChannelClass.SPARSE_FULL)
        assert markers.sensor1 is not None
        assert markers.sensor2 is None
        assert markers.sensor1.holds_for(ch, 1)

    def test_witnesses_verify_against_kernel(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(300):
            dims = (2, 3, rng.integers(2, 5))
            k = rng.random(dims)
            k[rng.random(dims) < 0.4] = 0.0
            for a in range(dims[0]):
                for b in range(dims[1]):
                    if k[a, b].sum() == 0:
                        k[a, b, rng.integers(dims[2])] = 1.0
            k /= k.sum(axis=2, keepdims=True)
            ch = Dmmac(k)
            cls = classify(ch)
            if cls is ChannelClass.FULL:
                continue
            markers = find_markers(ch, cls)
            verify_markers(ch, markers)
            checked += 1
        assert checked > 50

    def test_verify_rejects_wrong_witness(self):
        ch = adder_kernel()
        markers = find_markers(ch, ChannelClass.SPARSE)
        wrong = type(markers)(
            sensor1=type(markers.sensor1)(
                off_input=0, on_input=1, partner_pilot=0, marker_output=0
            ),
            sensor2=markers.sensor2,
        )
        with pytest.raises(MarkerMismatch):
            verify_markers(ch, wrong)


class TestBudget:
    def test_sqrt_law_n100(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        b = cost_budget(cm, 100)
        assert (b.k_max1, b.k_max2, b.tau_max, b.k) == (10, 10, 40, 5)

    def test_sqrt_law_n4_still_valid(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        b = cost_budget(cm, 4)
        assert b.k_max1 == 2 and b.k == 1 and 2 * b.k < 4

    def test_log_law_too_small(self):
        law = BudgetLaw.log(1.0)
        cm = CostModel([0.0, 5.0], [0.0, 5.0], law, law)
        with pytest.raises(BlocklengthTooSmall):
            cost_budget(cm, 10)

    def test_two_k_at_most_kmax(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(2.0, 0.4))
        for n in (50, 500, 5000):
            b = cost_budget(cm, n)
            assert 2 * b.k <= min(b.k_max1, b.k_max2)

    def test_budget_law_validation(self):
        with pytest.raises(ValueError):
            BudgetLaw.power(0.0, 0.5)
        with pytest.raises(ValueError):
            BudgetLaw.power(1.0, 1.0)
        with pytest.raises(ValueError):
            BudgetLaw("affine", 1.0, 0.5)

    def test_cost_model_validation(self):
        law = BudgetLaw.power(1.0, 0.5)
        with pytest.raises(ValueError):
            CostModel([0.5, 1.0], [0.0, 1.0], law, law)
        with pytest.raises(ValueError):
            CostModel([0.0, 0.0], [0.0, 1.0], law, law)

    def test_nan_cost_refused(self):
        # cost_budget would divide the budget by a NaN least cost
        law = BudgetLaw.power(1.0, 0.5)
        with pytest.raises(ValueError, match="must be positive"):
            CostModel([0.0, math.nan], [0.0, 1.0], law, law)

    def test_admissible_refuses_fractional_symbols(self):
        # truncated to 0, 0.9 would cost nothing; rounded up, 100 of them
        # cost 100 against a budget of 10
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        with pytest.raises(OutOfAlphabet, match="integers"):
            admissible(np.full(100, 0.9), 1, cm, 100)
        assert admissible(np.zeros(100), 1, cm, 100)

    def test_admissible(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        n = 100  # budget 10, unit costs
        assert admissible(np.zeros(n, dtype=int), 1, cm, n)
        seq = np.zeros(n, dtype=int)
        seq[:10] = 1
        assert admissible(seq, 1, cm, n)
        seq[10] = 1
        assert not admissible(seq, 1, cm, n)


class TestGgDensity:
    def test_constants(self):
        assert gg_constant(2.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
        assert gg_constant(1.0) == pytest.approx(0.25, abs=1e-15)
        assert gg_constant(0.5) == pytest.approx(1 / 16, abs=1e-15)

    def test_density_integrates_to_one(self):
        for p in (0.5, 1.0, 2.0, 3.0):
            for sigma in (0.5, 1.0, 2.0):
                val, _ = quad(
                    lambda z: math.exp(gg_log_density(z, p, sigma)),
                    -np.inf,
                    np.inf,
                )
                assert val == pytest.approx(1.0, abs=1e-8), (p, sigma)

    def test_gaussian_reduction(self):
        for z in (0.0, 1.0, -1.0, 3.0, -3.0):
            assert gg_log_density(z, 2.0, 1.0) == pytest.approx(
                norm.logpdf(z), abs=1e-12
            )

    def test_laplace_form(self):
        for z in (0.0, 0.7, -2.5):
            assert gg_log_density(z, 1.0, 1.0) == pytest.approx(
                math.log(0.25) - abs(z) / 2, abs=1e-15
            )


class TestGgSampling:
    def test_reproducible(self):
        a = gg_sample(1.5, 1.0, 100, np.random.default_rng(3))
        b = gg_sample(1.5, 1.0, 100, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_moment_identity(self):
        # E|Z|^p = 2 sigma^p / p
        n = 200_000
        for p, sigma in ((1.0, 1.0), (2.0, 1.0), (0.5, 2.0)):
            z = gg_sample(p, sigma, n, np.random.default_rng(12))
            m = np.abs(z) ** p
            target = 2 * sigma**p / p
            se = m.std() / math.sqrt(n)
            assert abs(m.mean() - target) <= 5 * se, (p, sigma)

    def test_channel_output_additivity(self):
        mac = GgMac(2.0, 1.0, 1.5, -0.5)
        x1 = np.array([1.0, 0.0, 2.0])
        x2 = np.array([0.0, 1.0, 1.0])
        y = gg_channel_output(mac, x1, x2, np.random.default_rng(9))
        y0 = gg_channel_output(mac, 0 * x1, 0 * x2, np.random.default_rng(9))
        assert np.allclose(y - y0, mac.h1 * x1 + mac.h2 * x2, atol=1e-12)

    def test_channel_output_small_noise(self):
        mac = GgMac(2.0, 1e-6, 1.0, 1.0)
        y = gg_channel_output(
            mac, np.ones(100), np.ones(100), np.random.default_rng(4)
        )
        assert np.all(np.abs(y - 2.0) < 1e-3)

    def test_length_mismatch(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(LengthMismatch):
            gg_channel_output(mac, np.ones(3), np.ones(4), np.random.default_rng(0))


class TestGgRatioBound:
    def test_p_leq_1_closed_form(self):
        mac = GgMac(1.0, 1.0, 2.0, 3.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        n = 100
        res = gg_ratio_bound(mac, cm, n, delta=0.5)
        gamma = math.sqrt(n)
        expect = -(2**1.0) * (2.0 * gamma + 3.0 * gamma) / 1.0
        assert res.nu == math.inf
        assert res.log_ratio_lower_bound == pytest.approx(expect, rel=1e-12)

    def test_p_gt_1_closed_form(self):
        p, sigma, h1, h2, n, delta = 2.0, 1.0, 1.0, 1.0, 100, 0.5
        mac = GgMac(p, sigma, h1, h2)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        res = gg_ratio_bound(mac, cm, n, delta=delta)
        gamma = math.sqrt(n)
        s = abs(h1) ** p * gamma + abs(h2) ** p * gamma
        nu = 2 ** (2 * p - 2) * s + 2 ** (p - 1) * (n * 2 * sigma**p / p + delta * n)
        bound = -(2 ** (p - 2) * p / sigma**p) * (
            4 * 2**p * s + 2 * s ** (1 / p) * nu ** ((p - 1) / p)
        )
        assert res.nu == pytest.approx(nu, rel=1e-12)
        assert res.log_ratio_lower_bound == pytest.approx(bound, rel=1e-12)

    def test_bound_per_symbol_vanishes(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        rates = [
            abs(gg_ratio_bound(mac, cm, n, 0.5).log_ratio_lower_bound) / n
            for n in (10**2, 10**4, 10**6)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_empirical_log_ratio_respects_bound(self):
        p, sigma = 2.0, 1.0
        mac = GgMac(p, sigma, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        n = 64
        res = gg_ratio_bound(mac, cm, n, delta=0.5)
        rng = np.random.default_rng(123)
        gamma = cm.gamma(1, n)

        def admissible_inputs(count):
            x = rng.normal(size=(count, n))
            norms = (np.abs(x) ** p).sum(axis=1)
            scale = (gamma * rng.random(count) / norms) ** (1 / p)
            return x * scale[:, None]

        worst = math.inf
        for _ in range(10):
            x1 = admissible_inputs(100)
            x2 = admissible_inputs(100)
            y = rng.normal(scale=sigma, size=(100, n))
            ok = (np.abs(y) ** p).sum(axis=1) <= res.nu
            y = y[ok]
            if y.size == 0:
                continue
            for i in range(x1.shape[0]):
                shift = mac.h1 * x1[i] + mac.h2 * x2[i]
                lr = (
                    gg_log_density(y - shift, p, sigma).sum(axis=1)
                    - gg_log_density(y, p, sigma).sum(axis=1)
                )
                worst = min(worst, float(lr.min()))
        assert worst >= res.log_ratio_lower_bound

    def test_nan_delta_refused(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        with pytest.raises(ValueError, match="delta must be positive"):
            gg_ratio_bound(mac, cm, 100, math.nan)

    def test_helper_power_inequality(self):
        rng = np.random.default_rng(77)
        a = rng.normal(size=100_000) * 3
        b = rng.normal(size=100_000) * 3
        p = rng.uniform(0.1, 4.0, size=100_000)
        lhs = np.abs(a + b) ** p
        rhs = 2**p * (np.abs(a) ** p + np.abs(b) ** p)
        assert np.all(lhs <= rhs * (1 + 1e-12))


class TestGgTail:
    def test_p_leq_1_is_exactly_zero(self):
        mac = GgMac(1.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        assert gg_dn_tail(mac, cm, 100, 0.5, 1000, np.random.default_rng(0)) == 0.0

    def test_large_delta_never_exceeds(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        tail = gg_dn_tail(mac, cm, 100, 1e3, 1000, np.random.default_rng(1))
        assert tail == 0.0

    def test_matches_gamma_closed_form(self):
        # ||Z||_p^p / (2 sigma^p) is Gamma(n/p, 1), so the tail is the
        # regularized upper incomplete gamma function at nu / (2 sigma^p)
        mac = GgMac(1.1, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        n, trials = 8, 20_000
        nu = gg_ratio_bound(mac, cm, n, 0.05).nu
        exact = gammaincc(n / mac.p, nu / (2 * mac.sigma**mac.p))
        assert 1e-3 < exact < 0.5
        tail = gg_dn_tail(mac, cm, n, 0.05, trials, np.random.default_rng(3))
        assert abs(tail - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_nan_delta_refused(self):
        # a NaN nu would compare false against every draw: a tail of 0.0
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        with pytest.raises(ValueError, match="delta must be positive"):
            gg_dn_tail(mac, cm, 100, math.nan, 1000, np.random.default_rng(0))

    def test_trials_must_be_integer(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        with pytest.raises(OutOfRange, match="trials"):
            gg_dn_tail(mac, cm, 100, 0.5, 1000.0, np.random.default_rng(0))

    def test_in_unit_interval(self):
        mac = GgMac(3.0, 1.0, 1.0, 1.0)
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        tail = gg_dn_tail(mac, cm, 16, 0.01, 2000, np.random.default_rng(2))
        assert 0.0 <= tail <= 1.0


class TestParsing:
    def test_round_trip(self):
        text = """# adder
2 2 3
1 0 0
0 1 0
0 1 0
0 0 1
"""
        ch = parse_dmmac(text)
        assert ch.dims == (2, 2, 3)
        assert ch.kernel[1, 0, 1] == 1.0

    def test_comments_and_blanks_ignored(self):
        text = "2 2 2\n\n# first rows\n0.5 0.5\n0.5 0.5\n\n1 0\n0 1\n"
        assert parse_dmmac(text).dims == (2, 2, 2)

    def test_row_sum_tolerance_renormalized(self):
        text = "1 1 2\n0.5 0.5000000004\n"
        ch = parse_dmmac(text)
        assert ch.kernel.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_row_sum_names_line(self):
        text = "1 1 2\n0.5 0.6\n"
        with pytest.raises(ParseError) as err:
            parse_dmmac(text)
        assert "2" in str(err.value)
        assert err.value.line == 2
        assert str(err.value) == "2: row for (x1=0, x2=0) sums to 1.1, not 1"

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_dmmac("2 2 2\n0.5 x\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_dmmac("2 2 2\n0.5 0.5\n")

    def test_load_from_file(self, tmp_path):
        f = tmp_path / "k.txt"
        f.write_text("1 1 2\n0.25 0.75\n")
        assert load_dmmac(f).dims == (1, 1, 2)
        with pytest.raises(ParseError, match="cannot read kernel file"):
            load_dmmac(tmp_path / "missing.txt")

    def test_dims_as_integral_floats(self):
        # the dims rule problem files share: 2.0 is the alphabet size 2
        assert parse_dmmac("1.0 1 2e0\n0.25 0.75\n").dims == (1, 1, 2)
        for dims in ("1.5 1 2", "0 1 2", "inf 1 2", "1 1"):
            with pytest.raises(ParseError, match="dims line"):
                parse_dmmac(dims + "\n0.25 0.75\n")
