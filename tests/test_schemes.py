import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from steinmac import schemes
from steinmac.channels import (
    BudgetLaw,
    ChannelClass,
    CostBudget,
    CostModel,
    Dmmac,
    GgMac,
    MarkerSet,
    ToggleWitness,
    admissible,
    classify,
    cost_budget,
    find_markers,
)
from steinmac.errors import (
    BlocklengthTooSmall,
    CostBudgetExceeded,
    LengthMismatch,
    MarkerMismatch,
    OutOfRange,
)
from steinmac.exponents import local_stein_exponent
from steinmac.prob import Pmf, kl_divergence, marginal
from steinmac.schemes import (
    RandomizedDecider,
    Scheme,
    build_local_scheme,
    build_marker_scheme,
    build_scheme_for_class,
    class_exponent,
    class_projection,
    derandomize,
    gamma_schedule,
)
from steinmac.simulate import TestProblem, exact_error_probs


def noisy_sparse_kernel():
    k = np.zeros((2, 2, 3))
    k[0, 0] = [0.6, 0.4, 0.0]
    k[0, 1] = [0.0, 0.7, 0.3]
    k[1, 0] = [0.0, 0.5, 0.5]
    k[1, 1] = [0.0, 0.1, 0.9]
    return Dmmac(k)


def full_kernel():
    return Dmmac(np.full((2, 2, 2), 0.5))


def hand_scheme(cls, k=2, n=10):
    """Witness symbols chosen pairwise distinct so slicing mistakes show."""
    w1 = ToggleWitness(off_input=2, on_input=1, partner_pilot=3, marker_output=7)
    w2 = ToggleWitness(off_input=5, on_input=4, partner_pilot=6, marker_output=8)
    markers = {
        ChannelClass.SPARSE: MarkerSet(w1, w2),
        ChannelClass.SPARSE_FULL: MarkerSet(w1, None),
        ChannelClass.FULL_SPARSE: MarkerSet(None, w2),
    }[cls]
    half = Pmf([0.5, 0.5])
    return Scheme(
        cls=cls,
        n=n,
        k=k,
        mu=0.2,
        ref_v=half,
        ref_u1=half,
        ref_u2=half,
        markers=markers,
        p_marker1=0.6,
        p_marker2=0.3,
    )


TYPICAL = np.array([0, 1] * 5)
ATYPICAL = np.zeros(10, dtype=int)


class TestSchemeFields:
    @pytest.mark.parametrize("cls, missing", [
        (ChannelClass.SPARSE, "ref_u1"),
        (ChannelClass.SPARSE, "ref_u2"),
        (ChannelClass.SPARSE_FULL, "ref_u1"),
        (ChannelClass.FULL_SPARSE, "ref_u2"),
        (ChannelClass.FULL, "ref_v"),
    ])
    def test_read_axis_needs_its_reference(self, cls, missing):
        refs = {"ref_u1": Pmf([0.5, 0.5]), "ref_u2": Pmf([0.5, 0.5]),
                "ref_v": Pmf([0.5, 0.5]), missing: None}
        with pytest.raises(ValueError, match=missing):
            Scheme(cls=cls, n=10, k=1, mu=0.2, p_marker1=0.5, p_marker2=0.5, **refs)

    @pytest.mark.parametrize("cls, field, value", [
        (ChannelClass.SPARSE, "p_marker2", None),
        (ChannelClass.SPARSE, "p_marker1", None),
        (ChannelClass.SPARSE, "p_marker1", 1.5),
        (ChannelClass.SPARSE, "p_marker2", -1.0),
        (ChannelClass.SPARSE_FULL, "p_marker1", 0.0),
        (ChannelClass.SPARSE_FULL, "p_marker1", float("nan")),
        (ChannelClass.FULL_SPARSE, "p_marker2", None),
    ])
    def test_signalling_sensor_needs_its_marker_probability(self, cls, field, value):
        half = Pmf([0.5, 0.5])
        probs = {"p_marker1": 0.5, "p_marker2": 0.5, field: value}
        with pytest.raises(ValueError, match=field):
            Scheme(cls=cls, n=10, k=1, mu=0.2, ref_v=half, ref_u1=half, ref_u2=half,
                   **probs)

    def test_silent_sensor_needs_no_marker_probability(self):
        half = Pmf([0.5, 0.5])
        Scheme(cls=ChannelClass.SPARSE_FULL, n=10, k=1, mu=0.2, ref_v=half,
               ref_u1=half, p_marker1=1.0)
        Scheme(cls=ChannelClass.FULL, n=10, k=0, mu=0.2, ref_v=half)


def sparse_scheme():
    return build_scheme_for_class(
        ChannelClass.SPARSE, noisy_sparse_kernel(), np.full((2, 2, 2), 0.125),
        CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5)), 100, 0.2,
    )


class TestSchemeChecksNAndMu:
    """A Scheme built by hand or moved with dataclasses.replace checks its
    own blocklength and window, as the builders do."""

    @pytest.mark.parametrize("n", [0, -3, 10.0, np.float64(10)], ids=repr)
    def test_n_must_be_a_count(self, n):
        with pytest.raises(OutOfRange) as err:
            Scheme(cls=ChannelClass.FULL, n=n, k=0, mu=0.2, ref_v=Pmf([0.5, 0.5]))
        assert err.value.field == "n"
        with pytest.raises(OutOfRange) as err:
            dataclasses.replace(sparse_scheme(), n=n)
        assert err.value.field == "n"

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.1, 1.5, math.nan], ids=repr)
    def test_mu_must_lie_in_the_open_unit_interval(self, mu):
        with pytest.raises(ValueError) as err:
            Scheme(cls=ChannelClass.FULL, n=10, k=0, mu=mu, ref_v=Pmf([0.5, 0.5]))
        assert str(err.value) == "mu must lie in (0, 1)"
        with pytest.raises(ValueError) as err:
            dataclasses.replace(sparse_scheme(), mu=mu)
        assert str(err.value) == "mu must lie in (0, 1)"

    def test_numpy_count_stored_as_int(self):
        s = Scheme(cls=ChannelClass.FULL, n=np.int64(16), k=0, mu=0.2, ref_v=Pmf([0.5, 0.5]))
        assert s.n == 16 and type(s.n) is int
        moved = dataclasses.replace(sparse_scheme(), n=np.int64(16))
        assert moved.n == 16 and type(moved.n) is int


class TestSchemeChecksK:
    """k is a count: at least 1 where a sensor signals, at least 0 for the
    full class, whose rule sends no block (the exact-DP property tests
    build full-class schemes with k >= 1 as plain containers)."""

    @pytest.mark.parametrize("k, message", [
        (-1, "k must be >= 0"), (2.5, "k must be an integer, got 2.5"),
    ], ids=repr)
    def test_full_class_k_is_a_count(self, k, message):
        with pytest.raises(OutOfRange) as err:
            Scheme(cls=ChannelClass.FULL, n=10, k=k, mu=0.2, ref_v=Pmf([0.5, 0.5]))
        assert (err.value.field, str(err.value)) == ("k", message)
        with pytest.raises(OutOfRange) as err:
            dataclasses.replace(build_local_scheme(Pmf([0.5, 0.5]), 0.2, 10), k=k)
        assert (err.value.field, str(err.value)) == ("k", message)

    @pytest.mark.parametrize("k, message", [
        (0, "k must be >= 1"), (-1, "k must be >= 1"), (2.5, "k must be an integer, got 2.5"),
    ], ids=repr)
    @pytest.mark.parametrize("cls", [
        ChannelClass.SPARSE, ChannelClass.SPARSE_FULL, ChannelClass.FULL_SPARSE,
    ])
    def test_signalling_class_needs_k_at_least_one(self, cls, k, message):
        with pytest.raises(OutOfRange) as err:
            hand_scheme(cls, k=k)
        assert (err.value.field, str(err.value)) == ("k", message)
        with pytest.raises(OutOfRange) as err:
            dataclasses.replace(sparse_scheme(), k=k)
        assert (err.value.field, str(err.value)) == ("k", message)

    def test_numpy_count_stored_as_int(self):
        moved = dataclasses.replace(sparse_scheme(), k=np.int64(3))
        assert moved.k == 3 and type(moved.k) is int
        full = Scheme(cls=ChannelClass.FULL, n=10, k=2, mu=0.2, ref_v=Pmf([0.5, 0.5]))
        assert full.k == 2


class TestEncoders:
    def test_sparse_layout(self):
        s = hand_scheme(ChannelClass.SPARSE)
        x1 = s.encode1(TYPICAL)
        assert list(x1[:2]) == [1, 1]      # own on-symbol
        assert list(x1[2:4]) == [6, 6]     # partner pilot for sensor 2
        assert not x1[4:].any()
        assert list(s.encode1(ATYPICAL)[:2]) == [2, 2]
        x2 = s.encode2(TYPICAL)
        assert list(x2[:2]) == [3, 3]      # pilot while sensor 1 signals
        assert list(x2[2:4]) == [4, 4]
        assert not x2[4:].any()
        assert list(s.encode2(ATYPICAL)[2:4]) == [5, 5]

    def test_sparse_full_layout(self):
        s = hand_scheme(ChannelClass.SPARSE_FULL)
        x1 = s.encode1(TYPICAL)
        assert list(x1[:2]) == [1, 1]
        assert not x1[2:].any()
        x2 = s.encode2(ATYPICAL)
        # sensor 2 never checks typicality here, it only holds the pilot
        assert list(x2[:2]) == [3, 3]
        assert not x2[2:].any()

    def test_full_sparse_layout(self):
        s = hand_scheme(ChannelClass.FULL_SPARSE)
        x2 = s.encode2(TYPICAL)
        assert list(x2[:2]) == [4, 4]
        assert not x2[2:].any()
        x1 = s.encode1(ATYPICAL)
        assert list(x1[:2]) == [6, 6]
        assert not x1[2:].any()

    def test_length_checked(self):
        s = hand_scheme(ChannelClass.SPARSE)
        with pytest.raises(LengthMismatch):
            s.encode1(np.zeros(9, dtype=int))


class TestDecision:
    def test_accepts_when_both_markers_land(self):
        s = hand_scheme(ChannelClass.SPARSE)
        y = np.zeros(10, dtype=int)
        y[1] = 7
        y[2] = 8
        assert s.decide(y, TYPICAL) == 0

    def test_rejects_on_missing_marker_either_block(self):
        s = hand_scheme(ChannelClass.SPARSE)
        y = np.zeros(10, dtype=int)
        y[1] = 7
        assert s.decide(y, TYPICAL) == 1
        y = np.zeros(10, dtype=int)
        y[3] = 8
        assert s.decide(y, TYPICAL) == 1

    def test_marker_outside_block_does_not_count(self):
        s = hand_scheme(ChannelClass.SPARSE)
        y = np.zeros(10, dtype=int)
        y[5] = 7
        y[6] = 8
        assert s.decide(y, TYPICAL) == 1

    def test_rejects_atypical_side_information(self):
        s = hand_scheme(ChannelClass.SPARSE)
        y = np.zeros(10, dtype=int)
        y[0] = 7
        y[2] = 8
        assert s.decide(y, ATYPICAL) == 1

    def test_single_signal_classes_use_first_block(self):
        s = hand_scheme(ChannelClass.FULL_SPARSE)
        y = np.zeros(10, dtype=int)
        y[0] = 8
        assert s.decide(y, TYPICAL) == 0
        y = np.zeros(10, dtype=int)
        y[2] = 8
        assert s.decide(y, TYPICAL) == 1

    def test_local_scheme_ignores_channel_output(self):
        s = build_local_scheme(Pmf([0.5, 0.5]), 0.2, 10)
        y = np.arange(10)
        assert s.decide(y, TYPICAL) == 0
        assert s.decide(y, ATYPICAL) == 1

    def test_length_checked(self):
        s = hand_scheme(ChannelClass.SPARSE)
        with pytest.raises(LengthMismatch):
            s.decide(np.zeros(9, dtype=int), TYPICAL)


class TestAcceptProbGivenFlags:
    def test_sparse_products(self):
        s = hand_scheme(ChannelClass.SPARSE, k=1)
        assert s.accept_weights({0: True, 1: True, 2: True}) == pytest.approx(
            0.6 * 0.3, abs=1e-15
        )
        assert s.accept_weights({0: False, 1: True, 2: True}) == 0.0
        assert s.accept_weights({0: True, 1: False, 2: True}) == 0.0
        assert s.accept_weights({0: True, 1: True, 2: False}) == 0.0

    def test_block_length_compounds(self):
        s = hand_scheme(ChannelClass.SPARSE_FULL, k=2)
        assert s.accept_weights({0: True, 1: False, 2: True}) == pytest.approx(
            1 - 0.4**2, abs=1e-15
        )

    def test_local_is_indicator_of_t3(self):
        s = build_local_scheme(Pmf([0.5, 0.5]), 0.2, 10)
        assert s.accept_weights({0: False, 1: False, 2: True}) == 1.0
        assert s.accept_weights({0: True, 1: True, 2: False}) == 0.0

    @pytest.mark.parametrize("cls", list(ChannelClass), ids=lambda c: c.label)
    def test_drawn_hits_give_the_boolean_rule(self, cls):
        # with 0/1 marker outcomes the weight is the decision itself: every
        # read flag passes and every signalling sensor's marker shows
        s = (hand_scheme(cls) if cls.signalling
             else build_local_scheme(Pmf([0.5, 0.5]), 0.2, 10))
        patterns = list(itertools.product((False, True), repeat=3 + len(cls.signalling)))
        for pattern in patterns:
            flags, hits = dict(enumerate(pattern[:3])), pattern[3:]
            want = flags[2] and all(flags[sensor - 1] and hit
                                    for sensor, hit in zip(cls.signalling, hits))
            assert s.accept_weights(flags, hits) == float(want)
        # the same patterns as the columns of one batch, hits as arrays
        cols = np.array(patterns).T
        batch = s.accept_weights(dict(enumerate(cols[:3])), list(cols[3:]))
        want = cols[2] & np.all([cols[sensor - 1] & hit
                                 for sensor, hit in zip(cls.signalling, cols[3:])], axis=0)
        np.testing.assert_array_equal(batch, want.astype(float))


class TestBuilders:
    def setup_method(self):
        self.cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        self.ch = noisy_sparse_kernel()
        self.markers = find_markers(self.ch, ChannelClass.SPARSE)
        self.budget = cost_budget(self.cm, 100)
        self.half = Pmf([0.5, 0.5])

    def test_sparse_happy_path(self):
        s = build_marker_scheme(
            self.ch, self.markers, self.budget, 0.2, self.half, self.half, self.half
        )
        assert s.cls is ChannelClass.SPARSE
        assert s.n == 100 and s.k == 5
        assert s.p_marker1 == pytest.approx(0.6)
        assert s.p_marker2 == pytest.approx(0.6)

    def test_class_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classifies as"):
            build_marker_scheme(
                full_kernel(),
                self.markers,
                self.budget,
                0.2,
                self.half,
                self.half,
                self.half,
            )
        with pytest.raises(ValueError, match="classifies as"):
            build_scheme_for_class(
                ChannelClass.SPARSE_FULL, self.ch, np.full((2, 2, 2), 0.125),
                self.cm, 100, 0.2,
            )

    def test_missing_witness_rejected(self):
        lone = MarkerSet(self.markers.sensor1, None)
        with pytest.raises(MarkerMismatch):
            build_marker_scheme(
                self.ch, lone, self.budget, 0.2, self.half, self.half, self.half
            )

    def test_stale_witness_rejected(self):
        bad = MarkerSet(
            ToggleWitness(0, 1, 0, 0),
            self.markers.sensor2,
        )
        with pytest.raises(MarkerMismatch):
            build_marker_scheme(
                self.ch, bad, self.budget, 0.2, self.half, self.half, self.half
            )

    def test_degenerate_budget_rejected(self):
        bad = CostBudget(n=100, k_max1=1, k_max2=1, tau_max=4, k=0)
        with pytest.raises(BlocklengthTooSmall):
            build_marker_scheme(
                self.ch, self.markers, bad, 0.2, self.half, self.half, self.half
            )
        cramped = CostBudget(n=10, k_max1=10, k_max2=10, tau_max=40, k=5)
        with pytest.raises(BlocklengthTooSmall):
            build_marker_scheme(
                self.ch, self.markers, cramped, 0.2, self.half, self.half, self.half
            )

    def test_mu_bounds(self):
        for mu in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="mu"):
                build_local_scheme(self.half, mu, 10)
            with pytest.raises(ValueError, match="mu"):
                build_marker_scheme(
                    self.ch,
                    self.markers,
                    self.budget,
                    mu,
                    self.half,
                    self.half,
                    self.half,
                )

    def test_mirror_builders(self):
        det = (1,)
        rand = (-1, 1)
        sf = _fading(det, rand)
        fs = _fading(rand, det)
        m_sf = find_markers(sf, ChannelClass.SPARSE_FULL)
        m_fs = find_markers(fs, ChannelClass.FULL_SPARSE)
        s1 = build_marker_scheme(
            sf, m_sf, self.budget, 0.2, self.half, self.half, self.half
        )
        assert s1.cls is ChannelClass.SPARSE_FULL
        assert s1.signals1 and not s1.signals2
        assert s1.p_marker2 is None and s1.ref_u2 is None
        s2 = build_marker_scheme(
            fs, m_fs, self.budget, 0.2, self.half, self.half, self.half
        )
        assert s2.cls is ChannelClass.FULL_SPARSE
        assert s2.signals2 and not s2.signals1
        assert s2.p_marker1 is None and s2.ref_u1 is None


def _fading(s1_states, s2_states):
    k = np.zeros((2, 2, 6))
    for i, x1 in enumerate((-1, 1)):
        for j, x2 in enumerate((-1, 1)):
            for s1 in s1_states:
                for s2 in s2_states:
                    for z in (0, 1):
                        y = s1 * x1 + s2 * x2 + z
                        k[i, j, y + 2] += 1.0 / (
                            len(s1_states) * len(s2_states) * 2
                        )
    return Dmmac(k)


class TestBuildForClass:
    def setup_method(self):
        rng = np.random.default_rng(8)
        p = rng.random((2, 2, 2))
        self.p = p / p.sum()
        self.cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))

    def test_full_needs_no_channel(self):
        s = build_scheme_for_class(ChannelClass.FULL, None, self.p, None, 50, 0.2)
        assert s.k == 0 and s.cls is ChannelClass.FULL

    def test_marker_class_needs_channel_and_costs(self):
        with pytest.raises(ValueError, match="cost model"):
            build_scheme_for_class(
                ChannelClass.SPARSE, None, self.p, None, 100, 0.2
            )

    def test_continuous_channel_rejected(self):
        mac = GgMac(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(TypeError, match="discrete"):
            build_scheme_for_class(
                ChannelClass.SPARSE, mac, self.p, self.cm, 100, 0.2
            )

    def test_class_checked_before_markers(self):
        # the sparse_full kernel has no sensor-2 witness, so a class check
        # after find_markers would surface as NoMarkers
        with pytest.raises(
            ValueError, match="channel classifies as sparse_full, scheme needs sparse"
        ):
            build_scheme_for_class(
                ChannelClass.SPARSE, _fading((1,), (-1, 1)), self.p, self.cm, 100, 0.2
            )

    def test_cost_table_size_checked(self):
        cm = CostModel.unit(3, 2, BudgetLaw.power(1.0, 0.5))
        with pytest.raises(ValueError, match="alphabet"):
            build_scheme_for_class(
                ChannelClass.SPARSE, noisy_sparse_kernel(), self.p, cm, 100, 0.2
            )

    def test_expensive_marker_symbols_rejected(self):
        # witnesses force symbol 2 whose cost dwarfs the budget arithmetic,
        # which only ever counted the cheapest nonzero symbol
        k = np.zeros((3, 2, 2))
        k[0, 0] = [0.5, 0.5]
        k[1, 0] = [0.6, 0.4]
        k[2, 0] = [0.0, 1.0]
        k[0, 1] = [0.5, 0.5]
        k[1, 1] = [0.5, 0.5]
        k[2, 1] = [0.3, 0.7]
        ch = Dmmac(k)
        law = BudgetLaw.power(1.0, 0.5)
        cm = CostModel([0.0, 1.0, 100.0], [0.0, 1.0], law, law)
        with pytest.raises(CostBudgetExceeded):
            build_scheme_for_class(ChannelClass.SPARSE, ch, self.p, cm, 100, 0.2)

    def test_builds_only_the_marginals_the_class_reads(self, monkeypatch):
        axes = []
        take = schemes.marginal

        def counted(joint, axis):
            axes.append(axis)
            return take(joint, axis)

        monkeypatch.setattr(schemes, "marginal", counted)
        full = build_scheme_for_class(ChannelClass.FULL, None, self.p, None, 50, 0.2)
        assert axes == [2] and full.ref_u1 is None and full.ref_u2 is None
        axes.clear()
        sparse_full = build_scheme_for_class(
            ChannelClass.SPARSE_FULL, _fading((1,), (-1, 1)), self.p, self.cm, 100, 0.2
        )
        assert axes == [0, 2] and sparse_full.ref_u2 is None
        assert np.array_equal(sparse_full.ref_u1.probs, marginal(self.p, 0).probs)

    def test_sparse_end_to_end(self):
        s = build_scheme_for_class(
            ChannelClass.SPARSE, noisy_sparse_kernel(), self.p, self.cm, 100, 0.2
        )
        assert s.k == 5
        assert np.allclose(s.ref_v.probs, marginal(self.p, 2).probs)


def random_class_kernel(rng, cls):
    """A random kernel that classifies as cls: sensor 1 toggles output 0
    by switching off one input for every pilot, sensor 2 output 1 the
    same way, and every other entry is positive."""
    dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(3, 5)))
    k = rng.uniform(0.05, 1.0, dims)
    if 1 in cls.signalling:
        k[rng.integers(dims[0]), :, 0] = 0.0
    if 2 in cls.signalling:
        k[:, rng.integers(dims[1]), 1] = 0.0
    return Dmmac(k / k.sum(axis=2, keepdims=True))


def assert_same_scheme(got, want):
    for f in dataclasses.fields(Scheme):
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert x == y and type(x) is type(y), f.name


class TestOneBuilder:
    """build_scheme_for_class derives markers, budget and marginals, and
    leaves the scheme itself to build_marker_scheme or build_local_scheme."""

    @pytest.mark.parametrize("cls", [c for c in ChannelClass if c.signalling],
                             ids=lambda c: c.label)
    def test_marker_classes_go_through_build_marker_scheme(self, cls):
        rng = np.random.default_rng(25)
        for _ in range(20):
            ch = random_class_kernel(rng, cls)
            assert classify(ch) is cls
            cm = CostModel.unit(*ch.dims[:2], BudgetLaw.power(1.0, 0.5))
            p = rng.dirichlet(np.ones(4 * ch.dims[0] * ch.dims[1])).reshape(*ch.dims[:2], 4)
            n, mu = int(rng.integers(20, 400)), float(rng.uniform(0.01, 0.99))
            got = build_scheme_for_class(cls, ch, p, cm, n, mu)
            want = build_marker_scheme(
                ch, find_markers(ch, cls), cost_budget(cm, n), mu,
                *(marginal(p, axis) for axis in range(3)),
            )
            assert_same_scheme(got, want)

    def test_full_goes_through_build_local_scheme(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            p = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
            n, mu = int(rng.integers(1, 400)), float(rng.uniform(0.01, 0.99))
            got = build_scheme_for_class(ChannelClass.FULL, None, p, None, n, mu)
            assert_same_scheme(got, build_local_scheme(marginal(p, 2), mu, n))

    def test_only_the_builders_call_scheme(self):
        callers = set()
        for path in Path(schemes.__file__).parent.glob("*.py"):
            _scheme_callers(ast.parse(path.read_text()), path.name, None, callers)
        assert callers == {("schemes.py", "build_local_scheme"),
                           ("schemes.py", "build_marker_scheme")}


def _scheme_callers(node, module, func, out):
    """Add (module, enclosing function) for every Scheme(...) call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Call):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "Scheme":
            out.add((module, func))
    for child in ast.iter_child_nodes(node):
        _scheme_callers(child, module, func, out)


class TestMirroredChannel:
    """Transposing the kernel on (x1, x2) and the joints on (u1, u2) swaps
    the sensors, so every per-sensor choice a scheme makes must swap too."""

    @pytest.mark.parametrize(
        "kernel",
        [
            _fading((1,), (-1, 1)).kernel,
            _fading((-1, 1), (1,)).kernel,
            noisy_sparse_kernel().kernel,
        ],
        ids=["sparse_full", "full_sparse", "sparse"],
    )
    def test_mirror_swaps_sensors(self, kernel):
        rng = np.random.default_rng(11)
        p, q = (x / x.sum() for x in rng.random((2, 2, 2, 2)))
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        ch, mirror = Dmmac(kernel), Dmmac(kernel.transpose(1, 0, 2))
        cls, cls_m = classify(ch), classify(mirror)
        assert cls_m.signalling == tuple(sorted(3 - s for s in cls.signalling))
        problem = TestProblem(p, q)
        problem_m = TestProblem(p.transpose(1, 0, 2), q.transpose(1, 0, 2))
        for n in (20, 60):
            s = build_scheme_for_class(cls, ch, p, cm, n, 0.2)
            m = build_scheme_for_class(cls_m, mirror, problem_m.p, cm, n, 0.2)
            assert s.k == m.k
            assert (s.p_marker1, s.p_marker2) == (m.p_marker2, m.p_marker1)
            assert s.markers == MarkerSet(m.markers.sensor2, m.markers.sensor1)
            k = s.k
            # with two signallers the k-blocks trade places, else none moves
            swap = np.r_[k:2 * k, 0:k, 2 * k:n] if len(cls.signalling) == 2 \
                else np.arange(n)
            for sensor in (1, 2):
                encode = getattr(s, f"encode{sensor}")
                encode_m = getattr(m, f"encode{3 - sensor}")
                ref = marginal(p, sensor - 1).probs
                typical = (np.arange(n) < round(n * ref[1])).astype(int)
                atypical = np.zeros(n, dtype=int)
                for u in (typical, atypical):
                    assert np.array_equal(encode(u), encode_m(u)[swap])
                if sensor in cls.signalling:  # both encoder branches ran
                    assert not np.array_equal(encode(typical), encode(atypical))
            a, b = exact_error_probs(problem, ch, s, n)
            a_m, b_m = exact_error_probs(problem_m, mirror, m, n)
            assert abs(a - a_m) <= 1e-12 and abs(b - b_m) <= 1e-12


class TestEncoderAdmissibility:
    def test_outputs_fit_budget(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        p = np.full((2, 2, 2), 0.125)
        s = build_scheme_for_class(
            ChannelClass.SPARSE, noisy_sparse_kernel(), p, cm, 100, 0.2
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            u1 = rng.integers(0, 2, size=100)
            u2 = rng.integers(0, 2, size=100)
            x1, x2 = s.encode1(u1), s.encode2(u2)
            assert admissible(x1, 1, cm, 100)
            assert admissible(x2, 2, cm, 100)
            assert np.count_nonzero(x1) <= 2 * s.k
            assert np.count_nonzero(x2) <= 2 * s.k


class TestDecisionStructure:
    def test_within_block_permutation_invariance(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        p = np.full((2, 2, 2), 0.125)
        s = build_scheme_for_class(
            ChannelClass.SPARSE, noisy_sparse_kernel(), p, cm, 20, 0.2
        )
        assert s.k == 2
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.integers(0, 3, size=20)
            v = rng.integers(0, 2, size=20)
            base = s.decide(y, v)
            shuffled = y.copy()
            shuffled[[0, 1]] = shuffled[[1, 0]]
            shuffled[[2, 3]] = shuffled[[3, 2]]
            assert s.decide(shuffled, v) == base
            tail = y.copy()
            tail[4:] = rng.integers(0, 3, size=16)
            assert s.decide(tail, v) == base

    def test_marker_hit_rate_matches_closed_form(self):
        cm = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
        p = np.full((2, 2, 2), 0.125)
        ch = noisy_sparse_kernel()
        s = build_scheme_for_class(ChannelClass.SPARSE, ch, p, cm, 20, 0.2)
        w = s.markers.sensor1
        row = ch.kernel[w.on_input, w.partner_pilot]
        rng = np.random.default_rng(21)
        trials = 20_000
        draws = rng.choice(row.size, size=(trials, s.k), p=row)
        est = float(np.mean(np.any(draws == w.marker_output, axis=1)))
        target = 1 - (1 - s.p_marker1) ** s.k
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(est - target) <= 3 * se


class TestClassExponent:
    def test_product_instance_splits_into_marginal_divergences(self):
        p1, p2, pv = [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]
        q1, q2, qv = [0.5, 0.5], [0.4, 0.6], [0.5, 0.5]
        p = np.einsum("i,j,k->ijk", p1, p2, pv)
        q = np.einsum("i,j,k->ijk", q1, q2, qv)
        d1 = kl_divergence(Pmf(p1), Pmf(q1))
        d2 = kl_divergence(Pmf(p2), Pmf(q2))
        dv = kl_divergence(Pmf(pv), Pmf(qv))
        assert class_exponent(ChannelClass.FULL, p, q) == pytest.approx(
            dv, abs=1e-9
        )
        assert class_exponent(ChannelClass.SPARSE, p, q) == pytest.approx(
            d1 + d2 + dv, abs=1e-8
        )
        assert class_exponent(ChannelClass.SPARSE_FULL, p, q) == pytest.approx(
            d1 + dv, abs=1e-8
        )
        assert class_exponent(ChannelClass.FULL_SPARSE, p, q) == pytest.approx(
            d2 + dv, abs=1e-8
        )

    def test_more_constraints_never_lower_the_exponent(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = rng.random((2, 3, 2)) + 0.02
            p /= p.sum()
            q = rng.random((2, 3, 2)) + 0.02
            q /= q.sum()
            full = class_exponent(ChannelClass.FULL, p, q)
            sf = class_exponent(ChannelClass.SPARSE_FULL, p, q)
            fs = class_exponent(ChannelClass.FULL_SPARSE, p, q)
            sp = class_exponent(ChannelClass.SPARSE, p, q)
            assert full <= sf + 1e-9
            assert full <= fs + 1e-9
            assert sf <= sp + 1e-9
            assert fs <= sp + 1e-9

    def test_full_class_is_one_exact_sweep(self):
        # only V is pinned, so R = Q P_V / Q_V solves it in one sweep
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
            q = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
            p_v, q_v = marginal(p, 2).probs, marginal(q, 2).probs
            res = class_projection(ChannelClass.FULL, p, q)
            assert res.iterations == 1
            assert abs(res.value - local_stein_exponent(p_v, q_v)) <= 1e-12
            np.testing.assert_allclose(res.argmin, q * p_v / q_v, rtol=0, atol=1e-15)

    def test_identical_hypotheses_give_zero(self):
        p = np.full((2, 2, 2), 0.125)
        for cls in ChannelClass:
            assert class_exponent(cls, p, p) == pytest.approx(0.0, abs=1e-12)


class TestDerandomization:
    def test_gamma_schedule_values(self):
        assert gamma_schedule(1) == pytest.approx(1 / math.log(3), abs=1e-15)
        vals = [gamma_schedule(n) for n in range(1, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        n = 10**6
        assert abs(math.log(gamma_schedule(n))) / n < 2e-5
        with pytest.raises(ValueError):
            gamma_schedule(0)

    def test_threshold_semantics(self):
        accept = derandomize(RandomizedDecider(lambda v, y: 0.6), 0.5)
        tie = derandomize(RandomizedDecider(lambda v, y: 0.5), 0.5)
        never = derandomize(RandomizedDecider(lambda v, y: 0.0), 0.5)
        v = np.zeros(4)
        y = np.zeros(4)
        assert accept(v, y) == 0
        assert tie(v, y) == 1
        assert never(v, y) == 1

    def test_probability_range_enforced(self):
        bad = RandomizedDecider(lambda v, y: 1.2)
        with pytest.raises(ValueError):
            bad(np.zeros(2), np.zeros(2))

    def test_gamma_range_enforced(self):
        d = RandomizedDecider(lambda v, y: 0.5)
        for gamma in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                derandomize(d, gamma)

    def test_error_accounting_against_exhaustive_law(self):
        # on a toy two-point space the derandomized rule must obey
        # alpha' <= alpha + gamma and beta' <= beta / gamma
        rng = np.random.default_rng(41)
        vs = [np.array([0]), np.array([1])]
        ys = [np.array([0]), np.array([1])]
        for _ in range(50):
            table = rng.random((2, 2))
            dec = RandomizedDecider(lambda v, y, t=table: t[int(v[0]), int(y[0])])
            pvy = rng.random((2, 2))
            pvy /= pvy.sum()
            qvy = rng.random((2, 2))
            qvy /= qvy.sum()
            alpha = sum(
                pvy[i, j] * (1 - table[i, j]) for i in range(2) for j in range(2)
            )
            beta = sum(
                qvy[i, j] * table[i, j] for i in range(2) for j in range(2)
            )
            for gamma in (0.1, 0.5, 0.9):
                rule = derandomize(dec, gamma)
                accept = np.array(
                    [[rule(vs[i], ys[j]) == 0 for j in range(2)] for i in range(2)]
                )
                alpha_d = float((pvy * ~accept).sum())
                beta_d = float((qvy * accept).sum())
                assert alpha_d <= alpha + gamma + 1e-12
                assert beta_d <= beta / gamma + 1e-12
