import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    OutOfAlphabet,
    OutOfRange,
)
from steinmac.exponents import local_stein_exponent
from steinmac.prob import (
    Pmf,
    empirical_type,
    is_strongly_typical,
    kl_divergence,
    marginal,
    typical_bounds,
)
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
    pinned_axes,
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
               ref_u1=half, markers=hand_scheme(ChannelClass.SPARSE_FULL).markers,
               p_marker1=1.0)
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


class TestSchemeNeedsWitnesses:
    """A signalling sensor's encoder and the decision read its witness, so
    a Scheme without one is refused as build_marker_scheme refuses it,
    after every other field check."""

    def test_markerless_scheme_refused(self):
        with pytest.raises(MarkerMismatch, match="^scheme needs a sensor-1 witness$"):
            Scheme(cls=ChannelClass.SPARSE_FULL, n=10, k=1, mu=0.2, ref_v=[.5, .5],
                   ref_u1=[.5, .5], p_marker1=0.5)

    @pytest.mark.parametrize("cls, kept, sensor", [
        (ChannelClass.SPARSE, (), 1),
        (ChannelClass.SPARSE, (2,), 1),
        (ChannelClass.SPARSE, (1,), 2),
        (ChannelClass.FULL_SPARSE, (1,), 2),
    ])
    def test_each_signalling_sensor_needs_its_witness(self, cls, kept, sensor):
        sparse = hand_scheme(ChannelClass.SPARSE)
        markers = MarkerSet(*(sparse.markers.witness(s) if s in kept else None for s in (1, 2)))
        with pytest.raises(MarkerMismatch, match=f"^scheme needs a sensor-{sensor} witness$"):
            dataclasses.replace(sparse, cls=cls, markers=markers)

    @pytest.mark.parametrize("cls", [c for c in ChannelClass if c.signalling],
                             ids=lambda c: c.label)
    def test_replace_without_markers_refused(self, cls):
        with pytest.raises(MarkerMismatch, match="witness"):
            dataclasses.replace(hand_scheme(cls), markers=None)

    def test_field_errors_come_first(self):
        half = Pmf([0.5, 0.5])
        with pytest.raises(ValueError, match="p_marker1") as err:
            Scheme(cls=ChannelClass.SPARSE_FULL, n=10, k=1, mu=0.2, ref_v=half, ref_u1=half)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="needs ref_u1") as err:
            Scheme(cls=ChannelClass.SPARSE_FULL, n=10, k=1, mu=0.2, ref_v=half, p_marker1=0.5)
        assert type(err.value) is ValueError


def draw_ref(data, size):
    """A pmf on `size` symbols, some of them of probability zero."""
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                                    min_size=size, max_size=size)))
    if w.sum() == 0:
        w[data.draw(st.integers(0, size - 1))] = 1.0
    return Pmf(w / w.sum())


def random_scheme(data, n_max=200):
    """A Scheme of a drawn class with the witness symbols of hand_scheme, every
    reference drawn on 1-4 symbols, and a drawn window and blocklength."""
    refs = {f: draw_ref(data, data.draw(st.integers(1, 4)))
            for f in ("ref_u1", "ref_u2", "ref_v")}
    return Scheme(
        cls=data.draw(st.sampled_from(list(ChannelClass))),
        n=data.draw(st.integers(4, n_max)), k=2,
        mu=data.draw(st.floats(0.001, 0.999)),
        markers=hand_scheme(ChannelClass.SPARSE).markers,
        p_marker1=0.6, p_marker2=0.3, **refs,
    )


def stacked_bounds(scheme):
    """Each read axis's typical_bounds at the scheme's n, stacked in
    pinned_axes order, and each axis's row slice."""
    lo, hi, rows, start = [], [], {}, 0
    for a in pinned_axes(scheme.cls):
        a_lo, a_hi = typical_bounds(scheme.ref(a), scheme.mu, scheme.n)
        lo.append(a_lo)
        hi.append(a_hi)
        rows[a] = slice(start, start + a_lo.size)
        start += a_lo.size
    return np.concatenate(lo)[:, None], np.concatenate(hi)[:, None], rows


class TestSchemeBox:
    """Scheme.box is every read symbol's typical count interval, computed
    once per Scheme and again by each dataclasses.replace."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_box_is_the_stacked_typical_bounds(self, data):
        scheme = random_scheme(data)
        moved = dataclasses.replace(scheme, n=data.draw(st.integers(1, 400)))
        for s in (scheme, moved):
            (lo, hi, rows), (want_lo, want_hi, want_rows) = s.box, stacked_bounds(s)
            assert lo.dtype == hi.dtype == np.int64
            assert not (lo.flags.writeable or hi.flags.writeable)  # shared by every plan
            np.testing.assert_array_equal(lo, want_lo)
            np.testing.assert_array_equal(hi, want_hi)
            assert list(rows.items()) == list(want_rows.items())
            assert all(type(r.start) is int for r in rows.values())

    def test_box_is_not_a_field(self):
        s = hand_scheme(ChannelClass.SPARSE)
        assert "box" not in {f.name for f in dataclasses.fields(Scheme)}
        assert "box" not in repr(s)
        assert s == dataclasses.replace(s, n=s.n)
        with pytest.raises(TypeError):
            Scheme(cls=ChannelClass.FULL, n=10, k=0, mu=0.2, ref_v=[.5, .5], box=s.box)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_verdicts_agree_with_the_box(self, data):
        # the encoders and the decision read Scheme.typical; each verdict
        # must be the box's verdict on the same counts, compared here by hand
        scheme = random_scheme(data, n_max=60)
        lo, hi, rows = scheme.box
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(axis):
            # from the reference (often typical) or uniform (often not)
            size = scheme.ref(axis).alphabet_size
            p = scheme.ref(axis).probs if data.draw(st.booleans()) else None
            return rng.choice(size, size=scheme.n, p=p)

        def in_box(axis, seq):
            counts = empirical_type(seq, scheme.ref(axis).alphabet_size).counts
            r = rows[axis]
            return bool(np.all((lo[r, 0] <= counts) & (counts <= hi[r, 0])))

        w = scheme.markers
        for sensor in scheme.cls.signalling:
            u = draw(sensor - 1)
            x = (scheme.encode1 if sensor == 1 else scheme.encode2)(u)
            block = x[scheme._block(sensor)]
            sent = w.witness(sensor)
            assert (block == (sent.on_input if in_box(sensor - 1, u) else sent.off_input)).all()
        y = np.zeros(scheme.n, dtype=np.int64)
        for sensor in scheme.cls.signalling:
            y[scheme._block(sensor)] = w.witness(sensor).marker_output
        v = draw(2)
        assert scheme.decide(y, v) == (0 if in_box(2, v) else 1)

    @pytest.mark.parametrize("cls", list(ChannelClass), ids=lambda c: c.label)
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_typical_matches_is_strongly_typical(self, cls, data):
        # is_strongly_typical derives its intervals itself, so it is the
        # reference for the box's test, at the built n and after a move
        scheme = dataclasses.replace(random_scheme(data), cls=cls)
        moved = dataclasses.replace(scheme, n=data.draw(st.integers(1, 400)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for s in (scheme, moved):
            for a in pinned_axes(cls):
                ref = s.ref(a)
                seqs = [rng.choice(ref.alphabet_size, size=s.n,
                                   p=ref.probs if data.draw(st.booleans()) else None)
                        for _ in range(4)]
                counts = [empirical_type(seq, ref.alphabet_size).counts for seq in seqs]
                want = [is_strongly_typical(seq, ref, s.mu) for seq in seqs]
                for c, w in zip(counts, want):
                    got = s.typical(a, c[:, None])
                    assert got.shape == (1,) and got[0] == w
                # columns of one batch, as the estimators pass them
                np.testing.assert_array_equal(s.typical(a, np.stack(counts, axis=1)), want)


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

    @pytest.mark.parametrize("bad", [7, -1, 0.5])
    def test_side_observation_checked_whatever_the_markers_show(self, bad):
        # v is read before the markers, so a v outside the alphabet raises
        # whether sensor 1's block misses the marker or shows it
        s = hand_scheme(ChannelClass.SPARSE_FULL)
        for shown in (False, True):
            y = np.zeros(10, dtype=int)
            y[0] = 7 if shown else 0
            with pytest.raises(OutOfAlphabet):
                s.decide(y, np.full(10, bad))


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


    @pytest.mark.parametrize("cls, hits", [
        (ChannelClass.SPARSE, [1.0]),
        (ChannelClass.SPARSE, [1.0, 1.0, 1.0]),
        (ChannelClass.FULL, [0.0]),
    ], ids=["sparse-short", "sparse-long", "full-long"])
    def test_hits_of_another_length_refused(self, cls, hits):
        # one hit per signalling sensor: a dropped or extra hit is an error,
        # not a term left out of the product
        s = (hand_scheme(cls) if cls.signalling
             else build_local_scheme(Pmf([0.5, 0.5]), 0.2, 10))
        with pytest.raises(ValueError):
            s.accept_weights({0: True, 1: True, 2: True}, hits)


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
        assert _callers("Scheme") == {("schemes.py", "build_local_scheme"),
                                      ("schemes.py", "build_marker_scheme")}


class TestOneBox:
    """The typical count intervals are derived in two places: a Scheme's box,
    which every estimator, both encoders and the decision read through
    Scheme.typical, and is_strongly_typical, the public reference that
    derives them again for one sequence and that the package never calls."""

    def test_only_the_box_and_the_sequence_test_call_typical_bounds(self):
        assert _callers("typical_bounds") == {("schemes.py", "Scheme.__post_init__"),
                                              ("prob.py", "is_strongly_typical")}

    def test_package_does_not_call_is_strongly_typical(self):
        assert _callers("is_strongly_typical") == set()

    def test_read_plan_returns_the_incidence_alone(self):
        # an ndarray or None, never a tuple that carries the box along
        tree = ast.parse(Path(schemes.__file__).with_name("simulate.py").read_text())
        fn, = (node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_read_plan")
        assert ast.unparse(fn.returns) == "np.ndarray | None"
        returns = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returns and not any(isinstance(v, ast.Tuple) for v in returns)

    def test_simulate_does_not_import_typical_bounds(self):
        tree = ast.parse(Path(schemes.__file__).with_name("simulate.py").read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "typical_bounds" not in names


def _callers(name):
    """(module, enclosing class.function) of every name(...) call in the
    package's sources."""
    out = set()
    for path in Path(schemes.__file__).parent.glob("*.py"):
        _add_callers(ast.parse(path.read_text()), name, path.name, None, out)
    return out


def _add_callers(node, name, module, scope, out):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name if scope is None else f"{scope}.{node.name}"
    if isinstance(node, ast.Call):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
            out.add((module, scope))
    for child in ast.iter_child_nodes(node):
        _add_callers(child, name, module, scope, out)


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
