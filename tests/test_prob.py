import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmac.errors import AbsoluteContinuityViolation, LengthMismatch, OutOfAlphabet
from steinmac.prob import (
    Joint3Pmf,
    Pmf,
    SequenceType,
    _incidence,
    empirical_type,
    is_strongly_typical,
    kl_divergence,
    marginal,
    quantile_map,
    require_length,
    sample_iid,
    typical_bounds,
)


class TestPmf:
    def test_accepts_list_and_array(self):
        p = Pmf([0.25, 0.75])
        assert p.alphabet_size == 2
        assert np.array_equal(p.probs, [0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.49])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            Pmf([[0.5, 0.5]])

    def test_support(self):
        assert list(Pmf([0.5, 0.0, 0.5]).support) == [0, 2]


class TestValidationMessages:
    """One min and one sum accept a pmf; a rejected one still names its
    fault: a non-finite or negative entry before an off-unit sum."""

    ENTRIES = "entries must be finite and nonnegative"

    @pytest.mark.parametrize("make, what, shape", [
        (Pmf, "Pmf", (4,)),
        (Joint3Pmf, "Joint3Pmf", (2, 1, 2)),
    ])
    @pytest.mark.parametrize("cell, value, fault", [
        (1, np.nan, ENTRIES),
        (2, np.inf, ENTRIES),
        (0, -np.inf, ENTRIES),
        (3, -0.25, ENTRIES),
        (3, 0.5, "sum"),
        (0, 0.0, "sum"),
    ])
    def test_fault_named(self, make, what, shape, cell, value, fault):
        probs = np.full(4, 0.25)
        probs[cell] = value
        with pytest.raises(ValueError) as err:
            make(probs.reshape(shape))
        if fault == "sum":
            total = float(probs.sum())
            assert str(err.value) == f"{what} must sum to 1 within 1e-12, got {total!r}"
        else:
            assert str(err.value) == f"{what} {fault}"

    def test_nan_with_unit_sum_elsewhere(self):
        # a NaN makes the min NaN, which fails min() >= 0, and is named as
        # non-finite rather than as a bad sum
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Pmf([0.5, np.nan, 0.5])

    def test_accepted_array_is_a_read_only_copy(self):
        src = np.array([0.25, 0.75])
        p = Pmf(src)
        src[0] = 0.5
        assert p.probs.tolist() == [0.25, 0.75]
        assert not p.probs.flags.writeable


class TestJoint3Pmf:
    def test_dims(self):
        j = Joint3Pmf(np.full((2, 3, 2), 1 / 12))
        assert j.dims == (2, 3, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Joint3Pmf(np.full((2, 2), 0.25))

    def test_marginal_method_matches_function(self):
        rng = np.random.default_rng(3)
        cells = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        j = Joint3Pmf(cells)
        for axis in range(3):
            assert np.allclose(j.marginal(axis).probs, marginal(cells, axis).probs)


class TestKl:
    def test_identical_is_exactly_zero(self):
        p = Pmf([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_binary_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3), high-precision reference 0.14384103622589046
        got = kl_divergence(Pmf([0.5, 0.5]), Pmf([0.25, 0.75]))
        assert got == pytest.approx(0.14384103622589046, abs=1e-15)

    def test_zero_p_cell_contributes_nothing(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5])) == pytest.approx(
            np.log(2), abs=1e-15
        )

    def test_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityViolation) as err:
            kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0]))
        assert "1" in str(err.value)

    def test_joint_inputs(self):
        p = np.array([[[0.5, 0.0], [0.25, 0.25]]])
        q = np.full((1, 2, 2), 0.25)
        expect = 0.5 * np.log(2)
        assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-15)

    def test_violating_joint_reports_cell(self):
        p = np.zeros((2, 2, 2))
        p[1, 0, 1] = 1.0
        q = np.full((2, 2, 2), 0.125)
        q[1, 0, 1] = 0.0
        q[0, 0, 0] = 0.25
        with pytest.raises(AbsoluteContinuityViolation) as err:
            kl_divergence(p, q)
        assert "(1, 0, 1)" in str(err.value)

    def test_nonnegative_clamp(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.dirichlet(np.ones(4))
            assert kl_divergence(Pmf(w), Pmf(w.copy())) >= 0.0

    @pytest.mark.parametrize("bad", [
        [-0.5, 1.5], [math.nan, 1.0], [math.inf, 0.5], [0.5, -math.inf],
    ])
    def test_raw_arrays_need_finite_nonnegative_entries(self, bad):
        # unchecked, (-0.5, 1.5) read 1.6479 and (nan, 1) read 0.6931
        uniform = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="p entries must be finite and nonnegative"):
            kl_divergence(np.array(bad), uniform)
        with pytest.raises(ValueError, match="q entries must be finite and nonnegative"):
            kl_divergence(uniform, np.array(bad))

    def test_empty_arrays_refused(self):
        with pytest.raises(ValueError) as err:
            kl_divergence(np.array([]), np.array([]))
        assert str(err.value) == "p must not be empty"
        with pytest.raises(ValueError) as err:
            kl_divergence(np.zeros((2, 0)), np.zeros((2, 0)))
        assert str(err.value) == "p must not be empty"


class TestMarginal:
    def test_raw_array(self):
        cells = np.array([[[0.1, 0.2], [0.3, 0.0]], [[0.05, 0.15], [0.1, 0.1]]])
        assert marginal(cells, 0).probs == pytest.approx([0.6, 0.4])
        assert marginal(cells, 1).probs == pytest.approx([0.5, 0.5])
        assert marginal(cells, 2).probs == pytest.approx([0.55, 0.45])

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            marginal(np.full((2, 2, 2), 0.125), 3)


class TestIncidence:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_rows_give_the_stacked_marginals(self, data):
        ndim = data.draw(st.integers(1, 3))
        dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim)))
        axes = data.draw(st.permutations(range(ndim)).flatmap(
            lambda perm: st.integers(0, ndim).map(lambda k: perm[:k])))
        cells = math.prod(dims)
        # whole counts, so every sum is exact whatever order it runs in
        joint = np.array(data.draw(st.lists(
            st.integers(0, 1000), min_size=cells, max_size=cells)), dtype=float).reshape(dims)
        a = _incidence(dims, axes)
        want = [joint.sum(axis=tuple(b for b in range(ndim) if b != ax)) for ax in axes]
        assert a.shape == (sum(dims[ax] for ax in axes), cells)
        assert np.array_equal(a @ joint.ravel(),
                              np.concatenate([np.zeros(0), *want]))
        assert set(np.unique(a)) <= {0.0, 1.0}
        start = 0
        for ax in axes:
            block = a[start:start + dims[ax]]
            assert np.array_equal(block.sum(axis=0), np.ones(cells))
            start += dims[ax]


class TestTypes:
    def test_empirical_type_counts(self):
        t = empirical_type([0, 1, 1, 2, 1], 4)
        assert list(t.counts) == [1, 3, 1, 0]
        assert t.n == 5
        assert t.empirical() == pytest.approx([0.2, 0.6, 0.2, 0.0])

    def test_out_of_alphabet(self):
        with pytest.raises(OutOfAlphabet):
            empirical_type([0, 3], 3)
        with pytest.raises(OutOfAlphabet):
            empirical_type([-1, 0], 2)

    def test_non_integer_symbols_refused(self):
        # inf equals its floor, so it must be refused before the cast to
        # int64, which would name symbol -2**63
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(OutOfAlphabet, match="integers"):
                empirical_type(np.array([0.0, bad]), 2)
        assert list(empirical_type(np.array([0.0, 1.0]), 2).counts) == [1, 1]

    def test_sequence_type_validation(self):
        with pytest.raises(ValueError):
            SequenceType(np.array([1, -2]), 5)


class TestTypicality:
    def test_exact_type_is_typical(self):
        assert is_strongly_typical([0, 1, 0, 1], Pmf([0.5, 0.5]), 0.01)

    def test_window_boundary_inclusive(self):
        # type (0.75, 0.25) sits exactly mu away from (0.5, 0.5)
        assert is_strongly_typical([0, 0, 0, 1], Pmf([0.5, 0.5]), 0.25)
        assert not is_strongly_typical([0, 0, 0, 1], Pmf([0.5, 0.5]), 0.2499)

    def test_zero_mass_symbol_never_typical(self):
        # large slack does not excuse mass on a forbidden symbol
        assert not is_strongly_typical([1, 1, 0, 1], Pmf([0.0, 1.0]), 0.9)
        assert is_strongly_typical([1, 1, 1, 1], Pmf([0.0, 1.0]), 0.9)

    def test_mu_one_binary_no_zero_cells(self):
        assert is_strongly_typical([0, 0, 0, 0], Pmf([0.5, 0.5]), 0.99)


def float_test(c, p, mu, n):
    """The strong-typicality test on one symbol, literally: frequency c / n
    within mu of p, and no occurrence of a symbol of probability zero."""
    ok = np.abs(c / n - p) <= mu
    return ok & (c == 0) if p == 0 else ok


class TestTypicalBounds:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_float_test(self, data):
        size = data.draw(st.integers(1, 5))
        weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        w = np.array(data.draw(st.lists(weight, min_size=size, max_size=size)))
        if w.sum() == 0:
            w[data.draw(st.integers(0, size - 1))] = 1.0
        p = w / w.sum()
        n = data.draw(st.one_of(st.integers(1, 4096), st.integers(1, 10**6)))
        # one mu at random, and eight exactly on the edge of some count's
        # window, where rounding decides; those counts are drawn uniformly
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edge = [abs(c / n - p[s]) for c, s in zip(
            rng.integers(0, n + 1, size=8), rng.choice(np.flatnonzero(p), size=8))]
        for mu in [data.draw(st.floats(0.0, 1.0)), *edge]:
            lo, hi = typical_bounds(Pmf(p), mu, n)
            for s, ps in enumerate(p):
                if n <= 4096:
                    cs = np.arange(n + 1)
                else:
                    near = np.arange(-3, 4)
                    cs = np.unique(np.clip(np.concatenate([lo[s] + near, hi[s] + near]), 0, n))
                np.testing.assert_array_equal(
                    (cs >= lo[s]) & (cs <= hi[s]), float_test(cs, ps, mu, n),
                    err_msg=f"symbol {s}, mu {mu!r}",
                )

    def test_zero_probability_symbol_gets_zero_count_only(self):
        lo, hi = typical_bounds(Pmf([0.0, 1.0]), 0.9, 10)
        assert (lo[0], hi[0]) == (0, 0)
        assert (lo[1], hi[1]) == (1, 10)

    def test_no_passing_count_gives_an_empty_interval(self):
        lo, hi = typical_bounds(Pmf([0.5, 0.5]), 0.2, 1)
        assert np.all(lo > hi)

    @pytest.mark.parametrize("mu, n", [(-1e-12, 10), (float("nan"), 10), (0.1, 0), (0.1, -3)])
    def test_refuses_negative_mu_and_empty_length(self, mu, n):
        with pytest.raises(ValueError, match="mu|n"):
            typical_bounds(Pmf([0.5, 0.5]), mu, n)


class TestSampling:
    def test_reproducible(self):
        p = Pmf([0.2, 0.5, 0.3])
        a = sample_iid(p, 1000, np.random.default_rng(42))
        b = sample_iid(p, 1000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_frequencies(self):
        p = Pmf([0.2, 0.5, 0.3])
        n = 200_000
        draws = sample_iid(p, n, np.random.default_rng(7))
        freq = np.bincount(draws, minlength=3) / n
        for a in range(3):
            se = np.sqrt(p.probs[a] * (1 - p.probs[a]) / n)
            assert abs(freq[a] - p.probs[a]) <= 4 * se

    def test_joint_sampling_shape(self):
        j = Joint3Pmf(np.full((2, 2, 2), 0.125))
        draws = sample_iid(j, 50, np.random.default_rng(0))
        assert draws.shape == (50, 3)
        assert draws.min() >= 0 and draws.max() <= 1

    def test_quantile_map_boundaries(self):
        probs = np.array([0.5, 0.5])
        assert quantile_map(probs, np.array([0.0]))[0] == 0
        assert quantile_map(probs, np.array([0.4999]))[0] == 0
        # cdf boundary belongs to the next symbol
        assert quantile_map(probs, np.array([0.5]))[0] == 1
        assert quantile_map(probs, np.array([0.9999]))[0] == 1
        assert quantile_map(probs, 0.75) == 1
        # a cdf that stops short of 1 clips to the last symbol
        out = quantile_map(np.array([0.3, 0.3]), np.array([[0.1, 0.9], [0.5, 0.2]]))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [[0, 1], [1, 0]])

    def test_require_length(self):
        out = require_length([1, 2, 3], 3)
        assert out.shape == (3,)
        with pytest.raises(LengthMismatch):
            require_length([1, 2], 3)
