import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmac.errors import (
    AbsoluteContinuityViolation,
    DimensionTooLarge,
    NoFeasiblePoint,
    NonConvergence,
    OutOfRange,
)
from steinmac.channels import ChannelClass
from steinmac import exponents
from steinmac.exponents import (
    _FACE_SWEEPS,
    IProjectionResult,
    MarginalConstraintSet,
    _certifies_face,
    _constraint_rows,
    _restrict_to_face,
    _sweep_plan,
    _unwrap_joint,
    brute_force_min_kl,
    local_stein_exponent,
    min_kl_fixed_marginals,
)
from steinmac.schemes import class_projection
from steinmac.prob import Joint3Pmf, Pmf, kl_divergence, marginal

LN_5_3 = 0.5108256237659907


def boundary_instance():
    """P = (d000 + d111)/2 against Q = .4 d000 + .4 d111 + .2 d010: all three
    marginals pinned force the Q-supported cell 010 to zero, and the
    I-projection is (d000 + d111)/2 with value ln 1.25."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = 0.5
    q = np.zeros((2, 2, 2))
    q[0, 0, 0] = q[1, 1, 1] = 0.4
    q[0, 1, 0] = 0.2
    return p, q


def random_instance(rng, dims=(2, 2, 2)):
    size = int(np.prod(dims))
    q = rng.dirichlet(np.ones(size)).reshape(dims)
    q = np.maximum(q, 1e-6)
    q /= q.sum()
    p = rng.dirichlet(np.ones(size)).reshape(dims)
    return p, q


class TestLocalExponent:
    def test_equal_is_zero(self):
        p = Pmf([0.4, 0.6])
        assert local_stein_exponent(p, p) == 0.0

    def test_binary_value(self):
        got = local_stein_exponent(Pmf([0.5, 0.5]), Pmf([0.25, 0.75]))
        assert got == pytest.approx(0.14384103622589046, abs=1e-15)

    def test_degenerate(self):
        got = local_stein_exponent(Pmf([1.0, 0.0]), Pmf([0.5, 0.5]))
        assert got == pytest.approx(np.log(2), abs=1e-15)

    def test_violation(self):
        with pytest.raises(AbsoluteContinuityViolation):
            local_stein_exponent(Pmf([0.5, 0.5]), Pmf([0.0, 1.0]))


class TestConstraintSet:
    def test_from_pairs(self):
        cs = MarginalConstraintSet([(0, Pmf([0.5, 0.5])), (2, Pmf([0.3, 0.7]))])
        assert len(cs) == 2

    def test_from_dict(self):
        cs = MarginalConstraintSet({1: Pmf([0.5, 0.5])})
        assert len(cs) == 1

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError):
            MarginalConstraintSet([(0, Pmf([0.5, 0.5])), (0, Pmf([0.3, 0.7]))])

    @pytest.mark.parametrize("axis, text", [
        (1.5, "axis must be an integer, got 1.5"),
        (1.0, "axis must be an integer, got 1.0"),
        (-1, "axis must be >= 0"),
    ])
    def test_axis_is_a_count(self, axis, text):
        # a fraction once truncated to the axis below it
        with pytest.raises(OutOfRange) as err:
            MarginalConstraintSet({axis: Pmf([0.5, 0.5])})
        assert err.value.field == "axis" and str(err.value) == text


def hand_built_face_rows(p, steps):
    """The face certificate's rows built without prob._incidence, one 0/1
    row per constrained (axis, symbol) over the live cells of p: the
    reference for prob._incidence's columns at those cells."""
    cells = np.unravel_index(np.flatnonzero(p), p.shape)
    return np.concatenate([
        cells[axis][None, :] == np.arange(target.size)[:, None]
        for axis, target, _, _ in steps
    ]).astype(float)


def hand_built_constraint_rows(shape, steps, qflat):
    """The grid oracle's equality system built row by row without
    prob._incidence: total mass, a row per constrained symbol, a pin per
    unsupported cell."""
    cells = int(np.prod(shape))
    rows = [np.ones(cells)]
    rhs = [1.0]
    grids = np.indices(shape).reshape(len(shape), cells)
    for axis, target, _, _ in steps:
        for sym in range(shape[axis]):
            rows.append((grids[axis] == sym).astype(float))
            rhs.append(float(target[sym]))
    for cell in np.flatnonzero(qflat == 0):
        row = np.zeros(cells)
        row[cell] = 1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def sparse_joint(data, dims):
    """A joint over dims with integer weights 0-3, so some cells are zero."""
    size = int(np.prod(dims))
    w = np.array(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
                 dtype=float)
    w[0] += w.sum() == 0
    return (w / w.sum()).reshape(dims)


class TestOneConstraintLayout:
    """The face certificate and the grid oracle read their cell-to-symbol
    rows from prob._incidence, and their constraints from _sweep_plan."""

    @staticmethod
    def draw_case(data):
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
        q, p = sparse_joint(data, dims), sparse_joint(data, dims)
        axes = data.draw(st.permutations(range(len(dims))).flatmap(
            lambda perm: st.integers(0, len(dims)).map(lambda k: perm[:k])))
        # pairs keep the drawn order, which the rows follow
        return q, p, [(axis, target) for axis, target in _marginals(p, axes).items()]

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_oracle_rows_match_the_hand_built_ones(self, data):
        q, _, cons = self.draw_case(data)
        steps = _sweep_plan(q, cons)
        got = _constraint_rows(q, steps)
        want = hand_built_constraint_rows(q.shape, steps, q.ravel())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_face_rows_match_the_hand_built_ones(self, data):
        q, p, cons = self.draw_case(data)
        if not cons or np.count_nonzero(p) < 2:
            return  # a face that holds every live cell is refused unread
        steps = _sweep_plan(q, cons)
        incidence, built = exponents._incidence, []

        def recording(dims, axes):
            built.append(incidence(dims, axes))
            return built[-1]

        face = np.zeros(p.shape, dtype=bool)
        face.flat[int(np.flatnonzero(p)[0])] = True
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exponents, "_incidence", recording)
            _certifies_face(p, p, steps, face)  # p as its own Q: every log-ratio 0
        assert len(built) == 1
        assert np.array_equal(built[0][:, np.flatnonzero(p)], hand_built_face_rows(p, steps))

    @pytest.mark.parametrize("cons, text", [
        ({2: Pmf([0.5, 0.5])}, "axis 2 out of range for 2-axis joint"),
        ({1: Pmf([0.2, 0.3, 0.5])}, "target on axis 1 has size 3, joint axis has size 2"),
    ])
    def test_solver_and_oracle_refuse_alike(self, cons, text):
        q = np.full((2, 2), 0.25)
        for call in (lambda: min_kl_fixed_marginals(q, cons),
                     lambda: brute_force_min_kl(q, cons, 0.5),
                     lambda: _sweep_plan(q, cons)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == text


class TestIProjection:
    def test_product_q_matching_targets(self):
        q = np.einsum("a,b,c->abc", [0.25, 0.75], [0.6, 0.4], [0.5, 0.5])
        res = min_kl_fixed_marginals(
            q,
            {0: Pmf([0.25, 0.75]), 1: Pmf([0.6, 0.4]), 2: Pmf([0.5, 0.5])},
        )
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.argmin, q, atol=1e-12)

    def test_three_bernoullis(self):
        q = np.einsum("a,b,c->abc", [0.75, 0.25], [0.75, 0.25], [0.75, 0.25])
        # symbol order chosen so each target pins mass 0.5 on the 0.25 side
        half = Pmf([0.5, 0.5])
        res = min_kl_fixed_marginals(q, {0: half, 1: half, 2: half})
        assert res.value == pytest.approx(3 * 0.14384103622589046, abs=1e-10)
        assert np.allclose(res.argmin, 0.125, atol=1e-10)

    def test_two_axis_already_feasible(self):
        q = np.array([[0.4, 0.1], [0.1, 0.4]])
        res = min_kl_fixed_marginals(q, {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])})
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.argmin, q, atol=1e-10)

    def test_two_axis_worked_fixture(self):
        q = np.array([[0.45, 0.45], [0.05, 0.05]])
        res = min_kl_fixed_marginals(q, {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])})
        assert res.value == pytest.approx(LN_5_3, abs=1e-10)
        assert np.allclose(res.argmin, 0.25, atol=1e-6)

    def test_result_invariants(self):
        rng = np.random.default_rng(904)
        for _ in range(20):
            p, q = random_instance(rng)
            cons = {axis: marginal(p, axis) for axis in range(3)}
            res = min_kl_fixed_marginals(q, cons)
            assert res.residual <= 1e-10
            assert res.value >= 0.0
            assert res.value == pytest.approx(
                kl_divergence(res.argmin, q), abs=1e-10
            )
            for axis, target in cons.items():
                got = res.argmin.sum(axis=tuple(a for a in range(3) if a != axis))
                assert np.abs(got - target.probs).sum() <= res.residual + 1e-12

    def test_empty_constraints(self):
        q = np.array([[0.4, 0.1], [0.1, 0.4]])
        res = min_kl_fixed_marginals(q, {})
        assert res.value == 0.0
        assert np.array_equal(res.argmin, q)

    def test_infeasible_support(self):
        q = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(NoFeasiblePoint):
            min_kl_fixed_marginals(q, {0: Pmf([0.5, 0.5])})

    def test_nonconvergence_reports_residual(self):
        q = np.array([[[0.40, 0.05], [0.05, 0.05]], [[0.05, 0.05], [0.05, 0.30]]])
        cons = {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5]), 2: Pmf([0.5, 0.5])}
        with pytest.raises(NonConvergence) as err:
            min_kl_fixed_marginals(q, cons, tol=1e-14, max_iters=1)
        assert err.value.residual > 0
        assert err.value.iterations == 1

    def test_nan_tol_refused(self):
        # no gap is ever above a NaN tol nor within it, so the sweeps would
        # run to max_iters and end in NonConvergence with residual 0
        q = np.full((2, 2, 2), 0.125)
        cons = {0: Pmf([0.3, 0.7]), 1: Pmf([0.6, 0.4])}
        with pytest.raises(ValueError, match="tol must be positive"):
            min_kl_fixed_marginals(q, cons, tol=math.nan, max_iters=100)

    @pytest.mark.parametrize("q, says", [
        ([[0.25, math.nan], [0.25, 0.25]], "finite and nonnegative"),
        ([[0.5, -0.1], [0.3, 0.3]], "finite and nonnegative"),
        ([[1.0, 1.0], [1.0, 1.0]], "sum to 1"),
    ], ids=["nan", "negative", "unnormalised"])
    def test_invalid_raw_q_refused_at_once(self, q, says):
        # a NaN cell ran every sweep to NonConvergence, and a negative or
        # unnormalised Q was solved as if it were a pmf
        start = time.perf_counter()
        with pytest.raises(ValueError, match=says):
            min_kl_fixed_marginals(q, {0: Pmf([0.5, 0.5])})
        assert time.perf_counter() - start < 0.1

    def test_lyapunov_monotone_per_sweep(self):
        # D(limit || iterate) is the quantity cyclic scaling shrinks
        rng = np.random.default_rng(55)
        for _ in range(10):
            p, q = random_instance(rng)
            cons = {axis: marginal(p, axis) for axis in range(3)}
            res = min_kl_fixed_marginals(q, cons, trace=True)
            limit = res.argmin
            gaps = [kl_divergence(limit, it) for it in res.trace]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later <= earlier + 1e-12

    def test_joint3pmf_input(self):
        q = Joint3Pmf(np.full((2, 2, 2), 0.125))
        res = min_kl_fixed_marginals(q, {2: Pmf([0.9, 0.1])})
        expect = kl_divergence(Pmf([0.9, 0.1]), Pmf([0.5, 0.5]))
        assert res.value == pytest.approx(expect, abs=1e-10)


class TestBruteForce:
    def test_agrees_on_three_bernoullis(self):
        q = np.einsum("a,b,c->abc", [0.75, 0.25], [0.75, 0.25], [0.75, 0.25])
        half = Pmf([0.5, 0.5])
        got = brute_force_min_kl(q, {0: half, 1: half, 2: half}, 0.05)
        assert got == pytest.approx(3 * 0.14384103622589046, abs=10 * 0.05**2)

    def test_agrees_on_feasible_two_axis(self):
        q = np.array([[0.4, 0.1], [0.1, 0.4]])
        got = brute_force_min_kl(q, {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])}, 0.05)
        assert got == pytest.approx(0.0, abs=10 * 0.05**2)

    def test_agrees_on_worked_fixture(self):
        q = np.array([[0.45, 0.45], [0.05, 0.05]])
        got = brute_force_min_kl(q, {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])}, 0.05)
        assert got == pytest.approx(LN_5_3, abs=10 * 0.05**2)

    def test_refinement_tightens(self):
        q = np.array([[0.45, 0.45], [0.05, 0.05]])
        cons = {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])}
        refined = brute_force_min_kl(q, cons, 0.5, refine=4)
        assert refined == pytest.approx(LN_5_3, abs=1e-7)

    def test_coarse_grid_upper_bounds(self):
        q = np.array([[0.45, 0.45], [0.05, 0.05]])
        cons = {0: Pmf([0.5, 0.5]), 1: Pmf([0.5, 0.5])}
        coarse = brute_force_min_kl(q, cons, 0.5)
        assert coarse >= LN_5_3 - 1e-12

    def test_infeasible_support(self):
        q = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(NoFeasiblePoint):
            brute_force_min_kl(q, {0: Pmf([0.5, 0.5])}, 0.1)

    def test_thin_polytope_seeded_from_product_point(self):
        # no point of the 0.1 base grid satisfies these marginals, so the
        # search has to start refinement from the product of the pins
        q = np.array([
            [[0.142914, 0.038817], [0.117523, 0.202564]],
            [[0.249090, 0.203134], [0.000275, 0.045682]],
        ])
        q /= q.sum()
        cons = {
            0: Pmf([0.521337, 0.478663]),
            1: Pmf([0.700993, 0.299007]),
            2: Pmf([0.162024, 0.837976]),
        }
        ipf = min_kl_fixed_marginals(q, cons).value
        grid = brute_force_min_kl(q, cons, 0.1, refine=2)
        assert abs(ipf - grid) <= 1e-3

    def test_dimension_cap(self):
        q = np.full((3, 3, 3), 1 / 27)
        with pytest.raises(DimensionTooLarge):
            brute_force_min_kl(q, {0: Pmf([1 / 3] * 3)}, 0.1)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            p, q = random_instance(rng)
            cons = {axis: marginal(p, axis) for axis in range(3)}
            ipf = min_kl_fixed_marginals(q, cons).value
            grid = brute_force_min_kl(q, cons, 0.1, refine=2)
            assert abs(ipf - grid) <= 1e-3


class TestOrdering:
    def test_more_constraints_larger_value(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            p, q = random_instance(rng)
            targets = {axis: marginal(p, axis) for axis in range(3)}
            theta_local = local_stein_exponent(targets[2], marginal(q, 2))
            theta_sf = min_kl_fixed_marginals(q, {0: targets[0], 2: targets[2]}).value
            theta_fs = min_kl_fixed_marginals(q, {1: targets[1], 2: targets[2]}).value
            theta_sparse = min_kl_fixed_marginals(q, targets).value
            slack = 1e-9
            assert theta_sparse >= theta_sf - slack
            assert theta_sparse >= theta_fs - slack
            assert theta_sf >= theta_local - slack
            assert theta_fs >= theta_local - slack

    def test_single_v_constraint_equals_local(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            p, q = random_instance(rng)
            pv = marginal(p, 2)
            via_ipf = min_kl_fixed_marginals(q, {2: pv}).value
            direct = local_stein_exponent(pv, marginal(q, 2))
            assert via_ipf == pytest.approx(direct, abs=1e-9)


def _marginals(p, axes):
    return {axis: Pmf(p.sum(axis=tuple(a for a in range(p.ndim) if a != axis)))
            for axis in axes}


class TestBoundaryFace:
    def test_boundary_value_exact_and_fast(self):
        p, q = boundary_instance()
        start = time.perf_counter()
        res = min_kl_fixed_marginals(q, _marginals(p, range(3)))
        elapsed = time.perf_counter() - start
        assert abs(res.value - math.log(1.25)) <= 1e-12
        assert elapsed < 1.0
        assert res.residual <= 1e-10
        assert res.face == 2
        assert res.argmin[0, 1, 0] == 0.0
        assert np.allclose(res.argmin, p, atol=1e-12)

    def test_boundary_through_class_projection(self):
        p, q = boundary_instance()
        start = time.perf_counter()
        res = class_projection(ChannelClass.SPARSE, p, q)
        assert time.perf_counter() - start < 1.0
        assert abs(res.value - math.log(1.25)) <= 1e-12
        assert res.face == 2

    def test_interior_face_is_q_support(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p, q = random_instance(rng)
            res = min_kl_fixed_marginals(q, _marginals(p, range(3)))
            assert res.face == np.count_nonzero(q) == 8
        q = np.array([[0.4, 0.0], [0.1, 0.5]])
        res = min_kl_fixed_marginals(q, {0: Pmf([0.5, 0.5])})
        assert res.face == 3

    def test_lyapunov_monotone_across_the_face_switch(self):
        p, q = boundary_instance()
        res = min_kl_fixed_marginals(q, _marginals(p, range(3)), trace=True)
        assert len(res.trace) == res.iterations > 100
        gaps = [kl_divergence(res.argmin, it) for it in res.trace]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-12

    def test_wrong_face_guess_refused(self):
        p, q = boundary_instance()
        cons = _marginals(p, range(3))
        # a loose tol stops IPF at an interior iterate, before any face search
        it = min_kl_fixed_marginals(q, cons, tol=1e-2)
        assert it.face == 3
        steps = _sweep_plan(q, cons)

        def certifies(*cells):
            face = np.zeros(q.shape, dtype=bool)
            for cell in cells:
                face[cell] = True
            return _certifies_face(it.argmin, q, steps, face)

        assert certifies((0, 0, 0), (1, 1, 1))
        # too small: a feasible joint charges the cell left out
        assert not certifies((0, 0, 0))
        assert not certifies((1, 1, 1))
        # wrong cells: the face cell left out is charged, 010 never is
        assert not certifies((0, 0, 0), (0, 1, 0))
        assert not certifies((1, 1, 1), (0, 1, 0))

    def test_interior_instance_certifies_no_face(self):
        rng = np.random.default_rng(8)
        p, q = random_instance(rng)
        cons = _marginals(p, range(3))
        it = min_kl_fixed_marginals(q, cons, tol=1e-3)
        steps = _sweep_plan(q, cons)
        order = np.argsort(-np.log(it.argmin / q), axis=None)
        face = np.zeros(q.shape, dtype=bool)
        for cell in order[:-1]:
            face.flat[cell] = True
            assert not _certifies_face(it.argmin, q, steps, face)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_sparse_support_matches_oracle(self, data):
        # P puts ten tenths on two or three cells, so it is a point of the
        # oracle's 0.1 grid and the set is feasible; Q adds up to three
        # cells and is zero elsewhere. Pinning a sparse P's marginals can
        # force some of Q's cells to zero (15 of the 200 examples, with the
        # hypothesis version this was written against, need the face search)
        dims = data.draw(st.sampled_from([(2, 2, 2), (2, 3), (2, 2)]))
        size = int(np.prod(dims))
        cell = st.integers(0, size - 1)
        p_cells = data.draw(st.lists(cell, min_size=2, max_size=3, unique=True))
        extra = data.draw(st.lists(cell, min_size=1, max_size=3, unique=True))
        q = np.zeros(size)
        for c in sorted(set(p_cells) | set(extra)):
            q[c] = data.draw(st.integers(1, 3))
        q = (q / q.sum()).reshape(dims)
        draws = data.draw(st.lists(st.sampled_from(p_cells), min_size=10, max_size=10))
        p = (np.bincount(draws, minlength=size) / 10).reshape(dims)
        axes = set(range(3)) if len(dims) == 3 else data.draw(
            st.sets(st.integers(0, 1), min_size=1)
        )
        cons = _marginals(p, sorted(axes))
        res = min_kl_fixed_marginals(q, cons)
        grid = brute_force_min_kl(q, cons, 0.1, refine=2)
        assert abs(res.value - grid) <= 1e-3
        assert res.face <= np.count_nonzero(q)
        for axis, target in cons.items():
            got = res.argmin.sum(axis=tuple(a for a in range(len(dims)) if a != axis))
            assert np.abs(got - target.probs).sum() <= 1e-10


def reference_ipf(q, constraints, tol=1e-10, max_iters=10**6):
    """The plain IPF loop, which sums every constrained marginal afresh for
    each update and again for each sweep's residual: the reference that
    min_kl_fixed_marginals must match bit for bit."""
    qa = _unwrap_joint(q)
    steps = _sweep_plan(qa, constraints)
    if not steps:
        return IProjectionResult(0.0, qa.copy(), 0, 0.0, int(np.count_nonzero(qa)))
    p = qa.copy()
    sweeps = 0
    face_check = _FACE_SWEEPS
    while True:
        for axis, target, others, shape in steps:
            m = p.sum(axis=others)
            if m.all():
                factor = target / m
            else:
                dead = m == 0
                unreachable = dead & (target > 0)
                if unreachable.any():
                    sym = int(np.flatnonzero(unreachable)[0])
                    raise NoFeasiblePoint(
                        f"target puts mass {target[sym]:.6g} on symbol {sym} of "
                        f"axis {axis}, but no feasible joint can reach it"
                    )
                factor = np.divide(target, m, out=np.zeros_like(target), where=~dead)
            p *= factor.reshape(shape)
        sweeps += 1
        residual = max([
            float(np.abs(p.sum(axis=others) - target).sum())
            for _, target, others, _ in steps
        ])
        if residual <= tol:
            break
        if sweeps >= max_iters:
            raise NonConvergence(residual, sweeps)
        if sweeps == face_check:
            face_check *= 10
            _restrict_to_face(p, qa, steps)
    return IProjectionResult(
        kl_divergence(p, qa), p, sweeps, residual, int(np.count_nonzero(p))
    )


def assert_same_solve(q, cons, **kwargs):
    """The solver and reference_ipf agree bit for bit: the same value,
    minimizer, sweeps, residual and face, or the same exception."""
    try:
        want = reference_ipf(q, cons, **kwargs)
    except Exception as e:
        with pytest.raises(type(e)) as err:
            min_kl_fixed_marginals(q, cons, **kwargs)
        assert str(err.value) == str(e)
        return None
    got = min_kl_fixed_marginals(q, cons, **kwargs)
    assert got.value == want.value
    assert got.argmin.tobytes() == want.argmin.tobytes()
    assert (got.iterations, got.residual, got.face) == (
        want.iterations, want.residual, want.face
    )
    return got


class TestSweepMatchesReference:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_random_instances(self, data):
        # integer weights 0-3 per cell give zero cells in P and Q; P is
        # either dominated by Q or drawn apart from it, which makes some
        # instances infeasible or stall into the face search
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
        size = int(np.prod(dims))
        weights = st.lists(st.integers(0, 3), min_size=size, max_size=size)
        q = np.array(data.draw(weights), dtype=float)
        q[0] += q.sum() == 0
        p = np.array(data.draw(weights), dtype=float)
        if data.draw(st.booleans()):
            p *= q > 0
        p[int(np.flatnonzero(q)[0])] += p.sum() == 0
        p, q = (p / p.sum()).reshape(dims), (q / q.sum()).reshape(dims)
        axes = sorted(data.draw(st.sets(st.integers(0, 2))))
        tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-2]))
        max_iters = data.draw(st.sampled_from([1, 2, 150, 1200]))
        cons = _marginals(p, axes)
        got = assert_same_solve(q, cons, tol=tol, max_iters=max_iters)
        if got is not None and axes:
            gaps = [
                float(np.abs(got.argmin.sum(axis=tuple(a for a in range(3) if a != axis))
                             - target.probs).sum())
                for axis, target in cons.items()
            ]
            assert got.residual == max(gaps)

    def test_boundary_instance(self):
        p, q = boundary_instance()
        got = assert_same_solve(q, _marginals(p, range(3)))
        assert got.face == 2 and got.iterations > _FACE_SWEEPS
