"""Stein exponents as constrained KL minimizations.

The local exponent is a plain divergence. The richer exponents fix one or
more marginals of a joint and minimize D(. || Q) over that affine family,
computed by cyclic iterative proportional fitting. A grid-search oracle
over the same feasible set, with the equality constraints eliminated
exactly, backs the iterative answer in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooLarge, NoFeasiblePoint, NonConvergence
from .prob import Joint3Pmf, Pmf, _as_count, _as_prob_array, _Checked, kl_divergence

_MAX_BRUTE_CELLS = 8
_FACE_SWEEPS = 100  # IPF sweeps before the first search for a boundary face
_CERT_TOL = 1e-12  # mass a certified face may leave off, for any feasible joint


@dataclass(frozen=True)
class MarginalConstraintSet(_Checked):
    """Targets for a subset of axes, at most one per axis."""

    constraints: tuple

    def __post_init__(self):
        cons = self.constraints
        if isinstance(cons, dict):
            cons = sorted(cons.items())
        norm = []
        seen = set()
        for axis, target in cons:
            axis = _as_count("axis", axis, least=0)
            if axis in seen:
                raise ValueError(f"axis {axis} constrained twice")
            seen.add(axis)
            norm.append((axis, Pmf.of(target)))
        object.__setattr__(self, "constraints", tuple(norm))

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)


@dataclass(frozen=True)
class IProjectionResult:
    """face is the number of cells where argmin is positive: the support
    of Q on interior instances, fewer when the projection lies on the
    boundary of the simplex."""

    value: float
    argmin: np.ndarray
    iterations: int
    residual: float
    face: int
    trace: tuple = field(default=(), repr=False)


def local_stein_exponent(p_v: Pmf, q_v: Pmf) -> float:
    """Best error exponent with no channel help: D(P_V || Q_V)."""
    return kl_divergence(Pmf.of(p_v), Pmf.of(q_v))


def _unwrap_joint(q):
    if isinstance(q, Joint3Pmf):
        return q.probs
    arr = np.asarray(q, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"joint must have 2 or 3 axes, got {arr.ndim}")
    return _as_prob_array(arr, arr.ndim, "joint")


def _normalize_constraints(q: np.ndarray, constraints) -> list:
    out = []
    for axis, target in MarginalConstraintSet.of(constraints):
        if axis >= q.ndim:
            raise ValueError(f"axis {axis} out of range for {q.ndim}-axis joint")
        if target.alphabet_size != q.shape[axis]:
            raise ValueError(
                f"target on axis {axis} has size {target.alphabet_size}, "
                f"joint axis has size {q.shape[axis]}"
            )
        out.append((axis, target.probs))
    return out


def min_kl_fixed_marginals(
    q,
    constraints,
    tol: float = 1e-10,
    max_iters: int = 10**6,
    trace: bool = False,
) -> IProjectionResult:
    """I-projection of Q onto the set of joints with the given marginals.

    Returns the minimizing joint, the divergence value, the number of full
    sweeps, the final residual (largest L1 gap between a constrained
    marginal and its target) and the size of the face the minimizer lies
    on. Cells where Q vanishes stay zero, since the updates are
    multiplicative. With trace=True the per-sweep iterates are kept, which
    tests use to confirm the distance to the final point is non-increasing
    sweep over sweep.

    When the constraints force some Q-supported cells to zero, IPF creeps
    toward the boundary like 1/k. Every _FACE_SWEEPS, 10 _FACE_SWEEPS, ...
    sweeps the solver therefore looks for that face (see
    _restrict_to_face) and, once a certificate proves it, carries on from
    the iterate restricted to it, where convergence is geometric.
    """
    qa = _unwrap_joint(q)
    cons = _normalize_constraints(qa, constraints)
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    max_iters = _as_count("max_iters", max_iters)

    if not cons:
        return IProjectionResult(0.0, qa.copy(), 0, 0.0, int(np.count_nonzero(qa)))

    steps = _sweep_plan(qa.ndim, cons)
    p = qa.copy()
    iterates = []
    sweeps = 0
    face_check = _FACE_SWEEPS
    first = None  # the first step's marginal of p, if summed since p changed
    while True:
        for axis, target, others, shape in steps:
            m = p.sum(axis=others) if first is None else first
            first = None
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
        if trace:
            iterates.append(p.copy())
        # the residual is the max of the steps' gaps in step order, read
        # only as far as the loop needs it: one gap above tol means another
        # sweep, so the last step's gap, at rounding level since that axis
        # was just fitted, is read only once every other gap is within tol
        gaps = []
        for _, target, others, _ in steps:
            m = p.sum(axis=others)
            first = m if first is None else first
            gaps.append(float(np.abs(m - target).sum()))
            if gaps[-1] > tol and sweeps < max_iters:
                break
        if len(gaps) == len(steps):
            residual = max(gaps)
            if residual <= tol:
                break
            if sweeps >= max_iters:
                raise NonConvergence(residual, sweeps)
        if sweeps == face_check:
            face_check *= 10
            if _restrict_to_face(p, qa, steps):
                first = None

    value = kl_divergence(p, qa)
    return IProjectionResult(
        value, p, sweeps, residual, int(np.count_nonzero(p)), tuple(iterates)
    )


def _sweep_plan(ndim: int, cons) -> list:
    """Per constrained axis: the axis, its target, the axes its marginal
    sums out, and the shape that broadcasts a per-symbol factor along it."""
    steps = []
    for axis, target in cons:
        shape = [1] * ndim
        shape[axis] = -1
        others = tuple(a for a in range(ndim) if a != axis)
        steps.append((axis, target, others, tuple(shape)))
    return steps


def _restrict_to_face(p: np.ndarray, q: np.ndarray, steps) -> bool:
    """Zero the IPF iterate p, in place, off the face of the feasible set
    if _certifies_face proves one; returns whether it did.

    Off the face the log-ratios log(p/q) drift to -inf, while on it they
    converge (Csiszar 1975), so the guesses are the top sets of the
    log-ratios over the live cells (p > 0), smallest first. Every certified
    guess contains the face, so the first one found is the smallest.
    """
    live = np.flatnonzero(p)
    flat_p = p.reshape(-1)
    ratio = np.log(flat_p[live] / q.reshape(-1)[live])
    order = live[np.argsort(-ratio, kind="stable")]
    face = np.zeros(p.shape, dtype=bool)
    for cell in order[:-1]:
        face.flat[cell] = True
        if _certifies_face(p, q, steps, face):
            flat_p[~face.reshape(-1)] = 0.0
            return True
    return False


def _certifies_face(p: np.ndarray, q: np.ndarray, steps, face: np.ndarray) -> bool:
    """Whether a Farkas vector proves that every feasible joint supported
    on the live cells of the IPF iterate p (p > 0) puts at most _CERT_TOL
    of mass on live cells outside the boolean mask face.

    A cell that p holds at zero stays zero under IPF's multiplicative
    updates (a symbol with target 0 zeroes its cells in the first sweep),
    so only the live cells count. On them, log(p/q) = A^T lam, where A
    has one 0/1 row per constrained (axis, symbol) and lam, found by
    elimination, holds the multipliers IPF has accumulated (up to a part
    that A^T maps to zero on the live cells). The candidate y is the projection of
    -lam onto null(A_F^T), F the live cells on the face. Then s = A^T y
    vanishes on F, and the guess is accepted only if s >= s_min > 0 on
    every other live cell while b^T y, b the stacked targets, vanishes too.
    Any feasible R has sum over live cells off F of s R = b^T y - sum over
    F of s R, so its mass off F is at most (|b^T y| + max_F |s|) / s_min.
    A guess that leaves out a cell some feasible joint charges has
    b^T y > 0 there, so it is refused.
    """
    live = np.flatnonzero(p)
    on = face.reshape(-1)[live]
    if on.all():
        return False
    cells = np.unravel_index(live, p.shape)
    a = np.concatenate([
        cells[axis][None, :] == np.arange(target.size)[:, None]
        for axis, target, _, _ in steps
    ]).astype(float)
    b = np.concatenate([target for _, target, _, _ in steps])
    ratio = np.log(p.reshape(-1)[live] / q.reshape(-1)[live])
    try:
        _, lam_piv, piv = _reduce_system(a.T, ratio)
    except NoFeasiblePoint:  # log(p/q) off the row space of A beyond rounding
        return False
    lam = np.zeros(b.size)
    lam[piv] = lam_piv
    # y is -lam less its projection on the span of A's face columns, found
    # by Gram-Schmidt in plain array arithmetic: the first LAPACK call of a
    # process adds 1.3-1.5 MB of resident memory (lstsq 1.3, pinv 1.45;
    # numpy 2.4, x86-64 Linux), and no CLI path makes one, which
    # tests/test_cli.py::TestNoLapack checks
    y = -lam
    basis = []
    for col in a[:, on].T:
        for u in basis:
            col = col - (col * u).sum() * u
        norm = np.sqrt((col * col).sum())
        if norm > 1e-9:
            basis.append(col / norm)
    for u in basis:
        y = y - (y * u).sum() * u
    s = (a * y[:, None]).sum(axis=0)
    s_min = s[~on].min()
    if s_min <= 0:
        return False
    slack = max(float(np.abs(s[on]).max(initial=0.0)), abs(float((b * y).sum())))
    return slack <= _CERT_TOL * s_min


def _constraint_rows(shape, cons, qflat):
    """Equality system A x = b over flattened cells: total mass, one row per
    constrained symbol, and a pin-to-zero row per unsupported cell of Q."""
    cells = int(np.prod(shape))
    rows = [np.ones(cells)]
    rhs = [1.0]
    grids = np.indices(shape).reshape(len(shape), cells)
    for axis, target in cons:
        for sym in range(shape[axis]):
            rows.append((grids[axis] == sym).astype(float))
            rhs.append(float(target[sym]))
    for cell in np.flatnonzero(qflat == 0):
        row = np.zeros(cells)
        row[cell] = 1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def _reduce_system(a, b, tol=1e-11):
    """Gauss-Jordan elimination; returns reduced rows, rhs, pivot columns."""
    a = a.copy()
    b = b.copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        lead = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[lead, c]) <= tol:
            continue
        a[[r, lead]] = a[[lead, r]]
        b[[r, lead]] = b[[lead, r]]
        b[r] /= a[r, c]
        a[r] /= a[r, c]
        others = np.flatnonzero(np.abs(a[:, c]) > 0)
        others = others[others != r]
        if others.size:
            b[others] -= a[others, c] * b[r]
            a[others] -= np.outer(a[others, c], a[r])
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if np.all(np.abs(a[i]) <= tol) and abs(b[i]) > 1e-9:
            raise NoFeasiblePoint("marginal targets are mutually inconsistent")
    return a[:r], b[:r], pivots


def brute_force_min_kl(q, constraints, grid_step: float, refine: int = 0) -> float:
    """Exhaustive grid search over the same feasible set, used as a test
    oracle for min_kl_fixed_marginals.

    The equality constraints are eliminated exactly: a subset of cells
    (grid variables) is enumerated on a grid of the given step, the rest
    are solved from the linear system, and candidates with any negative
    solved cell are discarded. refine > 0 re-grids a shrinking box around
    the incumbent with a tenth of the step, which is sound here because
    the objective is convex over a polytope.
    """
    qa = _unwrap_joint(q)
    if qa.size > _MAX_BRUTE_CELLS:
        raise DimensionTooLarge(
            f"{qa.size} cells exceed the {_MAX_BRUTE_CELLS}-cell limit"
        )
    if not (0 < grid_step < 1):
        raise ValueError("grid_step must lie in (0, 1)")
    refine = _as_count("refine", refine, least=0)
    cons = _normalize_constraints(qa, constraints)
    qflat = qa.ravel()
    a, b = _constraint_rows(qa.shape, cons, qflat)
    ared, bred, pivots = _reduce_system(a, b)
    free = [c for c in range(qflat.size) if c not in pivots]

    # each cell is capped by the smallest budget of a constraint row it
    # belongs to (all row coefficients are 0/1)
    caps = np.ones(qflat.size)
    for row, rhs in zip(a, b):
        members = row > 0
        caps[members] = np.minimum(caps[members], rhs)

    pos = np.flatnonzero(qflat)
    logq = np.zeros(qflat.size)
    logq[pos] = np.log(qflat[pos])

    def in_box(x):
        return (x >= -1e-9) & (x <= 1 + 1e-9)

    def kl_term(x, cell):
        # a solved cell within 1e-9 below zero counts as zero
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0, x * (np.log(x) - logq[cell]), 0.0)

    def evaluate(points):
        """points: per-free-cell 1-d grids; returns (best value, best free
        assignment) over all feasible combinations, or (inf, None).

        The combinations are the grids' outer product in row-major order,
        cut into chunks of at most `batch` points: a few leading grids
        pinned to one value each, a slab of the next, all of the rest.
        Solved cells and the free cells' KL terms are built by
        broadcasting, and the solved cells' terms only at feasible points.
        """
        if free:
            grids, mfree = list(points), ared[:, free]
        else:
            grids, mfree = [np.zeros(1)], np.zeros((len(pivots), 1))
        lens = [g.size for g in grids]
        batch = 1 << 17
        lead = 0
        while int(np.prod(lens[lead:])) > batch:
            lead += 1
        slab = batch // max(1, int(np.prod(lens[lead:])))
        best_val, best_x = np.inf, None
        for prefix in itertools.product(*(range(n) for n in lens[:max(lead - 1, 0)])):
            slabs = range(0, lens[lead - 1], slab) if lead else [None]
            for start in slabs:
                sub = [g[i:i + 1] for g, i in zip(grids, prefix)]
                if lead:
                    sub.append(grids[lead - 1][start:start + slab])
                sub += grids[lead:]
                val, x = evaluate_chunk(sub, mfree)
                if val < best_val:
                    best_val, best_x = val, x
        return best_val, best_x

    def evaluate_chunk(sub, mfree):
        """evaluate over the outer product of the 1-d grids in sub."""
        ndim = len(sub)

        def along(j, v):
            return v.reshape([-1 if i == j else 1 for i in range(ndim)])

        feas = np.ones([g.size for g in sub], dtype=bool)
        for j, g in enumerate(sub):
            ok = in_box(g)
            if not ok.all():
                feas &= along(j, ok)
        solved = []
        for k in range(len(pivots)):
            acc = along(0, sub[0] * mfree[k, 0])
            for j in range(1, ndim):
                acc = acc + along(j, sub[j] * mfree[k, j])
            cell = bred[k] - acc
            feas &= in_box(cell)
            solved.append(cell)
        idx = np.nonzero(feas)
        count = idx[0].size
        if not count:
            return np.inf, None
        terms = np.empty((count, pos.size))
        for col, cell in enumerate(pos):
            if cell in pivots:
                terms[:, col] = kl_term(solved[pivots.index(cell)][idx], cell)
            else:
                j = free.index(cell)
                terms[:, col] = kl_term(sub[j], cell)[idx[j]]
        vals = terms.sum(axis=1)
        # any mass on an unsupported cell of Q is pinned to zero by the
        # constraint rows, so no infinite term can appear here
        m = int(np.argmin(vals))
        x = np.array([sub[j][idx[j][m]] for j in range(len(free))])
        return float(vals[m]), x

    step = grid_step
    base_points = [np.arange(0.0, min(1.0, caps[c]) + step / 2, step) for c in free]
    best_val, best_x = evaluate(base_points)
    if not np.isfinite(best_val):
        # a thin polytope can slip between coarse grid points, but the outer
        # product of the pinned marginals (uniform on free axes) satisfies
        # every constraint, so refinement can start from there
        pinned = dict(cons)
        seed = np.ones(())
        for axis, size in enumerate(qa.shape):
            seed = np.multiply.outer(
                seed, pinned.get(axis, np.full(size, 1.0 / size))
            )
        seed = seed.ravel()
        if np.any(seed[qflat == 0] > 0):
            raise NoFeasiblePoint(
                "constraints put mass outside the support of q"
            )
        best_val, best_x = evaluate([np.array([seed[c]]) for c in free])
        if not np.isfinite(best_val):
            raise NoFeasiblePoint("no feasible point on the search grid")

    for _ in range(refine):
        finer = step / 10
        # re-center the window until no improvement: on a coarse grid the
        # feasibility filter can strand the incumbent a few boxes away from
        # the true basin, and convexity guarantees each re-centering that
        # improves the value walks toward it
        while True:
            points = []
            for j, c in enumerate(free):
                lo = max(0.0, best_x[j] - step)
                hi = min(min(1.0, caps[c]), best_x[j] + step)
                points.append(np.arange(lo, hi + finer / 2, finer))
            val, x = evaluate(points)
            if np.isfinite(val) and val < best_val - 1e-13:
                best_val, best_x = val, x
            else:
                break
        step = finer

    return best_val
