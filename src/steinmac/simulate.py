"""Error-probability estimation for (problem, channel, scheme) triples.

Three estimators with one reproducibility contract:

* direct Monte-Carlo, trial-coupled across hypotheses: both draw their
  joint-cell counts from one generator state and share marker presence,
  decided once per block from each signalling sensor's on-input kernel
  row (the off input cannot produce the marker, so its row is never
  read), so identical P and Q give alpha + beta = 1 exactly;
* exact probabilities from a dynamic program over the symbol counts of
  the axes the decision rule actually reads, times the closed-form marker
  acceptance factor; InstanceTooLarge caps the count lattice at
  _MAX_STATES states and its work at _MAX_STEP_STATES steps times states;
* importance sampling of the type-2 error, tilted by the I-projection
  minimizer, the centre of the typicality box. Where the window mu binds,
  the accepted sequences that dominate the error event lie at the box's
  edge, at the minimizer of E_mu (the least D(R||Q) over joints R whose
  read marginals lie within mu of P's), which this tilt rarely draws.

All three read one plan per call (_read_plan): the incidence matrix from
joint cells to the symbols the rule reads, which sums sampled counts and
gives each DP move, and those symbols' count intervals (prob.typical_bounds,
as Scheme.decide uses). A cell showing a symbol whose interval is [0, 0] is
rejected outright: the DP drops it, and only there may an importance tilt
be zero on Q's support. All accept through Scheme.accept_weights, direct
Monte-Carlo with the markers it drew.

All randomness is derived from (seed, block index), never from thread
scheduling, and block results are reduced in block order, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import Dmmac
from .channels import gg_sample  # noqa: F401  (bench traces it by name)
from .errors import (
    DegenerateFit,
    InstanceTooLarge,
    OutOfRange,
    ZeroTiltOnSupport,
)
from .exponents import min_kl_fixed_marginals
from .prob import Joint3Pmf, _as_count, _charged_cells, typical_bounds
from .prob import quantile_map  # noqa: F401  (bench traces it by name)
from .schemes import class_exponent  # noqa: F401  (bench traces it by name)
from .schemes import (
    Scheme,
    _checked_budget,
    build_scheme_for_class,
    class_projection,
    pinned_axes,
)

_BLOCK = 2048
_MAX_STATES = 4_000_000  # marginal-count lattice states of an exact run
_MAX_STEP_STATES = 1_000_000_000  # n times those states: ~16 s on one core
_WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class TestProblem:
    """Null joint P against alternative joint Q, P absolutely continuous
    w.r.t. Q (otherwise no finite exponent statement makes sense)."""

    __test__ = False  # the Test prefix is statistical, not a pytest case

    p: Joint3Pmf
    q: Joint3Pmf

    def __post_init__(self):
        p, q = Joint3Pmf.of(self.p), Joint3Pmf.of(self.q)
        if p.dims != q.dims:
            raise ValueError(f"dims mismatch: {p.dims} vs {q.dims}")
        _charged_cells(p.probs, q.probs)  # raises unless P << Q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


_ESTIMATORS = ("direct", "importance", "exact")


@dataclass(frozen=True)
class SimConfig:
    n_ladder: tuple
    trials: int
    master_seed: int
    mu: float
    cost_model: object = None
    estimator: str = "direct"
    workers: int = 1

    def __post_init__(self):
        # entries are bounded below by the list-level check that follows
        ladder = tuple(_as_count("n_ladder", n, least=-math.inf) for n in self.n_ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise OutOfRange("n_ladder", "must be a nonempty strictly increasing list")
        if ladder[0] < 1:
            raise OutOfRange("n_ladder", "must hold blocklengths >= 1")
        object.__setattr__(self, "n_ladder", ladder)
        for name, least in (("trials", 1), ("master_seed", 0), ("workers", 1)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), least))
        if self.estimator not in _ESTIMATORS:
            raise OutOfRange("estimator", f"must be one of {_ESTIMATORS}")
        if not (0 < self.mu < 1):
            raise OutOfRange("mu", "must lie in (0, 1)")


@dataclass(frozen=True)
class LadderPoint:
    n: int
    estimator: str
    alpha_hat: float
    alpha_lo: float
    alpha_hi: float
    beta_hat: float
    beta_lo: float
    beta_hi: float
    beta_std_err: float | None = None


@dataclass(frozen=True)
class SimReport:
    points: tuple
    fitted_exponent: float | None
    theoretical_exponent: float
    seed: int

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(
            "n,estimator,alpha_hat,alpha_lo,alpha_hi,"
            "beta_hat,beta_lo,beta_hi,"
            "fitted_exponent,theoretical_exponent,seed\n"
        )
        fitted = self.fitted_exponent
        fit_str = _fmt(fitted) if fitted is not None else "nan"
        for pt in self.points:
            probs = (pt.alpha_hat, pt.alpha_lo, pt.alpha_hi,
                     pt.beta_hat, pt.beta_lo, pt.beta_hi)
            cols = [str(pt.n), pt.estimator, *map(_fmt, probs), fit_str,
                    _fmt(self.theoretical_exponent), str(self.seed)]
            out.write(",".join(cols) + "\n")
        return out.getvalue()


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval; behaves sensibly at 0 and n successes."""
    trials = _as_count("trials", trials)
    successes = _as_count("successes", successes, least=-math.inf)
    if not (0 <= successes <= trials):
        raise OutOfRange("successes", "must lie in [0, trials]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # the score bound touches the boundary exactly at 0 and n successes;
    # keep it exact instead of leaving cancellation residue
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's block pool of `workers` threads, built on first use and
    kept for the life of the process: starting and joining an executor
    costs several maps on a live one, and a ladder maps twice per rung."""
    return ThreadPoolExecutor(max_workers=workers)


# a forked child inherits the cached executors but not their threads, so
# its first map would wait forever; it builds its own pools instead
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(trials: int, seed, workers: int, block_fn) -> list:
    """block_fn(seed_seq, count) over blocks of at most _BLOCK trials, each
    seeded from (seed, block index); results come back in block order.
    The pool holds at most one thread per usable core: the executor starts
    a thread per submitted block while none is idle."""
    counts = [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]
    entropy = seed if isinstance(seed, (tuple, list)) else (int(seed),)
    seeds = [np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(len(counts))]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cores or 1)
    if workers > 1:
        return list(_pool(workers).map(block_fn, seeds, counts))
    return [block_fn(s, c) for s, c in zip(seeds, counts)]


def _read_plan(dims, scheme: Scheme) -> tuple:
    """(incidence, bounds): what the rule reads of a joint over `dims`, the
    one plan of every estimator. incidence is the 0/1 matrix (read symbols,
    cells) from the joint cells to the symbols of every axis the rule
    reads, or None in place of the identity: when the rule reads one axis
    and the joint has no other, the cell counts are that axis's counts.
    bounds is (lo, hi, rows): every read symbol's typical count interval,
    stacked axis by axis as columns (read symbols, 1), and each read axis's
    slice of those rows. Raises ValueError if a read axis's reference pmf
    and the joint's axis differ in size."""
    axes = pinned_axes(scheme.cls)
    lo, hi, rows, start = [], [], {}, 0
    for a in axes:
        size = scheme.ref(a).alphabet_size
        if size != dims[a]:
            raise ValueError(
                f"reference on axis {a} has size {size}, joint axis has size {dims[a]}")
        a_lo, a_hi = typical_bounds(scheme.ref(a), scheme.mu, scheme.n)
        lo.append(a_lo)
        hi.append(a_hi)
        rows[a] = slice(start, start + a_lo.size)
        start += a_lo.size
    bounds = np.concatenate(lo)[:, None], np.concatenate(hi)[:, None], rows
    cells = math.prod(dims)
    if len(axes) == 1 and cells == dims[axes[0]]:
        return None, bounds
    symbol = np.unravel_index(np.arange(cells), dims)
    return np.concatenate([np.eye(dims[a])[:, symbol[a]] for a in axes]), bounds


def _rejected_cells(plan: tuple) -> np.ndarray:
    """Per cell, whether every sequence that shows it is rejected: the cell
    shows a read symbol whose interval holds no count above 0, [0, 0] (as
    a symbol of reference probability zero gets) or an empty one."""
    incidence, (_, hi, _) = plan
    dead = hi[:, 0] <= 0
    return dead if incidence is None else dead @ incidence > 0


def _typicality_flags(sums: np.ndarray, bounds: tuple) -> dict:
    """Typicality flag of every read axis, per column of sums (read
    symbols, trials): every symbol count of the axis inside its interval.
    `bounds` is _read_plan's."""
    lo, hi, rows = bounds
    inside = (sums >= lo) & (sums <= hi)
    return {axis: inside[r].all(axis=0) for axis, r in rows.items()}


def _read_flags(counts: np.ndarray, plan: tuple) -> dict:
    """Typicality flag of every axis the rule reads, per row of counts."""
    incidence, bounds = plan
    # symbols by trials, so each comparison runs along a contiguous row of
    # trials; exact in floats: every symbol count is an integer <= n < 2**53
    sums = np.ascontiguousarray(counts.T) if incidence is None else incidence @ counts.T
    return _typicality_flags(sums, bounds)


def _marker_shown(row: np.ndarray, marker: int, u: np.ndarray) -> np.ndarray:
    """Whether some slot of each row of u shows the marker output, the slot
    drawn from the kernel row by inverse cdf: quantile_map(row, u) ==
    marker exactly when u lies in [cdf[marker - 1], cdf[marker]), open
    below at the first output and above at the last, as quantile_map
    clips. Only the finite ends are compared: an open end passes every
    slot."""
    cdf = np.cumsum(row)
    inside = None
    if marker > 0:
        inside = u >= cdf[marker - 1]
    if marker < row.size - 1:
        below = u < cdf[marker]
        inside = below if inside is None else inside & below
    if inside is None:  # a one-output row: every slot shows its output
        inside = np.ones(u.shape, dtype=bool)
    # numpy reduces a few long rows several times faster than many rows of
    # k slots: a (2048, 10) block takes about 20 us this way against 70 us
    # (numpy 2.4, one core of a 2-vCPU Xeon)
    return np.ascontiguousarray(inside.T).any(axis=0)


def _direct_block(problem, channel, scheme, plan, seed_seq, count, sides):
    rng = np.random.default_rng(seed_seq)
    # marker presence is decided before branching on the hypothesis, and
    # each hypothesis's counts are drawn from the same generator state, so
    # the two runs share all their randomness and a one-sided run reads
    # the same draws as a two-sided one
    shown = []
    for sensor in scheme.cls.signalling:
        w = scheme.markers.witness(sensor)
        u = rng.random((count, scheme.k))
        shown.append(_marker_shown(w.row(channel, sensor, w.on_input), w.marker_output, u))
    # a one-sided run draws once, so only a two-sided one needs the snapshot
    start = rng.bit_generator.state if {"null", "alt"} <= set(sides) else None
    accepted = {}
    for side, joint in (("null", problem.p), ("alt", problem.q)):
        if side in sides:
            if start is not None:
                rng.bit_generator.state = start
            counts = rng.multinomial(scheme.n, joint.probs.ravel(), size=count)
            flags = _read_flags(counts, plan)  # the drawn markers are the hits
            accepted[side] = int(np.count_nonzero(scheme.accept_weights(flags, shown)))
    return count - accepted.get("null", count), accepted.get("alt", 0)


def run_trials(
    problem: TestProblem,
    channel,
    scheme: Scheme,
    n: int,
    trials: int,
    seed,
    workers: int = 1,
    sides: tuple = ("null", "alt"),
) -> LadderPoint:
    """Direct Monte-Carlo of both error probabilities, as a ladder rung
    with estimator "direct"; a side that is not run reads nan.

    Each trial's joint-cell counts are one multinomial draw, made from the
    same generator state under both hypotheses, and the marker-slot channel
    draws share their uniforms, so the estimates are trial-coupled: with
    P = Q every trial rejects under exactly one hypothesis and
    alpha_hat + beta_hat = 1 exactly.
    """
    if n != scheme.n:
        raise ValueError(f"scheme was built for n={scheme.n}, got n={n}")
    trials = _as_count("trials", trials)
    bad = set(sides) - {"null", "alt"}
    if bad or not sides:
        raise ValueError(f"sides must be a nonempty subset of ('null','alt')")
    if scheme.cls.signalling and not isinstance(channel, Dmmac):
        raise TypeError("marker schemes need a discrete channel kernel")
    plan = _read_plan(problem.p.dims, scheme)
    results = _map_blocks(trials, seed, workers, lambda seed_seq, count: _direct_block(
        problem, channel, scheme, plan, seed_seq, count, sides
    ))
    rejects, accepts = map(sum, zip(*results))
    a_hat = rejects / trials if "null" in sides else math.nan
    b_hat = accepts / trials if "alt" in sides else math.nan
    a_lo, a_hi = wilson_interval(rejects, trials) if "null" in sides else (math.nan,) * 2
    b_lo, b_hi = wilson_interval(accepts, trials) if "alt" in sides else (math.nan,) * 2
    return LadderPoint(n, "direct", a_hat, a_lo, a_hi, b_hat, b_lo, b_hi)


# --- exact error probabilities ---


def _exact_accept_prob(joint: Joint3Pmf, scheme: Scheme) -> float:
    """P(decide 0) when the source triple is iid from `joint`.

    The rule reads only the symbol counts of each read axis, so this is a
    dynamic program over the lattice of those counts: one dimension per
    read symbol of _read_plan except each axis's likeliest reference
    symbol, whose count follows from n, and except a symbol whose typical
    count is at most 0: a cell that shows such a symbol is rejected for
    good (_rejected_cells). Counts only grow, so a count above its
    symbol's interval is dropped for good too.

    The lattice is stored flat, dimensions by decreasing cap, each with
    one overflow slot past its cap, so a cell's move is one fixed offset,
    the sum of the strides of the dimensions it raises: the read symbols'
    strides times the cell's incidence column. Each of the n steps
    adds, for every cell of the support, the cell's probability times the
    lattice shifted by that offset, over the prefix the step can reach,
    then zeroes the overflow slots. Each step rescales the lattice by a
    power of two, which loses no precision, so no state underflows while
    pruning drains the mass.
    """
    axes = pinned_axes(scheme.cls)
    drop = tuple(a for a in range(3) if a not in axes)
    reduced = joint.probs.sum(axis=drop, keepdims=True) if drop else joint.probs
    n = scheme.n
    incidence, bounds = plan = _read_plan(reduced.shape, scheme)
    caps, rows = bounds[1][:, 0].tolist(), bounds[2]

    # each axis's likeliest reference symbol: its count follows from n
    free = [r.start + int(np.argmax(scheme.ref(a).probs)) for a, r in rows.items()]
    order = sorted((d for d, c in enumerate(caps) if c > 0 and d not in free),
                   key=lambda d: -caps[d])
    shape = [caps[d] + 2 for d in order]  # counts 0..cap, then overflow
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    stride_of = np.zeros(len(caps))
    stride_of[order] = strides
    size = math.prod(shape)
    pad = sum(strides)  # the largest move, so every shifted slice fits
    states = size + pad
    if states > _MAX_STATES:
        raise InstanceTooLarge(
            f"{states} padded lattice states exceed the {_MAX_STATES} cap"
        )
    if n * states > _MAX_STEP_STATES:
        raise InstanceTooLarge(
            f"{n} steps over {states} padded lattice states exceed the "
            f"{_MAX_STEP_STATES} step-state cap"
        )

    probs = reduced.ravel()
    live = (probs > 0) & ~_rejected_cells(plan)
    # (cell probability, flat offset of the cell's move), in cell order
    offsets = stride_of if incidence is None else stride_of @ incidence
    moves = list(zip(probs[live].tolist(), offsets[live].astype(int).tolist()))
    box = tuple(slice(0, -1) for _ in shape)  # the states with no overflow
    keep = np.zeros(states)  # 1.0 on the in-box states: a float multiply casts nothing
    keep[:size].reshape(shape)[box] = 1.0
    lead_cap, lead_stride = (caps[order[0]], strides[0]) if order else (0, 1)
    lat = np.zeros(states)
    lat[0] = 1.0
    nxt = np.zeros(states)
    tmp = np.empty(states)
    exp2 = 0  # lat times 2**exp2 is the probability of each count vector
    for t in range(n):
        # before this step no count exceeds min(t, cap), so every reached
        # state lies in the prefix whose lead count is at most min(t, cap)
        m = (min(t, lead_cap) + 1) * lead_stride
        src, part, out = lat[:m], tmp[:m], nxt[:m + pad]
        out.fill(0.0)
        for p, off in moves:
            np.multiply(src, p, out=part)
            dst = out[off:off + m]
            np.add(dst, part, out=dst)
        out *= keep[:m + pad]
        peak = out.max()
        if peak == 0.0:
            return 0.0
        e = max(math.frexp(peak)[1], -1000)  # keeps 2.0 ** -e finite
        out *= 2.0 ** -e
        exp2 += e
        lat, nxt = nxt, lat

    lat = lat[:size].reshape(shape)[box]
    # every read symbol's count at every in-box state, states in C order; a
    # symbol with no dimension counts 0, and a lattice with no dimension
    # has one state
    sums = np.zeros((len(caps), lat.size), dtype=np.int64)
    sums[order] = np.indices(lat.shape).reshape(len(order), lat.size)
    for f, r in zip(free, rows.values()):
        sums[f] = n - sums[r].sum(axis=0)  # sums[f] is still 0
    flags = {a: flag.reshape(lat.shape) for a, flag in _typicality_flags(sums, bounds).items()}
    total = float(np.sum(lat * scheme.accept_weights(flags)))
    return math.ldexp(total, exp2)


def exact_error_probs(problem: TestProblem, channel, scheme: Scheme, n: int) -> tuple:
    """Exact (alpha, beta) for schemes whose decision factors through the
    typicality flags and marker presence; every scheme built here does.

    The channel enters only through the marker probabilities already baked
    into the scheme, so it is accepted for signature symmetry with the
    sampling estimators and otherwise unused.
    """
    if n != scheme.n:
        raise ValueError(f"scheme was built for n={scheme.n}, got n={n}")
    alpha = 1.0 - _exact_accept_prob(problem.p, scheme)
    beta = _exact_accept_prob(problem.q, scheme)
    return (min(max(alpha, 0.0), 1.0), min(max(beta, 0.0), 1.0))


# --- importance sampling ---


def default_tilt(problem: TestProblem, scheme: Scheme) -> Joint3Pmf:
    """I-projection of Q onto the scheme's pinned marginals: the source
    distribution at the centre of the typicality box. Where the window mu
    binds, E_mu's minimizer at the box's edge dominates the type-2 error
    event instead, and this tilt underestimates beta."""
    cons = {axis: scheme.ref(axis) for axis in pinned_axes(scheme.cls)}
    return _as_tilt(min_kl_fixed_marginals(problem.q, cons).argmin)


def _as_tilt(argmin: np.ndarray) -> Joint3Pmf:
    """An I-projection minimizer as a sampling pmf: rounding residue below
    zero is clipped and the rest renormalised."""
    argmin = np.maximum(argmin, 0.0)
    return Joint3Pmf(argmin / argmin.sum())


def _check_tilt(problem: TestProblem, tilt: Joint3Pmf, plan: tuple) -> None:
    """A tilt may place zero mass on a Q-supported cell only if every
    sequence that shows the cell is rejected outright: the cells the exact
    DP drops, which show a read symbol whose typical interval is [0, 0].
    `plan` is the scheme's _read_plan over the problem's dims."""
    qa = problem.q.probs
    ta = tilt.probs
    if ta.shape != qa.shape:
        raise ValueError(f"tilt dims {ta.shape} do not match problem dims {qa.shape}")
    live = (ta == 0) & (qa > 0) & ~_rejected_cells(plan).reshape(qa.shape)
    if live.any():
        cell = tuple(int(i) for i in np.argwhere(live)[0])
        raise ZeroTiltOnSupport(
            f"tilt is zero at cell {cell} where Q is positive and "
            "acceptance is possible"
        )


def _is_block(scheme, plan, tilt_flat, log_ratio, outside, seed_seq, count):
    """Returns (hi, s1, s2): the largest log contribution, and the sums of
    the contributions and of their squares scaled by exp(-hi), exp(-2 hi).
    A trial that samples a cell of `outside` (tilted, outside Q's support)
    has weight zero."""
    rng = np.random.default_rng(seed_seq)
    counts = rng.multinomial(scheme.n, tilt_flat, size=count)
    acc = scheme.accept_weights(_read_flags(counts, plan))

    with np.errstate(divide="ignore"):
        contrib = counts @ log_ratio + np.log(acc)
    if outside.size:
        contrib[counts[:, outside].any(axis=1)] = -np.inf
    contrib = contrib[np.isfinite(contrib)]
    if contrib.size == 0:
        return -np.inf, 0.0, 0.0
    hi = contrib.max()
    scaled = np.exp(contrib - hi)
    return hi, scaled.sum(), (scaled * scaled).sum()


def importance_sample_beta(
    problem: TestProblem,
    channel,
    scheme: Scheme,
    n: int,
    trials: int,
    tilt=None,
    seed=None,
    workers: int = 1,
) -> tuple:
    """Estimate beta by sampling sources from `tilt` and weighting each
    accepted trial by prod Q/tilt; unbiased for the true beta.

    The marker randomness is integrated out with the same closed form the
    exact oracle uses, which only reduces variance. Returns (beta_hat,
    variance of the estimator), which also carries the standard error as
    `std_err`; aggregation is streaming log-sum-exp over blocks, reduced in
    block order for worker-count invariance.
    """
    if n != scheme.n:
        raise ValueError(f"scheme was built for n={scheme.n}, got n={n}")
    trials = _as_count("trials", trials)
    if seed is None:
        raise ValueError("seed is required for a reproducible estimate")
    tilt = default_tilt(problem, scheme) if tilt is None else Joint3Pmf.of(tilt)
    plan = _read_plan(problem.q.dims, scheme)
    _check_tilt(problem, tilt, plan)

    tilt_flat = tilt.probs.ravel()
    q_flat = problem.q.probs.ravel()
    # a cell the tilt never samples contributes nothing; a trial that draws
    # one outside Q's support (log ratio -inf) gets weight zero per trial,
    # since 0 * -inf would turn every trial's log weight into nan
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(q_flat) - np.log(tilt_flat)
    log_ratio[tilt_flat == 0] = 0.0
    outside = np.flatnonzero(log_ratio == -np.inf)
    log_ratio[outside] = 0.0

    results = _map_blocks(trials, seed, workers, lambda seed_seq, count: _is_block(
        scheme, plan, tilt_flat, log_ratio, outside, seed_seq, count
    ))
    live = [r for r in results if r[1] > 0]  # block order, not completion order
    lse = -np.inf
    for hi, s1, _ in live:
        lse = np.logaddexp(lse, hi + math.log(s1))
    beta_hat = float(np.exp(lse - math.log(trials)))
    std_err = 0.0
    if live:
        # second moment over beta_hat^2, both taken relative to the largest
        # contribution: at large n each moment underflows, the ratio does not
        top = max(hi for hi, _, _ in live)
        s1 = sum(b1 * math.exp(hi - top) for hi, b1, _ in live)
        s2 = sum(b2 * math.exp(2 * (hi - top)) for hi, _, b2 in live)
        std_err = beta_hat * math.sqrt(max(trials * s2 / (s1 * s1) - 1.0, 0.0) / trials)
    return _BetaEstimate(beta_hat, std_err)


class _BetaEstimate(tuple):
    """(beta_hat, variance), keeping the standard error as `std_err`: it
    stays representable where the variance underflows below 1e-308."""

    def __new__(cls, beta_hat: float, std_err: float):
        self = super().__new__(cls, (beta_hat, std_err * std_err))
        self.std_err = std_err
        return self


# --- exponent fitting and campaign orchestration ---


def fit_exponent(points) -> float:
    """Least-squares slope of -ln(beta) against n; the intercept absorbs
    any constant factor, so synthetic c*exp(-t*n) recovers t exactly."""
    pts = [(_as_count("n", n), float(b)) for n, b in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 (n, beta) points")
    if not all(0 <= b <= 1 for _, b in pts):  # NaN fails too
        raise ValueError("beta estimates must lie in [0, 1]")
    if len({n for n, _ in pts}) < 2:
        raise ValueError("need at least 2 distinct blocklengths")
    zeros = [n for n, b in pts if b == 0.0]
    if zeros:
        alive = [(n, b) for n, b in pts if b > 0]
        if len(alive) >= 2 and len({n for n, _ in alive}) >= 2:
            lower = _ls_slope(alive)
        elif alive:
            n0, b0 = alive[0]
            lower = -math.log(b0) / n0
        else:
            lower = None
        raise DegenerateFit(
            f"beta estimate is exactly 0 at n={zeros}; the decay outran the "
            "sampling resolution and only a lower bound is available",
            lower_bound=lower,
        )
    return _ls_slope(pts)


def _ls_slope(pts) -> float:
    """Least-squares slope of -ln(b) against n, in closed form about the
    means: a ladder's few points need no LAPACK solve (see exponents.py)."""
    n_bar = math.fsum(n for n, _ in pts) / len(pts)
    ys = [-math.log(b) for _, b in pts]
    y_bar = math.fsum(ys) / len(ys)
    dn = [n - n_bar for n, _ in pts]
    return math.fsum(d * (y - y_bar) for d, y in zip(dn, ys)) / math.fsum(d * d for d in dn)


def run_ladder(problem: TestProblem, channel, cls, config: SimConfig) -> SimReport:
    """Build the class's scheme at every blocklength of the ladder, estimate
    both error probabilities with the configured estimator, then fit the
    empirical type-2 exponent and attach the theoretical one.

    The class's I-projection is solved once: its value is the theoretical
    exponent, and its minimizer tilts every importance-sampling rung. The
    scheme is built once, at the first rung; only its budget depends on
    n, so each later rung re-runs the budget and its checks alone."""
    projection = class_projection(cls, problem.p, problem.q)
    est = config.estimator
    tilt = _as_tilt(projection.argmin) if est == "importance" else None
    points = []
    scheme = build_scheme_for_class(
        cls, channel, problem.p, config.cost_model, config.n_ladder[0], config.mu
    )
    for n in config.n_ladder:
        if n != scheme.n:
            k = (_checked_budget(cls, scheme.markers, config.cost_model, n).k
                 if cls.signalling else 0)
            scheme = replace(scheme, n=n, k=k)
        if est == "exact":
            alpha, beta = exact_error_probs(problem, channel, scheme, n)
            points.append(LadderPoint(n, est, alpha, alpha, alpha, beta, beta, beta, 0.0))
            continue
        pt = run_trials(
            problem, channel, scheme, n, config.trials, (config.master_seed, n, 0),
            workers=config.workers, sides=("null", "alt") if est == "direct" else ("null",),
        )
        if est == "importance":
            beta = importance_sample_beta(
                problem, channel, scheme, n, config.trials, tilt=tilt,
                seed=(config.master_seed, n, 1), workers=config.workers,
            )
            beta_hat = beta[0]
            half = _WILSON_Z * beta.std_err
            pt = replace(
                pt, estimator=est, beta_hat=beta_hat, beta_lo=max(0.0, beta_hat - half),
                beta_hi=min(1.0, beta_hat + half), beta_std_err=beta.std_err,
            )
        points.append(pt)

    fitted = None
    if len(points) >= 3:
        try:
            fitted = fit_exponent([(pt.n, pt.beta_hat) for pt in points])
        except DegenerateFit:
            fitted = None
    return SimReport(tuple(points), fitted, projection.value, config.master_seed)
