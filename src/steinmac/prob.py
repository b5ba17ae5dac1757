"""Finite probability primitives: pmfs, joint triples, types, typicality.

Conventions used throughout the package:

* natural logarithms everywhere, so divergences are in nats;
* 0 * ln(0/q) = 0, and P(x) > 0 with Q(x) = 0 is an error rather than inf;
* axes of a three-way joint are numbered U1 = 0, U2 = 1, V = 2;
* strong typicality is decided from symbol counts, each checked against
  its count interval from typical_bounds, which accepts exactly the counts
  c whose frequency passes abs(c / n - p) <= mu.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, LengthMismatch, OutOfAlphabet, OutOfRange

U1, U2, V = 0, 1, 2

_SUM_TOL = 1e-12


def _as_prob_array(values, ndim, what):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must not be empty")
    # a min that is not NaN and a finite unit sum accept the array; the
    # detailed checks run only to name what is wrong
    if not (arr.min() >= 0 and abs(float(arr.sum()) - 1.0) <= _SUM_TOL):
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} entries must be finite and nonnegative")
        total = float(arr.sum())
        raise ValueError(f"{what} must sum to 1 within {_SUM_TOL}, got {total!r}")
    arr.flags.writeable = False
    return arr


class _Checked:
    """A type whose constructor checks its argument."""

    @classmethod
    def of(cls, x):
        """x itself if it is already a cls, else cls(x), which checks it: the
        one way an argument becomes a pmf, a joint or a constraint set."""
        return x if isinstance(x, cls) else cls(x)


@dataclass(frozen=True, eq=False)
class _Distribution(_Checked):
    """A checked pmf as a tensor of _NDIM axes; Pmf and Joint3Pmf set it."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_prob_array(self.probs, self._NDIM, type(self).__name__)
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other):
        return isinstance(other, type(self)) and np.array_equal(self.probs, other.probs)


@dataclass(frozen=True, eq=False)
class Pmf(_Distribution):
    """Probability mass function on a finite alphabet {0, ..., K-1}."""

    _NDIM = 1

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)


@dataclass(frozen=True, eq=False)
class Joint3Pmf(_Distribution):
    """Joint pmf of a source triple (U1, U2, V) as a three-axis tensor."""

    _NDIM = 3

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.probs.shape

    def marginal(self, axis: int) -> Pmf:
        return marginal(self, axis)


@dataclass(frozen=True)
class SequenceType:
    """Empirical type of a length-n sequence: symbol counts plus n."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a nonempty 1-d integer array")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        n = _as_count("n", self.n)
        if int(counts.sum()) != n:
            raise ValueError(f"counts sum to {int(counts.sum())}, expected n={n}")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    def empirical(self) -> np.ndarray:
        """Empirical distribution counts/n (an array, not a Pmf, since it
        lives on the 1/n lattice and may not pass strict Pmf validation)."""
        return self.counts / self.n


def _probs_of(dist) -> np.ndarray:
    if isinstance(dist, (Pmf, Joint3Pmf)):
        return dist.probs
    return np.asarray(dist, dtype=float)


def kl_divergence(p, q) -> float:
    """D(P || Q) in nats, with the 0 ln 0 = 0 convention.

    Raises ValueError if either argument is empty or has an entry that is
    negative or not finite, and AbsoluteContinuityViolation if P charges a
    cell that Q does not; the result is therefore finite and nonnegative.
    """
    pa, qa = _probs_of(p), _probs_of(q)
    if pa.shape != qa.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {qa.shape}")
    for what, arr in (("p", pa), ("q", qa)):
        if arr.size == 0:
            raise ValueError(f"{what} must not be empty")
        # only the entries are checked, since a raw IPF iterate's sum is off
        # by rounding: a min that is not NaN and a finite sum accept them
        if not (arr.min() >= 0 and math.isfinite(arr.sum())):
            raise ValueError(f"{what} entries must be finite and nonnegative")
    mask = _charged_cells(pa, qa)
    pm = pa[mask]
    val = float(np.sum(pm * np.log(pm / qa[mask])))
    # Gibbs guarantees >= 0; rounding can leave a tiny negative residue.
    return max(val, 0.0)


def _charged_cells(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """The mask of cells that P charges, for arrays of one shape. Raises
    AbsoluteContinuityViolation, naming the first such cell in row-major
    order, if Q does not charge them all."""
    mask = pa > 0
    bad = mask & (qa == 0)
    if bad.any():
        cell = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), pa.shape)
        raise AbsoluteContinuityViolation(tuple(int(c) for c in cell))
    return mask


def marginal(joint, axis: int) -> Pmf:
    """Marginal pmf of one axis of a three-way joint (Joint3Pmf or array)."""
    joint = Joint3Pmf.of(joint)
    if axis not in (U1, U2, V):
        raise ValueError(f"axis must be one of {U1}, {U2}, {V}, got {axis}")
    other = tuple(a for a in range(3) if a != axis)
    return Pmf(joint.probs.sum(axis=other))


def _incidence(dims, axes) -> np.ndarray:
    """The 0/1 matrix (symbols of `axes` in turn, cells in row-major order)
    of a joint over `dims`: each axis's rows times the flattened joint give
    that axis's marginal, and each column holds one 1 per axis. No axes
    give no rows."""
    cells = math.prod(dims)
    symbol = np.unravel_index(np.arange(cells), dims)
    return np.concatenate(
        [np.zeros((0, cells))] + [np.eye(dims[a])[:, symbol[a]] for a in axes])


def empirical_type(seq, alphabet_size: int) -> SequenceType:
    """Count symbol occurrences of an integer sequence."""
    arr = np.asarray(seq)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if arr.size == 0:
        raise ValueError("sequence must have length >= 1")
    arr = _as_symbols(arr)
    alphabet_size = _as_count("alphabet_size", alphabet_size)
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise OutOfAlphabet(
            f"symbol {int(arr.min() if arr.min() < 0 else arr.max())} outside "
            f"alphabet of size {alphabet_size}"
        )
    counts = np.bincount(arr, minlength=alphabet_size)
    return SequenceType(counts, int(arr.size))


def is_strongly_typical(seq, p, mu: float) -> bool:
    """Strong typicality of one sequence: every symbol count inside its
    typical_bounds interval of p (a Pmf or anything Pmf takes)."""
    p = Pmf.of(p)
    t = empirical_type(seq, p.alphabet_size)
    lo, hi = typical_bounds(p, mu, t.n)
    return bool(np.all((t.counts >= lo) & (t.counts <= hi)))


def typical_bounds(p, mu: float, n: int) -> tuple:
    """Per-symbol count intervals of strong typicality at length n: lo[s]
    and hi[s] are the least and greatest count c in [0, n] whose frequency
    passes the float test abs(c / n - p[s]) <= mu, and a symbol of
    probability zero gets [0, 0]. lo > hi when no count passes.

    c / n - p[s] is monotone in c under rounding, so the passing counts
    form one interval. Its ends are found by evaluating that test on the
    counts next to n (p[s] - mu) and n (p[s] + mu), a step or two per end
    at any n, so the bounds decide exactly what the float test decides."""
    probs = Pmf.of(p).probs
    if not mu >= 0:
        raise ValueError("mu must be >= 0")
    n = _as_count("n", n)
    lo = np.zeros(probs.size, dtype=np.int64)
    hi = np.zeros(probs.size, dtype=np.int64)
    for s, ps in enumerate(probs.tolist()):
        if ps == 0:
            continue
        # a: least count whose frequency is not below ps - mu; b: greatest
        # not above ps + mu. Each walk starts at the real-valued end, and
        # rounding moves the float test's end by far less than one count
        a = math.ceil(min(max(n * (ps - mu), 0), n))
        while a > 0 and (a - 1) / n - ps >= -mu:
            a -= 1
        while a <= n and not a / n - ps >= -mu:
            a += 1
        b = math.floor(min(max(n * (ps + mu), 0), n))
        while b < n and (b + 1) / n - ps <= mu:
            b += 1
        while b >= 0 and not b / n - ps <= mu:
            b -= 1
        lo[s], hi[s] = a, b
    return lo, hi


def sample_iid(dist, n: int, rng_state):
    """Draw n iid symbols (Pmf) or triples (Joint3Pmf).

    rng_state may be an integer seed or a numpy Generator; identical state
    gives identical output. Sampling is inverse-cdf on uniforms, so two
    distributions sampled against the same uniforms are coupled.
    """
    n = _as_count("n", n)
    rng = np.random.default_rng(rng_state)
    u = rng.random(n)
    if isinstance(dist, Pmf):
        return quantile_map(dist.probs, u)
    if isinstance(dist, Joint3Pmf):
        flat = quantile_map(dist.probs.ravel(), u)
        return np.stack(np.unravel_index(flat, dist.dims), axis=1)
    raise TypeError("dist must be a Pmf or Joint3Pmf")


def quantile_map(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0,1) to symbols via the inverse cdf of probs."""
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, u, side="right")
    if np.ndim(idx) == 0:
        return np.int64(min(idx, probs.size - 1))
    np.minimum(idx, probs.size - 1, out=idx)
    return idx if idx.dtype == np.int64 else idx.astype(np.int64)


def require_length(seq, n: int, what: str = "sequence") -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size != n:
        raise LengthMismatch(f"{what} must have length {n}, got shape {arr.shape}")
    return arr


def _as_symbols(arr: np.ndarray, what: str = "sequence") -> np.ndarray:
    """Symbol indices as integers: whole floats are cast, any other value
    (0.9, NaN, inf) is refused rather than truncated."""
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise OutOfAlphabet(f"{what} symbols must be integers")
        arr = arr.astype(np.int64)
    return arr


def _as_count(field: str, value, least=1) -> int:
    """A count parameter (a blocklength, a trial count, an alphabet size)
    as an int of at least `least`. A fraction, even 10.0, is refused, and
    so is a value below `least`; both raise OutOfRange naming the field."""
    try:
        value = operator.index(value)
    except TypeError:
        raise OutOfRange(field, f"must be an integer, got {value!r}") from None
    if value < least:
        raise OutOfRange(field, f"must be >= {least}")
    return value
