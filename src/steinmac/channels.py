"""Channels: discrete memoryless MACs and the generalized Gaussian MAC.

A discrete two-sender channel is classified by which sensors can gate an
output on and off. Sensor 1 can toggle when some output is impossible
under one of its inputs yet possible under another, with the partner
input held fixed; sensor 2 symmetrically. Classification and the marker
search read one (pilot, output) toggle table per sensor, in which an output
no input pair produces never toggles. Both toggles, one, or neither give
four classes, and the toggle witnesses double as marker symbols for the
communication schemes.

The continuous channel is Y = h1 x1 + h2 x2 + Z with Z generalized
Gaussian of shape p and scale sigma. Its density normalizer, sampler,
and the likelihood-ratio bound certifying that sublinear input budgets
cannot move the output distribution are all here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlocklengthTooSmall,
    LengthMismatch,
    MarkerMismatch,
    NoMarkers,
    OutOfAlphabet,
    OutOfRange,
    ParseError,
)
from .prob import _as_count, _as_symbols, require_length

_ROW_TOL = 1e-12
_FILE_ROW_TOL = 1e-9


class ChannelClass(enum.Enum):
    FULL = "full"
    SPARSE = "sparse"
    SPARSE_FULL = "sparse_full"
    FULL_SPARSE = "full_sparse"

    @property
    def label(self) -> str:
        return self.value

    @property
    def signalling(self) -> tuple:
        """Sensors that can toggle an output in this class, in slot order:
        each spends one block of k marker symbols, and the scheme reads its
        observation's marginal."""
        return _SIGNALLING[self]


_SIGNALLING = {
    ChannelClass.FULL: (),
    ChannelClass.SPARSE: (1, 2),
    ChannelClass.SPARSE_FULL: (1,),
    ChannelClass.FULL_SPARSE: (2,),
}


@dataclass(frozen=True, eq=False)
class Dmmac:
    """Discrete memoryless MAC kernel, indexed [x1, x2, y]."""

    kernel: np.ndarray

    def __post_init__(self):
        k = np.array(self.kernel, dtype=float)
        if k.ndim != 3:
            raise ValueError(f"kernel must be 3-dimensional, got shape {k.shape}")
        if min(k.shape) < 1:
            raise ValueError("kernel axes must be nonempty")
        # a min that is not NaN and finite unit row sums accept the kernel;
        # the detailed checks run only to name what is wrong
        if not (k.min() >= 0 and np.abs(k.sum(axis=2) - 1.0).max() <= _ROW_TOL):
            if np.any(k < 0) or not np.all(np.isfinite(k)):
                raise ValueError("kernel entries must be finite and nonnegative")
            rows = k.sum(axis=2)
            bad = np.unravel_index(int(np.argmax(np.abs(rows - 1.0))), rows.shape)
            raise ValueError(
                f"kernel row {tuple(map(int, bad))} sums to {float(rows[bad])!r}, "
                f"expected 1 within {_ROW_TOL}"
            )
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.kernel.shape

    def __eq__(self, other):
        return isinstance(other, Dmmac) and np.array_equal(self.kernel, other.kernel)


def _toggle_table(ch: Dmmac, sensor: int) -> np.ndarray:
    """Boolean (partner pilot, output) table of the sensor's toggles: with
    the partner sending the pilot, the output is impossible under some
    input of the sensor and possible under another. An output that no
    input pair produces is zero along the whole axis, so it never toggles."""
    if sensor not in (1, 2):
        raise ValueError("sensor must be 1 or 2")
    zero = ch.kernel == 0  # entries are nonnegative, so the rest are positive
    return zero.any(axis=sensor - 1) & ~zero.all(axis=sensor - 1)


def toggle_predicate(ch: Dmmac, sensor: int) -> bool:
    """Whether the sensor can make some output impossible or possible by
    switching its own input, for some fixed partner input."""
    return bool(_toggle_table(ch, sensor).any())


def classify(ch: Dmmac) -> ChannelClass:
    toggles = tuple(s for s in (1, 2) if toggle_predicate(ch, s))
    return next(c for c in ChannelClass if c.signalling == toggles)


@dataclass(frozen=True)
class ToggleWitness:
    """One sensor's marker symbols.

    off_input makes marker_output impossible, on_input makes it possible,
    both with the partner sensor pinned to partner_pilot.
    """

    off_input: int
    on_input: int
    partner_pilot: int
    marker_output: int

    @staticmethod
    def inputs(sensor: int, own: int, partner: int) -> tuple:
        """Kernel input pair (x1, x2) when the sensor sends `own` and its
        partner sends `partner`."""
        return (own, partner) if sensor == 1 else (partner, own)

    def row(self, ch: Dmmac, sensor: int, own: int) -> np.ndarray:
        """Output pmf when the sensor sends `own` against the pilot."""
        return ch.kernel[self.inputs(sensor, own, self.partner_pilot)]

    def holds_for(self, ch: Dmmac, sensor: int) -> bool:
        off = self.row(ch, sensor, self.off_input)[self.marker_output]
        on = self.row(ch, sensor, self.on_input)[self.marker_output]
        return off == 0 and on > 0

    def marker_prob(self, ch: Dmmac, sensor: int) -> float:
        return float(self.row(ch, sensor, self.on_input)[self.marker_output])


@dataclass(frozen=True)
class MarkerSet:
    """Witnesses for whichever sensors can toggle; None where they cannot."""

    sensor1: ToggleWitness | None
    sensor2: ToggleWitness | None

    def witness(self, sensor: int) -> ToggleWitness | None:
        return self.sensor1 if sensor == 1 else self.sensor2


def _first_witness(ch: Dmmac, sensor: int) -> ToggleWitness | None:
    # scan outputs first: the witness is "the first output some input of
    # this sensor can switch off", then pilot, then the off/on inputs
    table = _toggle_table(ch, sensor).T  # (output, pilot): the scan order
    if not table.any():
        return None
    y, pilot = (int(i) for i in np.unravel_index(int(np.argmax(table)), table.shape))
    col = ch.kernel[(*ToggleWitness.inputs(sensor, slice(None), pilot), y)]
    return ToggleWitness(int(np.argmax(col == 0)), int(np.argmax(col > 0)), pilot, y)


def find_markers(ch: Dmmac, cls: ChannelClass) -> MarkerSet:
    """First witnesses in lexicographic scan order for the class's sensors."""
    found = {s: _first_witness(ch, s) for s in cls.signalling}
    if not found or None in found.values():
        raise NoMarkers(
            f"channel has no toggle witness for each signalling sensor of "
            f"class {cls.label}"
        )
    return MarkerSet(found.get(1), found.get(2))


def verify_markers(ch: Dmmac, markers: MarkerSet) -> None:
    """Re-check a marker set against a kernel; raises MarkerMismatch."""
    for sensor in (1, 2):
        w = markers.witness(sensor)
        if w is not None and not w.holds_for(ch, sensor):
            raise MarkerMismatch(f"sensor-{sensor} witness does not hold for this kernel")


@dataclass(frozen=True)
class BudgetLaw:
    """Sublinear cost budget Gamma(n): a*n**b (0<b<1) or a*ln(1+n).

    Both families grow without bound while Gamma(n)/n -> 0.
    """

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise OutOfRange("kind", f"must be power or log, got {self.kind!r}")
        if not (0 < self.a < math.inf):
            raise OutOfRange("a", "must be finite and positive")
        if self.kind == "power" and not (0 < self.b < 1):
            raise OutOfRange("b", "must satisfy 0 < b < 1 for a power law")

    def gamma(self, n: int) -> float:
        n = _as_count("n", n)
        if self.kind == "power":
            return self.a * float(n) ** self.b
        return self.a * math.log1p(n)

    @classmethod
    def power(cls, a: float, b: float) -> "BudgetLaw":
        return cls("power", a, b)

    @classmethod
    def log(cls, a: float) -> "BudgetLaw":
        return cls("log", a)


@dataclass(frozen=True, eq=False)
class CostModel:
    """Per-symbol input costs and a budget law for each sensor.

    Symbol 0 is the designated free symbol; every other symbol costs a
    strictly positive amount.
    """

    costs1: np.ndarray
    costs2: np.ndarray
    law1: BudgetLaw
    law2: BudgetLaw

    def __post_init__(self):
        for name in ("costs1", "costs2"):
            c = np.asarray(getattr(self, name), dtype=float)
            if c.ndim != 1 or c.size < 1:
                raise ValueError(f"{name} must be a nonempty 1-d array")
            if c[0] != 0:
                raise ValueError(f"{name}[0] must be 0 (the free symbol)")
            if not np.all(c[1:] > 0):  # NaN fails too
                raise ValueError(f"{name} must be positive for symbols >= 1")
            c = c.copy()
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    @classmethod
    def unit(cls, n1: int, n2: int, law: BudgetLaw) -> "CostModel":
        """Unit cost for every nonzero symbol, same law for both sensors."""
        c1 = np.zeros(n1)
        c1[1:] = 1.0
        c2 = np.zeros(n2)
        c2[1:] = 1.0
        return cls(c1, c2, law, law)

    def costs(self, sensor: int) -> np.ndarray:
        return self.costs1 if sensor == 1 else self.costs2

    def law(self, sensor: int) -> BudgetLaw:
        return self.law1 if sensor == 1 else self.law2

    def c_min(self, sensor: int) -> float:
        c = self.costs(sensor)
        if c.size < 2:
            return math.inf
        return float(c[1:].min())

    def gamma(self, sensor: int, n: int) -> float:
        return self.law(sensor).gamma(n)


@dataclass(frozen=True)
class CostBudget:
    """Derived per-blocklength budget arithmetic."""

    n: int
    k_max1: int
    k_max2: int
    tau_max: int
    k: int


def cost_budget(cm: CostModel, n: int) -> CostBudget:
    """Largest usable marker-block length for blocklength n.

    k_max per sensor is how many cheapest nonzero symbols the budget buys;
    the scheme spends two blocks of k symbols, so k is half the smaller
    k_max, and there must be room for both blocks inside n.
    """
    n = _as_count("n", n)
    k_maxes = []
    for sensor in (1, 2):
        cmin = cm.c_min(sensor)
        k_maxes.append(0 if math.isinf(cmin) else int(cm.gamma(sensor, n) // cmin))
    k_max1, k_max2 = k_maxes
    tau_max = 2 * k_max1 + 2 * k_max2
    k = min(k_max1, k_max2) // 2
    if k < 1 or 2 * k >= n:
        raise BlocklengthTooSmall(
            f"budget at n={n} gives k={k}; need 1 <= k and 2k < n"
        )
    return CostBudget(n, k_max1, k_max2, tau_max, k)


def admissible(x_seq, sensor: int, cm: CostModel, n: int) -> bool:
    """Whether a length-n input sequence fits the sensor's cost budget."""
    if sensor not in (1, 2):
        raise ValueError("sensor must be 1 or 2")
    what = f"sensor-{sensor} input"
    n = _as_count("n", n)
    arr = _as_symbols(require_length(x_seq, n, what), what)
    costs = cm.costs(sensor)
    if arr.min() < 0 or arr.max() >= costs.size:
        raise OutOfAlphabet(
            f"input symbol outside alphabet of size {costs.size}"
        )
    return float(costs[arr].sum()) <= cm.gamma(sensor, n)


# --- generalized Gaussian MAC ---


@dataclass(frozen=True)
class GgMac:
    """Y = h1 x1 + h2 x2 + Z, Z generalized Gaussian (shape p, scale sigma)."""

    p: float
    sigma: float
    h1: float
    h2: float

    def __post_init__(self):
        for name in ("p", "sigma"):
            if not (0 < getattr(self, name) < math.inf):
                raise OutOfRange(name, "must be finite and positive")
        for gain in ("h1", "h2"):
            if not (0 < abs(getattr(self, gain)) < math.inf):
                raise OutOfRange(gain, "must be finite and nonzero")


def gg_constant(p: float) -> float:
    """Density normalizer c_p = p / (2^((p+1)/p) Gamma(1/p)).

    c_2 = 1/sqrt(2 pi) recovers the standard normal and c_1 = 1/4 the
    Laplace density with this scale convention.
    """
    if not (p > 0):
        raise ValueError("shape p must be positive")
    return p / (2 ** ((p + 1) / p) * math.gamma(1 / p))


def gg_log_density(z, p: float, sigma: float):
    """Log density ln(c_p / sigma) - |z|^p / (2 sigma^p), elementwise."""
    if not (sigma > 0):
        raise ValueError("scale sigma must be positive")
    z = np.asarray(z, dtype=float)
    out = math.log(gg_constant(p) / sigma) - np.abs(z) ** p / (2 * sigma**p)
    return out if out.ndim else float(out)


def gg_sample(p: float, sigma: float, n: int, rng_state) -> np.ndarray:
    """Draw n iid generalized Gaussian variates.

    |Z|^p / (2 sigma^p) is Gamma(1/p, 1) distributed, so a gamma draw
    powered back and given a uniform sign has exactly the target density.
    """
    n = _as_count("n", n)
    if not (p > 0 and sigma > 0):
        raise ValueError("p and sigma must be positive")
    rng = np.random.default_rng(rng_state)
    g = rng.gamma(1.0 / p, 1.0, size=n)
    magnitude = (2 * sigma**p * g) ** (1.0 / p)
    sign = rng.integers(0, 2, size=n) * 2 - 1
    return magnitude * sign


def gg_channel_output(mac: GgMac, x1_seq, x2_seq, rng_state) -> np.ndarray:
    x1 = np.asarray(x1_seq, dtype=float)
    x2 = np.asarray(x2_seq, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise LengthMismatch("input sequences must be 1-d and of equal length")
    z = gg_sample(mac.p, mac.sigma, x1.size, rng_state)
    return mac.h1 * x1 + mac.h2 * x2 + z


@dataclass(frozen=True)
class GgRatioBound:
    """Output-set threshold nu and the log-likelihood-ratio floor on it."""

    nu: float
    log_ratio_lower_bound: float


def gg_ratio_bound(mac: GgMac, cm: CostModel, n: int, delta: float) -> GgRatioBound:
    """Uniform lower bound on ln p(y|x,x') - ln p(y|x~,x~') over admissible
    inputs, valid for all y when p <= 1 and on {||y||_p^p <= nu} when p > 1.

    Only the budget laws of the cost model enter; the input cost on this
    channel is the p-th moment itself. The bound is o(n) because the
    budgets are sublinear, which is what drives the exponent result.
    """
    if not delta > 0:  # NaN fails too
        raise ValueError("delta must be positive")
    n = _as_count("n", n)
    p, sigma = mac.p, mac.sigma
    s = abs(mac.h1) ** p * cm.gamma(1, n) + abs(mac.h2) ** p * cm.gamma(2, n)
    if p <= 1:
        return GgRatioBound(math.inf, -(2**p) * s / sigma**p)
    nu = 2 ** (2 * p - 2) * s + 2 ** (p - 1) * (n * 2 * sigma**p / p + delta * n)
    bound = -(2 ** (p - 2) * p / sigma**p) * (
        4 * 2**p * s + 2 * s ** (1 / p) * nu ** ((p - 1) / p)
    )
    return GgRatioBound(nu, bound)


def gg_dn_tail(
    mac: GgMac, cm: CostModel, n: int, delta: float, trials: int, rng_state
) -> float:
    """Monte-Carlo estimate of P[||Y||_p^p > nu] under hypothesis 0.

    Inputs are the all-zero (cost-free, always admissible) sequences, so
    Y = Z. For p <= 1 the set is all of R^n and the tail is exactly 0.
    """
    trials = _as_count("trials", trials)
    bound = gg_ratio_bound(mac, cm, n, delta)
    if math.isinf(bound.nu):
        return 0.0
    # each |Z_i|^p / (2 sigma^p) is Gamma(1/p, 1), so their sum over the n
    # symbols is Gamma(n/p, 1): one draw per trial instead of n
    g = np.random.default_rng(rng_state).gamma(n / mac.p, 1.0, size=trials)
    return int(np.count_nonzero(2 * mac.sigma**mac.p * g > bound.nu)) / trials


# --- table files: kernels and problems ---


def _read_file(path, kind: str) -> str:
    """The text of an input file; an unreadable one is a ParseError. Read
    as bytes and decoded whole, which is cheaper than a text-mode read and
    splits into the same lines, since str.splitlines ends a line at every
    newline that text mode would translate."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {kind} file: {e}", path=str(path))


def _read_table(text: str, path):
    """The grammar of kernel and problem files: ``#`` lines are comments,
    the first other line holds three alphabet sizes (integers >= 1, ``2``
    or ``2.0``), and each later nonblank line is a row of numbers. Returns
    the sizes and the rows split into blocks at blank lines, each block a
    flat list of its values and a list of (line number, values) rows.
    """
    dims = None
    blocks: list = []
    values = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            values = None  # the next row opens a new block
            continue
        if line[0] == "#":
            continue
        try:
            row = list(map(float, line.split()))
        except ValueError:
            raise ParseError(f"expected numbers, got {line!r}", path, lineno)
        if dims is None:
            # is_integer() is False for nan and inf, so int() cannot overflow
            if len(row) != 3 or not all(v.is_integer() and v >= 1 for v in row):
                raise ParseError("dims line must hold three integers >= 1", path, lineno)
            dims = tuple(int(v) for v in row)
            continue
        if values is None:
            values, rows = [], []
            blocks.append((values, rows))
        values.extend(row)
        rows.append((lineno, row))
    if dims is None:
        raise ParseError("no dims line", path=path)
    return dims, blocks


def _unit_rows(rows: list, width: int, path, name) -> np.ndarray:
    """The (line, values) rows as one array, each renormalised to unit mass.

    Every row must hold `width` entries, be nonnegative and sum to 1 within
    1e-9 (NaN fails the sum test). name(i) names row i in an error.
    """
    for i, (line, values) in enumerate(rows):
        if len(values) != width:
            raise ParseError(f"{name(i)} has {len(values)} entries, needs {width}",
                             path, line)
    arr = np.array([values for _, values in rows], dtype=float)
    totals = arr.sum(axis=1)
    if not (arr.min() >= 0 and np.abs(totals - 1.0).max() <= _FILE_ROW_TOL):
        ok = (arr >= 0).all(axis=1) & (np.abs(totals - 1.0) <= _FILE_ROW_TOL)
        i = int(np.argmin(ok))
        if (arr[i] < 0).any():
            raise ParseError(f"{name(i)} has negative entries", path, rows[i][0])
        raise ParseError(f"{name(i)} sums to {float(totals[i])!r}, not 1",
                         path, rows[i][0])
    return arr / totals[:, None]


def parse_dmmac(text: str, path=None) -> Dmmac:
    """Parse the kernel text format: a dims line "|X1| |X2| |Y|" then one
    probability row per (x1, x2) pair in row-major order.

    Rows may be off by up to 1e-9 from unit mass (they are renormalized to
    satisfy the stricter in-memory invariant); anything worse is an error.
    """
    (nx1, nx2, ny), blocks = _read_table(text, path)
    rows = [row for _, block_rows in blocks for row in block_rows]
    if len(rows) != nx1 * nx2:
        raise ParseError(f"expected {nx1 * nx2} kernel rows, found {len(rows)}", path)
    kernel = _unit_rows(
        rows, ny, path, lambda i: f"row for (x1={i // nx2}, x2={i % nx2})"
    )
    return Dmmac(kernel.reshape(nx1, nx2, ny))


def load_dmmac(path) -> Dmmac:
    return parse_dmmac(_read_file(path, "kernel"), path=str(path))
