"""Testing schemes built from marker symbols under sublinear cost budgets.

Each sensor that can toggle an output spends one length-k block signaling
a single bit: whether its observed sequence looks like the null marginal.
The partner sensor holds the witness pilot during that block, everything
else is the free symbol, and the decision center accepts the null when
every signaled bit arrives and its own side sequence is typical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    ChannelClass,
    CostBudget,
    CostModel,
    Dmmac,
    MarkerSet,
    classify,
    cost_budget,
    find_markers,
    verify_markers,
)
from .errors import BlocklengthTooSmall, CostBudgetExceeded, MarkerMismatch
from .exponents import IProjectionResult, min_kl_fixed_marginals
from .prob import Joint3Pmf, Pmf, _as_count, is_strongly_typical, marginal, require_length


@dataclass(frozen=True)
class Scheme:
    """A concrete encoder pair plus decision rule for one blocklength.

    k is the signaling block length; the i-th sensor of cls.signalling uses
    slots [i k, (i + 1) k), so a lone signaller of either sensor uses [0, k).
    Decision 0 accepts the null hypothesis.
    """

    cls: ChannelClass
    n: int
    k: int
    mu: float
    ref_v: Pmf
    ref_u1: Pmf | None = None
    ref_u2: Pmf | None = None
    markers: MarkerSet | None = None
    p_marker1: float | None = None
    p_marker2: float | None = None

    def __post_init__(self):
        for name, least in (("n", 1), ("k", 1 if self.cls.signalling else 0)):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), least))
        if not 0 < self.mu < 1:  # NaN fails too
            raise ValueError("mu must lie in (0, 1)")
        for axis, field in enumerate(("ref_u1", "ref_u2", "ref_v")):
            if self.ref(axis) is not None:
                try:
                    object.__setattr__(self, field, Pmf.of(self.ref(axis)))
                except ValueError as exc:
                    raise ValueError(f"{field}: {exc}") from exc
            elif axis in pinned_axes(self.cls):
                raise ValueError(f"a {self.cls.label} scheme reads axis {axis} and needs {field}")
        for s in self.cls.signalling:
            p = self.p_marker1 if s == 1 else self.p_marker2
            if p is None or not 0 < p <= 1:
                raise ValueError(
                    f"sensor {s} signals in a {self.cls.label} scheme and needs "
                    f"p_marker{s} in (0, 1], got {p!r}"
                )

    @property
    def signals1(self) -> bool:
        return 1 in self.cls.signalling

    @property
    def signals2(self) -> bool:
        return 2 in self.cls.signalling

    def ref(self, axis: int) -> Pmf | None:
        """Reference pmf of an axis (0: u1, 1: u2, 2: v); None for the
        observation of a sensor that does not signal."""
        return (self.ref_u1, self.ref_u2, self.ref_v)[axis]

    def _block(self, sensor: int) -> slice:
        start = self.k * self.cls.signalling.index(sensor)
        return slice(start, start + self.k)

    def _encode(self, sensor: int, u_seq) -> np.ndarray:
        u = require_length(u_seq, self.n, f"sensor-{sensor} observation")
        x = np.zeros(self.n, dtype=np.int64)
        for s in self.cls.signalling:
            w = self.markers.witness(s)
            if s != sensor:
                x[self._block(s)] = w.partner_pilot
            elif is_strongly_typical(u, self.ref(s - 1), self.mu):
                x[self._block(s)] = w.on_input
            else:
                x[self._block(s)] = w.off_input
        return x

    def encode1(self, u1_seq) -> np.ndarray:
        return self._encode(1, u1_seq)

    def encode2(self, u2_seq) -> np.ndarray:
        return self._encode(2, u2_seq)

    def decide(self, y_seq, v_seq) -> int:
        """0 accepts the null, 1 rejects."""
        y = require_length(y_seq, self.n, "channel output")
        v = require_length(v_seq, self.n, "side observation")
        for s in self.cls.signalling:
            if not np.any(y[self._block(s)] == self.markers.witness(s).marker_output):
                return 1
        return 0 if is_strongly_typical(v, self.ref_v, self.mu) else 1

    def accept_weights(self, flags: dict, hits=None) -> np.ndarray:
        """P(decide 0) given the typicality flags of the axes the rule
        reads, keyed by axis (0: u1, 1: u2, 2: v); flags of different axes
        may be arrays that broadcast together.

        Every read flag must pass, and so must every signaled marker, which
        only an on-block (sent when the sensor's flag passes) can produce.
        `hits` holds, for each signalling sensor in slot order, the chance
        that its on-block shows the marker: by default 1 - (1 - p)^k, the
        complement of missing it in all k slots; a sampler passes the 0/1
        outcomes it drew.
        """
        if hits is None:
            p = {1: self.p_marker1, 2: self.p_marker2}
            hits = [1.0 - (1.0 - p[s]) ** self.k for s in self.cls.signalling]
        acc = np.where(flags[2], 1.0, 0.0)
        for s, hit in zip(self.cls.signalling, hits):
            acc = acc * np.where(flags[s - 1], hit, 0.0)
        return acc


def build_local_scheme(p_v, mu: float, n: int) -> Scheme:
    """Side-information-only rule: accept iff the observed v sequence is
    strongly typical for the null V marginal. Used when neither sensor
    can move the output distribution within a sublinear budget."""
    return Scheme(cls=ChannelClass.FULL, n=n, k=0, mu=mu, ref_v=p_v)


def build_marker_scheme(
    ch: Dmmac, markers: MarkerSet, budget: CostBudget, mu: float, p_u1, p_u2, p_v
) -> Scheme:
    """Each sensor that can toggle an output of ch signals in its own block
    of k slots, sensor 1's block first, while the other sensor holds that
    witness's pilot. The marginal of a sensor that does not signal is not
    read and may be None."""
    cls = classify(ch)
    if not cls.signalling:
        raise ValueError(
            f"channel classifies as {cls.label}, a marker scheme needs a "
            "sensor that can toggle"
        )
    for s in cls.signalling:
        if markers.witness(s) is None:
            raise MarkerMismatch(f"scheme needs a sensor-{s} witness")
    verify_markers(ch, markers)
    if budget.k < 1 or 2 * budget.k >= budget.n:
        raise BlocklengthTooSmall(
            f"budget has k={budget.k} at n={budget.n}; need 1 <= k and 2k < n"
        )
    per_sensor = {}
    for s, p_u in zip((1, 2), (p_u1, p_u2)):
        if s in cls.signalling:
            per_sensor[f"ref_u{s}"] = p_u
            per_sensor[f"p_marker{s}"] = markers.witness(s).marker_prob(ch, s)
    return Scheme(
        cls=cls,
        n=budget.n,
        k=budget.k,
        mu=mu,
        ref_v=p_v,
        markers=MarkerSet(*(markers.witness(s) if s in cls.signalling else None
                            for s in (1, 2))),
        **per_sensor,
    )


def build_scheme_for_class(
    cls: ChannelClass,
    ch: Dmmac | None,
    p,
    cm: CostModel | None,
    n: int,
    mu: float,
) -> Scheme:
    """Convenience path used by the command line: derive markers, budget,
    and reference marginals from a joint null distribution, then build the
    class's scheme. Also checks that the worst-case encoder output actually
    fits the budget, since the marker symbols need not be the cheapest ones
    the budget arithmetic assumed."""
    # only the marginals the rule reads: a sensor that does not signal gets None
    p_u1, p_u2, p_v = (marginal(p, axis) if axis in pinned_axes(cls) else None
                       for axis in (0, 1, 2))
    if cls is ChannelClass.FULL:
        return build_local_scheme(p_v, mu, n)
    if ch is None or cm is None:
        raise ValueError("marker schemes need a channel and a cost model")
    if not isinstance(ch, Dmmac):
        raise TypeError("marker schemes need a discrete channel kernel")
    _check_costs_match(ch, cm)
    got = classify(ch)
    if got is not cls:
        raise ValueError(
            f"channel classifies as {got.label}, scheme needs {cls.label}"
        )
    markers = find_markers(ch, cls)
    budget = _checked_budget(cls, markers, cm, n)
    return build_marker_scheme(ch, markers, budget, mu, p_u1, p_u2, p_v)


def _check_costs_match(ch: Dmmac, cm: CostModel) -> None:
    if cm.costs(1).size != ch.dims[0] or cm.costs(2).size != ch.dims[1]:
        raise ValueError(
            "cost tables sized "
            f"({cm.costs(1).size}, {cm.costs(2).size}) do not match input "
            f"alphabets ({ch.dims[0]}, {ch.dims[1]})"
        )


def _checked_budget(
    cls: ChannelClass, markers: MarkerSet, cm: CostModel, n: int
) -> CostBudget:
    """cm's budget at blocklength n, checked against the worst-case cost of
    the cls scheme's markers. This is the only step of a marker scheme that
    depends on n, so `dataclasses.replace(scheme, n=n, k=budget.k)` moves a
    scheme to another blocklength, as build_scheme_for_class at n builds it."""
    budget = cost_budget(cm, n)
    worst = {1: 0.0, 2: 0.0}
    for s in cls.signalling:
        w, partner = markers.witness(s), 3 - s
        worst[s] += budget.k * max(cm.costs(s)[w.off_input], cm.costs(s)[w.on_input])
        worst[partner] += budget.k * cm.costs(partner)[w.partner_pilot]
    for sensor, cost in worst.items():
        limit = cm.gamma(sensor, budget.n)
        if cost > limit:
            raise CostBudgetExceeded(
                f"sensor-{sensor} worst-case cost {cost:g} exceeds "
                f"budget {limit:g} at n={budget.n}"
            )
    return budget


def pinned_axes(cls: ChannelClass) -> tuple:
    """Axes whose null marginal the class's scheme pins: the observation
    of each sensor that signals (axis 0 for sensor 1, axis 1 for sensor 2)
    and the side observation v (axis 2) always. These are the axes the
    decision rule reads."""
    return (*(s - 1 for s in cls.signalling), 2)


def class_projection(cls: ChannelClass, p, q) -> IProjectionResult:
    """I-projection of q onto the joints that share p's marginals on the
    class's pinned axes. Its value is the type-2 exponent the class's
    scheme achieves, and its minimizer is the source joint at the centre of
    the typicality box. At a fixed window mu that binds, the type-2 error
    is dominated instead by the minimizer of E_mu, at the box's edge. The
    full class pins only V, so one sweep solves it exactly:
    R = Q P_V / Q_V, whose value is D(P_V || Q_V)."""
    cons = {axis: marginal(p, axis) for axis in pinned_axes(cls)}
    return min_kl_fixed_marginals(Joint3Pmf.of(q), cons)


def class_exponent(cls: ChannelClass, p, q) -> float:
    """Type-2 exponent the class's scheme achieves against (p, q): the
    value of class_projection."""
    return class_projection(cls, p, q).value


# --- derandomization ---


def gamma_schedule(n: int) -> float:
    """Threshold sequence 1/ln(2+n): vanishes, but so slowly that the
    ln(1/gamma) penalty on the type-2 exponent is o(n)."""
    n = _as_count("n", n)
    return 1.0 / math.log(2.0 + n)


@dataclass(frozen=True)
class RandomizedDecider:
    """Wraps a map (v_seq, y_seq) -> acceptance probability in [0, 1]."""

    accept_prob: Callable

    def __call__(self, v_seq, y_seq) -> float:
        val = float(self.accept_prob(v_seq, y_seq))
        if not (0.0 <= val <= 1.0):
            raise ValueError(f"acceptance probability {val!r} outside [0, 1]")
        return val


def derandomize(decider, gamma: float):
    """Deterministic rule from a randomized one: accept iff the randomized
    acceptance probability strictly exceeds gamma (a tie rejects).

    For any pair of distributions this costs at most +gamma in type-1
    error and a 1/gamma factor in type-2 error, both harmless for
    exponents once gamma shrinks like gamma_schedule.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")

    def decide(v_seq, y_seq) -> int:
        return 0 if decider(v_seq, y_seq) > gamma else 1

    return decide
