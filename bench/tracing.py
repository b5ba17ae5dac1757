"""Spans around the calls into each steinmac layer, recorded from outside.

The tracer replaces a function at every module that looked it up by name
(``from .exponents import min_kl_fixed_marginals`` binds a separate name in
each importing module), plus three methods on ``Scheme``. Nothing under
``src/`` changes; ``uninstall`` puts every original back.

A span is one tuple ``(id, parent, name, start_ns, end_ns, info, error)``.
Spans stay in one in-memory list until the run ends. The parent is the
innermost open span of the same thread; a span opened in a worker thread
with nothing open there takes the innermost open span of the main thread,
which is the ``run_trials`` call that started the pool.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import threading
import time

from steinmac.schemes import Scheme


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _slots_read(scheme) -> int:
    """Channel outputs the decision rule reads per trial: k per signaling
    sensor, none for the side-information-only rule."""
    return scheme.k * (int(scheme.signals1) + int(scheme.signals2))


def _joint_types(joint, scheme, n: int) -> int:
    """Joint types the exact oracle enumerates for one hypothesis: the
    compositions of n over the support of the marginal on the read axes."""
    axes = [2]
    if scheme.signals1:
        axes.append(0)
    if scheme.signals2:
        axes.append(1)
    drop = tuple(a for a in range(3) if a not in axes)
    reduced = joint.probs.sum(axis=drop) if drop else joint.probs
    m = int((reduced > 0).sum())
    return math.comb(n + m - 1, m - 1)


def _info_run_trials(bind):
    def info(args, kwargs, result):
        a = bind(args, kwargs)
        side = "both" if len(a["sides"]) == 2 else a["sides"][0]
        return (a["n"], a["trials"], side, _slots_read(a["scheme"]))

    return info


def _info_is(bind):
    def info(args, kwargs, result):
        a = bind(args, kwargs)
        return (a["n"], a["trials"], result[0], result[1])

    return info


def _info_exact(bind):
    def info(args, kwargs, result):
        a = bind(args, kwargs)
        p, scheme, n = a["problem"], a["scheme"], a["n"]
        return (n, _joint_types(p.p, scheme, n) + _joint_types(p.q, scheme, n))

    return info


def _info_scheme(bind):
    def info(args, kwargs, result):
        return (result.n, _slots_read(result))

    return info


def _info_ipf(bind):
    def info(args, kwargs, result):
        return (result.iterations,)

    return info


def _info_size(bind):
    def info(args, kwargs, result):
        return (result.size,)

    return info


# (module, attribute, span name, info factory); every module that binds
# the name is listed, so the span appears whichever caller reaches it
SITES = (
    ("steinmac.cli", "run_ladder", "simulate.run_ladder", None),
    ("steinmac.cli", "load_problem", "cli.load_problem", None),
    ("steinmac.cli", "load_config", "cli.load_config", None),
    ("steinmac.cli", "load_dmmac", "channels.load_dmmac", None),
    ("steinmac.cli", "classify", "channels.classify", None),
    ("steinmac.cli", "find_markers", "channels.find_markers", None),
    ("steinmac.cli", "class_exponent", "schemes.class_exponent", None),
    ("steinmac.cli", "min_kl_fixed_marginals",
     "exponents.min_kl_fixed_marginals", _info_ipf),
    ("steinmac.schemes", "classify", "channels.classify", None),
    ("steinmac.schemes", "find_markers", "channels.find_markers", None),
    ("steinmac.schemes", "min_kl_fixed_marginals",
     "exponents.min_kl_fixed_marginals", _info_ipf),
    ("steinmac.simulate", "build_scheme_for_class",
     "schemes.build_scheme_for_class", _info_scheme),
    ("steinmac.simulate", "class_exponent", "schemes.class_exponent", None),
    ("steinmac.simulate", "run_trials", "simulate.run_trials", _info_run_trials),
    ("steinmac.simulate", "importance_sample_beta",
     "simulate.importance_sample_beta", _info_is),
    ("steinmac.simulate", "exact_error_probs",
     "simulate.exact_error_probs", _info_exact),
    ("steinmac.simulate", "default_tilt", "simulate.default_tilt", None),
    ("steinmac.simulate", "min_kl_fixed_marginals",
     "exponents.min_kl_fixed_marginals", _info_ipf),
    ("steinmac.simulate", "quantile_map", "prob.quantile_map", _info_size),
    ("steinmac.simulate", "gg_sample", "channels.gg_sample", _info_size),
)

METHOD_SITES = (
    ("encode1", "schemes.Scheme.encode"),
    ("encode2", "schemes.Scheme.encode"),
    ("decide", "schemes.Scheme.decide"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int:
        for candidate in (stack, self._main_stack):
            try:
                return candidate[-1]
            except IndexError:
                continue
        return 0

    def wrap(self, name: str, fn, info=None):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, None,
                              type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end,
                          info(args, kwargs, result) if info else None, None))
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the caller.

        An exception raised from a signal handler can land between two
        bookkeeping steps of an inner span; the main-thread stack is cut
        back to its depth at entry so later spans keep correct parents.
        """
        depth = len(self._main_stack)
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            del self._main_stack[depth:]

    def install(self) -> None:
        for module_name, attr, name, info in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(
                name, fn, info(_bound(fn)) if info else None))
        for attr, name in METHOD_SITES:
            fn = Scheme.__dict__[attr]
            self._saved.append((Scheme, attr, fn))
            setattr(Scheme, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# --- per-layer metrics ---

LADDER_NS = (100, 200, 400, 800)
EXACT_NS = (8, 12, 16, 20)
DIRECT_BOTH_NS = (8, 12, 16)

PER_LAYER = (
    [(f"simulate.run_trials.us_per_trial.n{n}.null", "us") for n in LADDER_NS]
    + [(f"simulate.run_trials.us_per_trial.n{n}.both", "us")
       for n in DIRECT_BOTH_NS]
    + [
        ("simulate.run_trials.self_us_per_trial", "us"),
        ("simulate.run_trials.par_eff", "ratio"),
        ("schemes.Scheme.encode.us_per_call", "us"),
        ("schemes.Scheme.encode.calls", "count"),
        ("schemes.Scheme.decide.us_per_call", "us"),
        ("schemes.Scheme.decide.calls", "count"),
        ("prob.quantile_map.us_per_call", "us"),
        ("prob.quantile_map.calls", "count"),
        ("channels.gg_sample.us_per_trial", "us"),
        ("channels.gg_sample.samples", "count"),
        ("channels.gg_sample.read_frac", "ratio"),
    ]
    + [(f"schemes.marker_slots_read_frac.n{n}", "ratio")
       for n in EXACT_NS + LADDER_NS]
    + [(f"simulate.importance_sample_beta.us_per_trial.n{n}", "us")
       for n in LADDER_NS]
    + [
        ("simulate.importance_sample_beta.rel_err.n100", "ratio"),
        ("simulate.default_tilt.ms", "ms"),
        ("schemes.build_scheme_for_class.ms", "ms"),
    ]
    + [(f"simulate.exact_error_probs.ms.n{n}", "ms") for n in EXACT_NS]
    + [(f"simulate.exact.joint_types.n{n}", "count") for n in EXACT_NS]
    + [
        ("exponents.min_kl_fixed_marginals.ms", "ms"),
        ("exponents.min_kl_fixed_marginals.sweeps", "count"),
        ("exponents.min_kl_fixed_marginals.calls_per_exponent", "ratio"),
        ("exponents.min_kl_fixed_marginals.deadline_exceeded", "count"),
        ("schemes.class_exponent.ms", "ms"),
        ("channels.classify.us", "us"),
        ("channels.find_markers.us", "us"),
        ("cli.load_problem.ms", "ms"),
        ("channels.load_dmmac.ms", "ms"),
        ("cli.load_config.ms", "ms"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


def _covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _mean_ns(spans, scale: float) -> float:
    if not spans:
        return 0.0
    return sum(s[4] - s[3] for s in spans) / len(spans) / scale


def per_layer_metrics(spans, passes: int, call_name: str) -> dict:
    """Per-layer values from the spans of `passes` identical traced passes.

    Counts are per pass and repeat exactly for a seed. Times are means per
    call (or per trial) over every traced pass. A layer that does no work
    on the workload reads 0. `call_name` is the name of the span the
    benchmark opens around each ``exponent`` CLI call.
    """
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        children.setdefault(s[1], []).append((s[3], s[4]))

    def get(name):
        return by_name.get(name, [])

    out: dict = {}

    rt = get("simulate.run_trials")
    for n in LADDER_NS:
        sel = [s for s in rt if s[5][0] == n and s[5][2] == "null"]
        out[f"simulate.run_trials.us_per_trial.n{n}.null"] = _per_trial(sel)
    for n in DIRECT_BOTH_NS:
        sel = [s for s in rt if s[5][0] == n and s[5][2] == "both"]
        out[f"simulate.run_trials.us_per_trial.n{n}.both"] = _per_trial(sel)
    trials = sum(s[5][1] for s in rt)
    self_ns = sum(
        (s[4] - s[3]) - _covered_ns(children.get(s[0], [])) for s in rt
    )
    out["simulate.run_trials.self_us_per_trial"] = (
        self_ns / 1e3 / trials if trials else 0.0
    )

    for key, name in (("encode", "schemes.Scheme.encode"),
                      ("decide", "schemes.Scheme.decide")):
        sel = get(name)
        out[f"schemes.Scheme.{key}.us_per_call"] = _mean_ns(sel, 1e3)
        out[f"schemes.Scheme.{key}.calls"] = len(sel) // passes
    qm = get("prob.quantile_map")
    out["prob.quantile_map.us_per_call"] = _mean_ns(qm, 1e3)
    out["prob.quantile_map.calls"] = len(qm) // passes

    gg = get("channels.gg_sample")
    gg_ns = sum(s[4] - s[3] for s in gg)
    out["channels.gg_sample.us_per_trial"] = (
        gg_ns / 1e3 / len(gg) if gg else 0.0
    )
    samples = sum(s[5][0] for s in gg)
    out["channels.gg_sample.samples"] = samples // passes
    read = sum(s[5][1] * s[5][3] for s in rt) if gg else 0
    out["channels.gg_sample.read_frac"] = read / samples if samples else 0.0

    built = {s[5][0]: s[5][1] for s in get("schemes.build_scheme_for_class")}
    for n in EXACT_NS + LADDER_NS:
        out[f"schemes.marker_slots_read_frac.n{n}"] = built.get(n, 0) / n

    isb = get("simulate.importance_sample_beta")
    for n in LADDER_NS:
        sel = [s for s in isb if s[5][0] == n]
        out[f"simulate.importance_sample_beta.us_per_trial.n{n}"] = (
            _per_trial(sel)
        )
    first = next((s for s in isb if s[5][0] == 100), None)
    out["simulate.importance_sample_beta.rel_err.n100"] = (
        math.sqrt(first[5][3]) / first[5][2] if first and first[5][2] > 0
        else 0.0
    )
    out["simulate.default_tilt.ms"] = _mean_ns(get("simulate.default_tilt"), 1e6)
    out["schemes.build_scheme_for_class.ms"] = _mean_ns(
        get("schemes.build_scheme_for_class"), 1e6
    )

    ex = get("simulate.exact_error_probs")
    for n in EXACT_NS:
        sel = [s for s in ex if s[5][0] == n]
        out[f"simulate.exact_error_probs.ms.n{n}"] = _mean_ns(sel, 1e6)
        out[f"simulate.exact.joint_types.n{n}"] = sel[0][5][1] if sel else 0

    ipf = get("exponents.min_kl_fixed_marginals")
    done = [s for s in ipf if s[6] is None]
    out["exponents.min_kl_fixed_marginals.ms"] = _mean_ns(done, 1e6)
    out["exponents.min_kl_fixed_marginals.sweeps"] = (
        sum(s[5][0] for s in done) // passes
    )
    calls = get(call_name)
    call_ids = {s[0] for s in calls}
    parents = {s[0]: s[1] for s in spans}

    def under_call(sid):
        while sid:
            if sid in call_ids:
                return True
            sid = parents.get(sid, 0)
        return False

    solves = sum(1 for s in ipf if under_call(s[1]))
    out["exponents.min_kl_fixed_marginals.calls_per_exponent"] = (
        solves / len(calls) if calls else 0.0
    )
    out["exponents.min_kl_fixed_marginals.deadline_exceeded"] = sum(
        1 for s in calls if s[6] == "DeadlineExceeded"
    ) // passes

    out["schemes.class_exponent.ms"] = _mean_ns(
        [s for s in get("schemes.class_exponent") if s[6] is None], 1e6
    )
    out["channels.classify.us"] = _mean_ns(get("channels.classify"), 1e3)
    out["channels.find_markers.us"] = _mean_ns(get("channels.find_markers"), 1e3)
    out["cli.load_problem.ms"] = _mean_ns(get("cli.load_problem"), 1e6)
    out["channels.load_dmmac.ms"] = _mean_ns(get("channels.load_dmmac"), 1e6)
    out["cli.load_config.ms"] = _mean_ns(get("cli.load_config"), 1e6)
    out["trace.spans"] = len(spans) // passes
    return out


def _per_trial(sel) -> float:
    trials = sum(s[5][1] for s in sel)
    if not trials:
        return 0.0
    return sum(s[4] - s[3] for s in sel) / 1e3 / trials
