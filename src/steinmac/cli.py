"""Command-line front end.

Three subcommands:

* ``classify <kernel-file>`` prints the connectivity class and, when the
  class calls for them, the marker witnesses for each signaling sensor;
* ``exponent <problem-file> (--channel <kernel-file> | --gg p,sigma,h1,h2) [-v]``
  prints the achievable type-2 exponent and its minimizing source joint;
  ``-v`` adds the I-projection's sweeps, residual and face to stderr;
* ``simulate <config-file>`` runs a blocklength ladder and writes a CSV.

Problem files: a dims line ``|U1| |U2| |V|``, the P tensor row-major, a
blank line, then the Q tensor. ``#`` lines are comments. Config files are
flat ``key = value`` lines; paths are resolved relative to the config file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .channels import (
    BudgetLaw,
    ChannelClass,
    CostModel,
    Dmmac,
    GgMac,
    _read_file,
    _read_table,
    _unit_rows,
    classify,
    find_markers,
    load_dmmac,
)
from .errors import NoMarkers, OutOfRange, ParseError, SteinmacError
from .exponents import min_kl_fixed_marginals  # noqa: F401  (bench traces it by name)
from .prob import Joint3Pmf
from .schemes import class_exponent  # noqa: F401  (bench traces it by name)
from .schemes import class_projection
from .simulate import SimConfig, TestProblem, run_ladder

# scheme values and the class each asks for; auto takes the channel's own
_SCHEMES = {
    "auto": None, "local": ChannelClass.FULL,
    **{c.label: c for c in ChannelClass if c.signalling},
}


def load_problem(path) -> TestProblem:
    """Parse a problem file into a TestProblem; errors carry line numbers."""
    dims, blocks = _read_table(_read_file(path, "problem"), str(path))
    if len(blocks) != 2:
        raise ParseError(
            f"expected P and Q tensors separated by a blank line, found "
            f"{len(blocks)} block(s)",
            path=str(path),
        )
    p, q = _unit_rows(
        [(None, flat) for flat, _ in blocks], dims[0] * dims[1] * dims[2],
        str(path), lambda i: "tensor " + "PQ"[i],
    )
    return TestProblem(Joint3Pmf(p.reshape(dims)), Joint3Pmf(q.reshape(dims)))


def _integers(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


_TEXT, _NUMBER, _INTEGER = (str, None), (float, "a number"), (int, "an integer")
# every config key: its reader, what a value it cannot read should have
# been, and the constructor parameter a range error names the key by
_CONFIG_KEYS = {
    "problem": (*_TEXT, None), "channel.kind": (*_TEXT, None),
    "channel.file": (*_TEXT, None), "cost.law": (*_TEXT, "kind"),
    "scheme": (*_TEXT, None), "estimator": (*_TEXT, "estimator"), "out": (*_TEXT, None),
    "gg.p": (*_NUMBER, "p"), "gg.sigma": (*_NUMBER, "sigma"),
    "gg.h1": (*_NUMBER, "h1"), "gg.h2": (*_NUMBER, "h2"),
    "cost.a": (*_NUMBER, "a"), "cost.b": (*_NUMBER, "b"),
    "sim.trials": (*_INTEGER, "trials"), "sim.seed": (*_INTEGER, "master_seed"),
    "sim.mu": (*_NUMBER, "mu"),
    "sim.ladder": (_integers, "comma-separated integers", "n_ladder"),
}
_KEY_OF = {field: key for key, (_, _, field) in _CONFIG_KEYS.items() if field}


def load_config(path) -> dict:
    """Parse a config file into {key: value}, each value read by its key's
    reader; errors carry line numbers."""
    path = Path(path)
    cfg: dict = {}
    for lineno, raw in enumerate(_read_file(path, "config").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(
                f"expected key = value, got {line!r}", path=str(path), line=lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", path=str(path), line=lineno)
        if key in cfg:
            raise ParseError(f"duplicate key {key!r}", path=str(path), line=lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", path=str(path), line=lineno)
        read, expected, _ = _CONFIG_KEYS[key]
        try:
            cfg[key] = read(value)
        except ValueError:
            raise ParseError(
                f"{key} must be {expected}, got {value!r}", path=str(path), line=lineno
            ) from None
    return cfg


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ParseError(f"missing required key {key!r}", path=path)
    return cfg[key]


def _parse_gg_mac(text: str) -> GgMac:
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 4:
        raise ParseError("--gg expects p,sigma,h1,h2")
    try:
        p, sigma, h1, h2 = (float(tok) for tok in parts)
    except ValueError:
        raise ParseError(f"--gg expects four numbers, got {text!r}")
    return _checked(GgMac, "--gg", {}, p, sigma, h1, h2)


def _checked(make, where: str, keys: dict, *args, **kwargs):
    """make(*args, **kwargs), with a value it rejects reported as a
    ParseError against where, a config file or a command-line option, and
    named by its key in keys."""
    try:
        return make(*args, **kwargs)
    except OutOfRange as e:
        key = keys.get(e.field, e.field)
        raise ParseError(f"{key} {e.requirement}", path=where) from None


def cmd_classify(args) -> int:
    ch = load_dmmac(args.kernel)
    cls = classify(ch)
    print(f"class: {cls.label}")
    try:
        markers = find_markers(ch, cls)
    except NoMarkers:
        print("markers: none (every output stays reachable)")
        return 0
    for sensor in cls.signalling:
        w = markers.witness(sensor)
        print(
            f"sensor {sensor} marker: off_input={w.off_input} "
            f"on_input={w.on_input} partner_pilot={w.partner_pilot} "
            f"marker_output={w.marker_output} "
            f"p_marker={w.marker_prob(ch, sensor):.6g}"
        )
    return 0


def cmd_exponent(args) -> int:
    problem = load_problem(args.problem)
    if args.channel is not None:
        ch = load_dmmac(args.channel)
        cls = classify(ch)
        print(f"class: {cls.label}")
    else:
        _parse_gg_mac(args.gg)  # validated; a noisy additive channel never
        cls = ChannelClass.FULL  # loses an output, so only v is observable
    res = class_projection(cls, problem.p, problem.q)
    if args.verbose:
        print(
            f"ipf: sweeps={res.iterations} residual={res.residual:.3e} "
            f"face={res.face} of {np.count_nonzero(problem.q.probs)} cells",
            file=sys.stderr,
        )
    lines = [
        f"exponent: {res.value:.6f}",
        f"exponent_nats: {res.value!r}",
        "minimizer (u1 u2 v probability):",
    ]
    for a, plane in enumerate(res.argmin.tolist()):
        for b, row in enumerate(plane):
            lines += [f"{a} {b} {c} {x:.12g}" for c, x in enumerate(row)]
    print("\n".join(lines))
    return 0


def _resolve_scheme(requested: str, channel, path: str) -> ChannelClass:
    if requested not in _SCHEMES:
        raise ParseError(
            f"scheme must be one of {tuple(_SCHEMES)}, got {requested!r}", path=path
        )
    # an additive noise channel never loses an output, so it has no markers
    cls = ChannelClass.FULL if isinstance(channel, GgMac) else classify(channel)
    wanted = _SCHEMES[requested] or cls
    if wanted in (ChannelClass.FULL, cls):
        return wanted
    suggestion = "local" if cls is ChannelClass.FULL else cls.label
    raise ParseError(
        f"channel classifies as {cls.label}; the {requested} scheme is "
        f"unavailable (scheme=auto selects {suggestion})",
        path=path,
    )


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ParseError("must be >= 1", path="--workers")
    cfg_path = Path(args.config)
    cfg = load_config(cfg_path)
    base = cfg_path.parent
    spath = str(cfg_path)

    problem = load_problem(base / _require(cfg, "problem", spath))

    kind = _require(cfg, "channel.kind", spath)
    if kind == "dmmac":
        channel = load_dmmac(base / _require(cfg, "channel.file", spath))
    elif kind == "gg":
        channel = _checked(GgMac, spath, _KEY_OF, *(
            _require(cfg, f"gg.{key}", spath) for key in ("p", "sigma", "h1", "h2")
        ))
    else:
        raise ParseError(
            f"channel.kind must be dmmac or gg, got {kind!r}", path=spath
        )

    cls = _resolve_scheme(cfg.get("scheme", "auto"), channel, spath)

    cost_model = None
    if cls is not ChannelClass.FULL:
        law_kind = cfg.get("cost.law", "power")
        law = _checked(BudgetLaw, spath, _KEY_OF, law_kind, *(
            _require(cfg, key, spath)
            for key in (("cost.a", "cost.b") if law_kind == "power" else ("cost.a",))
        ))
        n1, n2, _ = channel.dims
        cost_model = CostModel.unit(n1, n2, law)

    sim = _checked(
        SimConfig, spath, _KEY_OF,
        n_ladder=_require(cfg, "sim.ladder", spath),
        trials=_require(cfg, "sim.trials", spath),
        master_seed=_require(cfg, "sim.seed", spath),
        mu=_require(cfg, "sim.mu", spath),
        cost_model=cost_model,
        estimator=cfg.get("estimator", "direct"),
        workers=args.workers,
    )
    report = run_ladder(problem, channel, cls, sim)

    out = base / _require(cfg, "out", spath)
    out.write_text(report.to_csv())
    fitted = report.fitted_exponent
    fitted_str = f"{fitted:.6f}" if fitted is not None else "nan"
    print(f"wrote {out}")
    print(
        f"fitted_exponent: {fitted_str}  "
        f"theoretical_exponent: {report.theoretical_exponent:.6f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmac",
        description="Stein exponents and sublinear-cost testing schemes "
        "over multiple-access channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify a channel kernel file")
    p_cls.add_argument("kernel", help="kernel file path")
    p_cls.set_defaults(func=cmd_classify)

    p_exp = sub.add_parser("exponent", help="achievable type-2 exponent")
    p_exp.add_argument("problem", help="problem file path")
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--channel", help="kernel file path")
    group.add_argument("--gg", help="additive-noise channel as p,sigma,h1,h2")
    p_exp.add_argument(
        "-v", "--verbose", action="store_true",
        help="report the I-projection's sweeps, residual and face on stderr",
    )
    p_exp.set_defaults(func=cmd_exponent)

    p_sim = sub.add_parser("simulate", help="run a blocklength ladder")
    p_sim.add_argument("config", help="config file path")
    p_sim.add_argument(
        "--workers", type=int, default=1,
        help="worker threads; the output is identical for any count",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process: building
    it costs more than most calls, and parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SteinmacError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
