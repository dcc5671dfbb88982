"""Command-line front end.

Subcommands: analyze | sample | cantor | encode | decode | eval | holder |
level | preimage | variation.  Every command takes ``--config FILE`` (see
``config.py`` for the grammar) plus ``--format``, ``--depth``, ``--tolerance``
and ``--out``.  Outputs are deterministic: floats are printed with 17
significant digits, JSON keys are sorted, and no timestamps or machine data
are ever emitted.  Exit codes: 0 success, 2 validation failure, 3 closed-form
regime not met, 4 I/O failure, 5 internal failure (a failed cross-check of
the library itself, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import extrema, holder, selfaffine, svgplot
from .codec import Cylinder, DigitString, FrequencyVector, cylinder_bounds, decode, encode
from .config import SystemConfig, load_config
from .errors import CertificationError, ConditionsNotMet, QsAffineError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONDITIONS = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

ANALYZE_SAMPLES = 16
ANALYZE_SEED = 0


def _f(v: float) -> str:
    return format(v, ".17g")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="system definition file")
    common.add_argument(
        "--format", choices=("json", "text", "csv", "svg"), default=None
    )
    common.add_argument("--depth", type=int, default=None, help="digit depth")
    common.add_argument(
        "--tolerance", type=float, default=extrema.LEVEL_TOL,
        help="level membership tolerance",
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")

    p = argparse.ArgumentParser(prog="qsaffine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", parents=[common], help="full report for one system")

    sp = sub.add_parser("sample", parents=[common], help="graph samples of f")
    sp.add_argument("--points", type=int, required=True)

    cp = sub.add_parser("cantor", parents=[common], help="maximum-set construction stages")
    cp.add_argument("--steps", type=int, required=True)
    cp.add_argument("--merged", action="store_true", help="join touching intervals")

    ep = sub.add_parser("encode", parents=[common], help="digits of a point")
    ep.add_argument("--x", type=float, required=True)

    dp = sub.add_parser("decode", parents=[common], help="point of a digit string")
    dp.add_argument("--digits", required=True, help='e.g. "1,3,(0,2)"')

    vp = sub.add_parser("eval", parents=[common], help="evaluate f")
    group = vp.add_mutually_exclusive_group(required=True)
    group.add_argument("--digits", help='e.g. "(2)"')
    group.add_argument("--x", type=float)

    hp = sub.add_parser("holder", parents=[common], help="regularity exponents")
    kind = hp.add_mutually_exclusive_group()
    kind.add_argument("--binary", action="store_true", help="exponent at twin points")
    kind.add_argument("--ae", action="store_true", help="exponent at typical points")
    kind.add_argument("--nu", help="comma-separated digit frequencies")
    kind.add_argument("--digits", help="empirical estimate along this string")
    hp.add_argument("--ranks", default="1:64", help="A:B rank range for --digits")

    lp = sub.add_parser("level", parents=[common], help="level-set digits of y")
    lp.add_argument("--y", type=float, required=True)

    pp = sub.add_parser("preimage", parents=[common], help="preimage digits of y")
    pp.add_argument("--y", type=float, required=True)

    wp = sub.add_parser("variation", parents=[common], help="rank-n variation lower bound")
    wp.add_argument("--rank", type=int, required=True)
    return p


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _pick_format(args, allowed: tuple[str, ...]) -> str:
    fmt = args.format or allowed[0]
    if fmt not in allowed:
        raise ValidationError(
            f"format {fmt!r} not supported here; choose one of {allowed}"
        )
    return fmt


def build_analysis(config: SystemConfig, tolerance: float, depth: int | None) -> dict:
    """Deterministic aggregate report; every numeric block carries its tolerance."""
    system = config.system()
    g, delta = system.G.g, system.G.delta
    k = extrema.closed_form_regime(system)
    oracle = system.bounds
    if k is not None:
        m_val = extrema.closed_form_min(system)
        big_m, _ = extrema.closed_form_max(system)
        source, bounds_tol = "closed-form", extrema.ORACLE_TOL
    else:
        m_val, big_m = oracle.m, oracle.M
        source, bounds_tol = "oracle", oracle.residual
    bounds = {
        "m": m_val,
        "M": big_m,
        "source": source,
        "tolerance": bounds_tol,
        "oracle_iterations": oracle.iterations,
        "oracle_residual": oracle.residual,
    }

    # Rows ascend by value; each takes the digits of its level set that no earlier row holds.
    levels = []
    placed: set[int] = set()
    for y, i in sorted((delta[i] / (1.0 - g[i]), i) for i in range(system.s)):
        if i in placed:
            continue
        digits = extrema.level_set(system, y, tolerance).V - placed
        placed |= digits
        levels.append(
            {"y": y, "digits": sorted(digits), "continuum": len(digits) >= 2, "tolerance": tolerance}
        )

    exponents = {
        "global": {"value": holder.global_exponent(system).exponent, "tolerance": 1e-12},
        "almost_everywhere": {
            "value": holder.almost_everywhere_exponent(system).exponent,
            "tolerance": 1e-12,
        },
        "binary": {
            "value": holder.local_exponent_binary(system).exponent,
            "tolerance": 1e-12,
        },
    }

    maxima = None
    non_invariance = None
    if k is not None:
        spec = extrema.maxima_set(system)
        maxima = {
            "digits": sorted(spec.allowed),
            "dimension": spec.dimension,
            "singleton": spec.singleton,
            "tolerance": 1e-12,
        }
        pre_depth = depth if depth is not None else 64
        report = extrema.non_invariance_certificate(
            system, samples=ANALYZE_SAMPLES, depth=pre_depth, seed=ANALYZE_SEED
        )
        non_invariance = {
            "restricted_digits": sorted(report.restricted_digits),
            "dimension": report.dimension,
            "samples": report.samples,
            "depth": report.depth,
            "residual_bound": report.residual_bound,
            "max_residual": report.max_residual,
        }

    return {
        "system": {
            "label": config.label,
            "s": system.s,
            "q": list(config.q_text),
            "g": list(config.g_text),
            "q_values": list(system.Q.q),
            "g_values": list(system.G.g),
        },
        "predicates": {
            "monotone": all(v > 0 for v in g),
            "singular": holder.singularity_predicate(system),
            "nowhere_differentiable": holder.nowhere_differentiable_predicate(system),
            "closed_form_regime": k,
        },
        "bounds": bounds,
        "exponents": exponents,
        "levels": levels,
        "maxima_set": maxima,
        "non_invariance": non_invariance,
    }


def _analysis_text(report: dict) -> str:
    lines: list[str] = []
    sysinfo = report["system"]
    lines.append(f"system {sysinfo['label']} (s = {sysinfo['s']})")
    lines.append("  q = " + ", ".join(sysinfo["q"]))
    lines.append("  g = " + ", ".join(sysinfo["g"]))
    pred = report["predicates"]
    lines.append("predicates")
    lines.append(f"  monotone                {str(pred['monotone']).lower()}")
    lines.append(f"  singular                {str(pred['singular']).lower()}")
    lines.append(f"  nowhere-differentiable  {str(pred['nowhere_differentiable']).lower()}")
    regime = pred["closed_form_regime"]
    lines.append(
        "  closed-form regime      "
        + ("none" if regime is None else f"digit {regime}")
    )
    b = report["bounds"]
    lines.append(f"bounds ({b['source']}, tol {b['tolerance']:.3g})")
    lines.append(f"  m = {_f(b['m'])}")
    lines.append(f"  M = {_f(b['M'])}")
    e = report["exponents"]
    lines.append("exponents (tol 1e-12)")
    lines.append(f"  global             {_f(e['global']['value'])}")
    lines.append(f"  almost-everywhere  {_f(e['almost_everywhere']['value'])}")
    lines.append(f"  twin-points        {_f(e['binary']['value'])}")
    lines.append(f"levels (fixed-point values, tol {report['levels'][0]['tolerance']:.3g})")
    for row in report["levels"]:
        digits = ",".join(str(d) for d in row["digits"])
        cont = "continuum" if row["continuum"] else "thin"
        lines.append(f"  y = {_f(row['y'])}  digits {{{digits}}}  {cont}")
    if report["maxima_set"] is not None:
        mx = report["maxima_set"]
        digits = ",".join(str(d) for d in mx["digits"])
        lines.append("maximum set (tol 1e-12)")
        lines.append(
            f"  digits {{{digits}}}  dimension {_f(mx['dimension'])}"
            + ("  (single point)" if mx["singleton"] else "")
        )
    if report["non_invariance"] is not None:
        ni = report["non_invariance"]
        digits = ",".join(str(d) for d in ni["restricted_digits"])
        lines.append("non-invariance certificate")
        lines.append(
            f"  digits {{{digits}}}  dimension {_f(ni['dimension'])}"
        )
        lines.append(
            f"  {ni['samples']} preimages at depth {ni['depth']}: "
            f"max residual {_f(ni['max_residual'])} <= bound {_f(ni['residual_bound'])}"
        )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> None:
    fmt = _pick_format(args, ("text", "json"))
    report = build_analysis(load_config(args.config), args.tolerance, args.depth)
    if fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_analysis_text(report), args.out)


def _cmd_sample(args) -> None:
    fmt = _pick_format(args, ("csv", "svg"))
    config = load_config(args.config)
    system = config.system()
    rows = selfaffine.sample(system, args.points, depth=args.depth)
    if fmt == "csv":
        lines = ["x,f,error_bound"]
        lines += [f"{_f(x)},{_f(v)},{_f(e)}" for x, v, e in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        b = system.bounds
        label = f"{config.label}: graph of f ({args.points} target points)"
        _emit(svgplot.curve_svg(rows, (0.0, b.m, 1.0, b.M), label), args.out)


def _cmd_cantor(args) -> None:
    fmt = _pick_format(args, ("csv", "svg"))
    if args.steps > 24:
        raise ValidationError("at most 24 construction steps supported")
    config = load_config(args.config)
    system = config.system()
    spec = extrema.maxima_set(system)
    stages = extrema.cantor_construction(spec, args.steps, merged=args.merged)
    if fmt == "csv":
        lines = ["stage,index,left,right"]
        for t, intervals in enumerate(stages, start=1):
            for idx, (lo, hi) in enumerate(intervals):
                lines.append(f"{t},{idx},{_f(lo)},{_f(hi)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        digits = ",".join(str(d) for d in sorted(spec.allowed))
        label = f"{config.label}: maximum-set construction, digits {{{digits}}}"
        _emit(svgplot.bands_svg(stages, label), args.out)


def _text_or_json(args, payload: dict, text: str) -> None:
    fmt = _pick_format(args, ("text", "json"))
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(text, args.out)


def _cmd_encode(args) -> None:
    config = load_config(args.config)
    system = config.system()
    depth = args.depth if args.depth is not None else system.default_depth
    d = encode(args.x, system.Q, depth)
    bound = 0.0 if d.period is not None else cylinder_bounds(Cylinder(d.prefix), system.Q)[2]
    payload = {"digits": d.to_text(), "exact": d.period is not None, "error_bound": bound}
    _text_or_json(args, payload, f"digits {d.to_text()}\nerror_bound {_f(bound)}\n")


def _cmd_decode(args) -> None:
    config = load_config(args.config)
    system = config.system()
    d = DigitString.from_text(args.digits, system.s)
    x = decode(d, system.Q)
    bound = 0.0 if d.period is not None else cylinder_bounds(Cylinder(d.prefix), system.Q)[2]
    payload = {"x": x, "error_bound": bound}
    _text_or_json(args, payload, f"x {_f(x)}\nerror_bound {_f(bound)}\n")


def _cmd_eval(args) -> None:
    config = load_config(args.config)
    system = config.system()
    if args.digits is not None:
        d = DigitString.from_text(args.digits, system.s)
        value, bound = selfaffine.evaluate(system, d)
    else:
        value, bound = selfaffine.evaluate_at(system, args.x, depth=args.depth)
    payload = {"value": value, "error_bound": bound}
    _text_or_json(args, payload, f"value {_f(value)}\nerror_bound {_f(bound)}\n")


def _cmd_holder(args) -> None:
    config = load_config(args.config)
    system = config.system()
    if args.binary:
        report = holder.local_exponent_binary(system)
    elif args.ae:
        report = holder.almost_everywhere_exponent(system)
    elif args.nu is not None:
        try:
            nu = tuple(float(t) for t in args.nu.split(","))
        except ValueError as exc:
            raise ValidationError(f"--nu must be comma-separated numbers; got {args.nu!r}") from exc
        report = holder.local_exponent_unary(system, FrequencyVector(nu, n=0, exact=True))
    elif args.digits is not None:
        lo, _, hi = args.ranks.partition(":")
        try:
            ranks = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise ValidationError(f"--ranks must be A:B with integers; got {args.ranks!r}") from exc
        d = DigitString.from_text(args.digits, system.s)
        report = holder.empirical_exponent(system, d, ranks)
    else:
        report = holder.global_exponent(system)
    payload = {"exponent": report.exponent, "kind": report.kind, "note": report.note}
    _text_or_json(
        args, payload, f"exponent {_f(report.exponent)}\nkind {report.kind}\n"
    )


def _cmd_level(args) -> None:
    config = load_config(args.config)
    desc = extrema.level_set(config.system(), args.y, tol=args.tolerance)
    payload = {
        "y": desc.y,
        "digits": sorted(desc.V),
        "continuum": desc.continuum,
        "tolerance": args.tolerance,
    }
    digits = ",".join(str(d) for d in sorted(desc.V))
    _text_or_json(
        args,
        payload,
        f"y {_f(desc.y)}\ndigits {{{digits}}}\ncontinuum {str(desc.continuum).lower()}\n",
    )


def _cmd_preimage(args) -> None:
    config = load_config(args.config)
    system = config.system()
    depth = args.depth if args.depth is not None else 64
    d = extrema.preimage_digits(system, args.y, depth)
    bound = extrema.preimage_residual_bound(system, depth)
    residual = abs(selfaffine.evaluate(system, d).value - args.y)
    payload = {
        "digits": d.to_text(),
        "residual": residual,
        "residual_bound": bound,
    }
    _text_or_json(
        args,
        payload,
        f"digits {d.to_text()}\nresidual {_f(residual)}\nresidual_bound {_f(bound)}\n",
    )


def _cmd_variation(args) -> None:
    config = load_config(args.config)
    value = selfaffine.variation_lower_bound(config.system(), args.rank)
    payload = {"rank": args.rank, "value": value}
    _text_or_json(args, payload, f"value {_f(value)}\n")


_DISPATCH = {
    "analyze": _cmd_analyze,
    "sample": _cmd_sample,
    "cantor": _cmd_cantor,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "holder": _cmd_holder,
    "level": _cmd_level,
    "preimage": _cmd_preimage,
    "variation": _cmd_variation,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except ConditionsNotMet as exc:
        _diagnostic(exc)
        return EXIT_CONDITIONS
    except CertificationError as exc:
        _diagnostic(exc)
        return EXIT_INTERNAL
    except QsAffineError as exc:
        _diagnostic(exc)
        return EXIT_VALIDATION
    except OSError as exc:
        _diagnostic(exc)
        return EXIT_IO
    return EXIT_OK


def _diagnostic(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


def console_entry() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
