"""Command-line front end.

Subcommands: analyze | sample | cantor | encode | decode | eval | holder |
level | preimage | variation.  Every command takes ``--config FILE`` (see
``config.py`` for the grammar), ``--format`` and ``--out``; ``--depth`` and
``--tolerance`` only where the command reads them (``qsaffine <command>
--help`` lists its flags and formats).  Outputs are deterministic: floats are
printed with 17 significant digits, JSON keys are sorted, and no timestamps
or machine data are ever emitted.  Exit codes: 0 success, 2 validation
failure, 3 closed-form regime not met, 4 I/O failure, 5 internal failure (a
failed cross-check of the library itself, not bad input).  A reader that closes
stdout early (``| head``) is not a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from collections.abc import Callable, Iterator

from . import extrema, holder, selfaffine
from .codec import DigitString, FrequencyVector, check_count, decode, encode, walk
from .config import SystemConfig, load_config
from .errors import CertificationError, ConditionsNotMet, QsAffineError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONDITIONS = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

#: Tolerance reported with the analytic exponents and the maximum-set dimension.
ANALYZE_TOL = 1e-12
#: Largest ``--depth``, and ``--ranks`` end, any command accepts: every digit requested is walked.
MAX_DEPTH = 2**16
#: Largest ``sample --points``; on the bundled configs 2**17 gives at most about 376k rows.
#: Skewed weights need far more, and ``selfaffine.SAMPLE_ROW_CAP`` caps the rows themselves.
MAX_POINTS = 2**17
#: Rows per block of ``_blocks``, the one formatter of the csv and svg tables: one ``%``
#: format per block, so the text held at once does not grow with the file.
BLOCK_ROWS = 1024

TEXT = ("text", "json")
PLOT = ("csv", "svg")
#: An integer argument: ASCII digits after an optional "-".  int() alone would also
#: take "+3", "1_0", " 3" and non-ASCII digits such as "٣"; a negative value is left
#: to the library's own check.
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The value of ``--depth``, ``--points``, ``--steps`` and ``--rank`` (an argparse ``type``)."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits after an optional '-'; got {text!r}")
    return int(text)


def _number(text: str) -> float:
    """The value of ``--x``, ``--y``, ``--tolerance`` and each ``--nu`` token: what
    ``float()`` takes, but only in ASCII and without ``_`` ("1_0", "٠.٥" and "１" fail)."""
    if text.isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            return float(text)
    raise argparse.ArgumentTypeError(f"expected a number; got {text!r}")


def _f(v: float) -> str:
    return format(v, ".17g")


def _text(v) -> str:
    """One value of text output: lower-case bools, lists as ``{a,b}``, numbers via ``_f``."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, list):
        return "{" + ",".join(str(d) for d in v) + "}"
    return v if isinstance(v, str) else _f(v)


def _render(payload: dict, fmt: str, *keys: str) -> str:
    """``payload`` as sorted JSON, or one ``key value`` line per named key."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(f"{k} {_text(payload[k])}\n" for k in keys)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused: the handlers and defaults (``--tolerance`` from
    ``extrema.LEVEL_TOL``) are bound then, so patching them later has no effect."""
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", required=True, help="system definition file")
    base.add_argument("--format", choices=("json", "text", "csv", "svg"), default=None)
    base.add_argument("--out", default=None, help="output path (default stdout)")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=_integer, default=None, help="digit depth")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument(
        "--tolerance", type=_number, default=extrema.LEVEL_TOL, help="level membership tolerance"
    )

    p = argparse.ArgumentParser(prog="qsaffine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, formats, summary, *needs):
        # One declaration per command: its handler, its formats (default
        # first) and the shared flags it reads.
        sp = sub.add_parser(
            name, parents=[base, *needs], help=summary,
            description=f"{summary}; formats {', '.join(formats)} (default {formats[0]})",
        )
        sp.set_defaults(run=run, formats=formats)
        return sp

    command("analyze", _cmd_analyze, TEXT, "full report for one system", depth, tolerance)

    sp = command("sample", _cmd_sample, PLOT, "graph samples of f", depth)
    sp.add_argument("--points", type=_integer, required=True)

    cp = command("cantor", _cmd_cantor, PLOT, "maximum-set construction stages")
    cp.add_argument("--steps", type=_integer, required=True)
    cp.add_argument("--merged", action="store_true", help="join touching intervals")

    ep = command("encode", _cmd_encode, TEXT, "digits of a point", depth)
    ep.add_argument("--x", type=_number, required=True)

    dp = command("decode", _cmd_decode, TEXT, "point of a digit string")
    dp.add_argument("--digits", required=True, help='e.g. "1,3,(0,2)"')

    vp = command(
        "eval", _cmd_eval, TEXT,
        f"evaluate f; --x walks digits until the bound reaches {selfaffine.DEPTH_TARGET:g},"
        " or exactly --depth (--x only)",
        depth,
    )
    group = vp.add_mutually_exclusive_group(required=True)
    group.add_argument("--digits", help='e.g. "(2)"')
    group.add_argument("--x", type=_number)

    hp = command("holder", _cmd_holder, TEXT, "regularity exponents")
    kind = hp.add_mutually_exclusive_group()
    kind.add_argument("--binary", action="store_true", help="exponent at twin points")
    kind.add_argument("--ae", action="store_true", help="exponent at typical points")
    kind.add_argument("--nu", help="comma-separated digit frequencies")
    kind.add_argument("--digits", help="empirical estimate along this string")
    hp.add_argument("--ranks", default="1:64", help="A:B rank range for --digits")

    lp = command("level", _cmd_level, TEXT, "level-set digits of y", tolerance)
    lp.add_argument("--y", type=_number, required=True)

    pp = command("preimage", _cmd_preimage, TEXT, "preimage digits of y", depth)
    pp.add_argument("--y", type=_number, required=True)

    wp = command("variation", _cmd_variation, TEXT, "rank-n variation lower bound")
    wp.add_argument("--rank", type=_integer, required=True)
    return p


def _level_row(y: float, digits: list[int], tolerance: float) -> dict:
    """A printed level row of ``level`` and ``analyze``: the one place ``continuum`` is set."""
    return {"y": y, "digits": digits, "continuum": len(digits) >= 2, "tolerance": tolerance}


def build_analysis(config: SystemConfig, tolerance: float, depth: int | None) -> dict:
    """Deterministic aggregate report; every numeric block carries its tolerance.

    One pass, each step once: the tolerance and depth are checked here, the
    system by ``config.system()``, and the regime is decided once, in the
    record of ``extrema._closed_forms``, which every later step reads.
    Each block equals what the public function over it gives:
    - ``bounds``: the record's M and m (``closed_form_max``,
      ``closed_form_min``), or the solver outside the regime; the record's
      quotients give the level rows, grouped by ``extrema._level_rows``
      (``level_set`` per row) and formatted by ``_level_row``;
    - ``exponents`` and ``singular``: ``holder._global_value``,
      ``holder._frequency_formula`` at nu = q (the a.e. exponent and the
      singularity predicate, from the one kernel of the frequency formula)
      and ``holder._binary_value``, with no report built;
    - ``maxima_set``: ``extrema.maxima_set`` itself, which cross-checks M,
      V(M) and m against the solver before anything else is reported;
    - ``non_invariance``: ``extrema.non_invariance_certificate`` itself: the
      Moran root, the residual bound, the exact covering and the y = 1
      witness, whose value ``codec.unwalk`` composes in the descent that
      picks its digits.
    """
    extrema._check_tolerance(tolerance)
    depth = extrema.PREIMAGE_DEPTH if depth is None else check_count(depth, "depth", 1)
    system = config.system()
    g = system.G.g
    forms = extrema._closed_forms(system)
    k = forms.k
    oracle = system.bounds
    maxima = non_invariance = None
    if k is not None:
        spec = extrema.maxima_set(system)
        m_val, big_m = forms.m, forms.M
        source, bounds_tol = "closed-form", extrema.ORACLE_TOL
        maxima = {
            "digits": sorted(spec.allowed),
            "dimension": spec.dimension,
            "singleton": spec.singleton,
            "tolerance": ANALYZE_TOL,
        }
        report = extrema.non_invariance_certificate(system, depth)
        non_invariance = {**report._asdict(), "restricted_digits": sorted(report.restricted_digits)}
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

    rows = extrema._level_rows(forms.quotients, tolerance)
    levels = [_level_row(y, digits, tolerance) for y, digits in rows]

    typical, singular = holder._frequency_formula(system, system.Q.q)
    exponents = {
        key: {"value": value, "tolerance": ANALYZE_TOL}
        for key, value in (
            ("global", holder._global_value(system)),
            ("almost_everywhere", typical),
            ("binary", holder._binary_value(system)),
        )
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
            "monotone": min(g) > 0.0,
            "singular": singular,
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
    lines.append(f"  monotone                {_text(pred['monotone'])}")
    lines.append(f"  singular                {_text(pred['singular'])}")
    lines.append(f"  nowhere-differentiable  {_text(pred['nowhere_differentiable'])}")
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
    lines.append(f"exponents (tol {ANALYZE_TOL:.3g})")
    lines.append(f"  global             {_f(e['global']['value'])}")
    lines.append(f"  almost-everywhere  {_f(e['almost_everywhere']['value'])}")
    lines.append(f"  twin-points        {_f(e['binary']['value'])}")
    lines.append(f"levels (fixed-point values, tol {report['levels'][0]['tolerance']:.3g})")
    for row in report["levels"]:
        cont = "continuum" if row["continuum"] else "thin"
        lines.append(f"  y = {_f(row['y'])}  digits {_text(row['digits'])}  {cont}")
    if report["maxima_set"] is not None:
        mx = report["maxima_set"]
        lines.append(f"maximum set (tol {ANALYZE_TOL:.3g})")
        lines.append(
            f"  digits {_text(mx['digits'])}  dimension {_f(mx['dimension'])}"
            + ("  (single point)" if mx["singleton"] else "")
        )
    if report["non_invariance"] is not None:
        ni = report["non_invariance"]
        proved = ni["covering_proved"]
        lines.append("non-invariance " + ("certificate" if proved else "(covering not proved)"))
        lines.append(
            f"  digits {_text(ni['restricted_digits'])}  dimension {_f(ni['dimension'])}"
        )
        lines.append(
            f"  covering of [0, L] {'proved' if proved else 'not proved'}: "
            f"L - 1 = {_f(ni['covering_margin'])}"
        )
        lines.append(
            f"  preimage of y = 1 at depth {ni['depth']}: "
            f"residual {_f(ni['max_residual'])} <= bound {_f(ni['residual_bound'])}"
        )
    return "\n".join(lines) + "\n"


# Command handlers: each takes (args, config, fmt) and returns the text to write: one
# str, or an iterable of str chunks whose inputs are all computed before it is returned,
# so that every rejection comes before ``--out`` is opened.


def _cmd_analyze(args, config: SystemConfig, fmt: str) -> str:
    report = build_analysis(config, args.tolerance, args.depth)
    return _analysis_text(report) if fmt == "text" else _render(report, fmt)


def _cmd_sample(args, config: SystemConfig, fmt: str) -> str | Iterator[str]:
    if args.points > MAX_POINTS:
        raise ValidationError(f"{args.points} points are above the cap of {MAX_POINTS}")
    system = config.system()
    xs, fs, errs = selfaffine._sample_columns(system, args.points, depth=args.depth)
    if fmt == "svg":
        from . import svgplot  # only svg output needs it

        b = system.bounds
        label = f"{config.label}: graph of f ({args.points} target points)"
        return svgplot.curve_svg(xs, fs, (0.0, b.m, 1.0, b.M), label)
    return _sample_csv(xs, fs, errs)


def _blocks(row: str, n: int, columns: Callable[[int, int], tuple]) -> Iterator[str]:
    """``row`` formatted for rows 0 to ``n - 1``, one ``%`` per block of ``BLOCK_ROWS``
    rows; ``columns(i, j)`` gives the format's columns for rows ``i`` to ``j - 1``."""
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        cols = columns(i, j)
        m = len(cols)
        flat = [0.0] * (m * (j - i))
        for c, col in enumerate(cols):
            flat[c::m] = col
        yield row * (j - i) % tuple(flat)


def _sample_csv(xs: list[float], fs: list[float], errs: list[float]) -> Iterator[str]:
    """The csv header, then the rows in blocks; "%.17g" % v is _f(v) for every double."""
    yield "x,f,error_bound\n"
    yield from _blocks("%.17g,%.17g,%.17g\n", len(xs), lambda i, j: (xs[i:j], fs[i:j], errs[i:j]))


def _cmd_cantor(args, config: SystemConfig, fmt: str) -> str | Iterator[str]:
    spec = extrema.maxima_set(config.system())
    stages = extrema.cantor_construction(spec, args.steps, merged=args.merged)
    if fmt == "svg":
        from . import svgplot  # only svg output needs it

        label = f"{config.label}: maximum-set construction, digits {_text(sorted(spec.allowed))}"
        return svgplot.bands_svg(stages, label)
    return _cantor_csv(stages)


def _cantor_csv(stages: list[list[tuple[float, float]]]) -> Iterator[str]:
    """The csv header, then the rows of each stage in blocks."""
    yield "stage,index,left,right\n"
    for t, intervals in enumerate(stages, start=1):
        yield from _blocks(
            f"{t},%d,%.17g,%.17g\n", len(intervals),
            lambda i, j: (range(i, j), *zip(*intervals[i:j])),
        )


def _point_error(d: DigitString, Q) -> float:
    """Error bound of the point of ``d``: 0 if periodic, its cylinder's width if truncated."""
    return 0.0 if d.period is not None else walk(d.prefix, Q.beta, Q.q)[1]


def _cmd_encode(args, config: SystemConfig, fmt: str) -> str:
    system = config.system()
    d = encode(args.x, system.Q, args.depth if args.depth is not None else system.default_depth)
    bound = _point_error(d, system.Q)
    payload = {"digits": d.to_text(), "exact": d.period is not None, "error_bound": bound}
    return _render(payload, fmt, "digits", "error_bound")


def _cmd_decode(args, config: SystemConfig, fmt: str) -> str:
    system = config.system()
    d = DigitString.from_text(args.digits, system.s)
    payload = {"x": decode(d, system.Q), "error_bound": _point_error(d, system.Q)}
    return _render(payload, fmt, "x", "error_bound")


def _cmd_eval(args, config: SystemConfig, fmt: str) -> str:
    if args.digits is not None and args.depth is not None:
        raise ValidationError("--depth applies to --x only; a digit string sets its own depth")
    system = config.system()
    if args.digits is not None:
        value, bound = selfaffine.evaluate(system, DigitString.from_text(args.digits, system.s))
    else:
        value, bound = selfaffine.evaluate_at(system, args.x, depth=args.depth)
    return _render({"value": value, "error_bound": bound}, fmt, "value", "error_bound")


def _cmd_holder(args, config: SystemConfig, fmt: str) -> str:
    system = config.system()
    if args.binary:
        report = holder.local_exponent_binary(system)
    elif args.ae:
        report = holder.almost_everywhere_exponent(system)
    elif args.nu is not None:
        try:
            nu = tuple(map(_number, args.nu.split(",")))
        except argparse.ArgumentTypeError as exc:
            raise ValidationError(f"--nu must be comma-separated numbers; got {args.nu!r}") from exc
        report = holder.local_exponent_unary(system, FrequencyVector(nu, n=0, exact=True))
    elif args.digits is not None:
        first, colon, last = args.ranks.partition(":")
        if not (colon and _INTEGER.fullmatch(first) and _INTEGER.fullmatch(last)):
            raise ValidationError(f"--ranks must be A:B with integers; got {args.ranks!r}")
        first, last = int(first), int(last)
        if first < 1 or last > MAX_DEPTH:  # checked before the library lists every rank
            raise ValidationError(
                f"--ranks A:B needs A >= 1 and B at most the cap of {MAX_DEPTH}; got {args.ranks!r}"
            )
        d = DigitString.from_text(args.digits, system.s)
        report = holder.empirical_exponent(system, d, range(first, last + 1))
    else:
        report = holder.global_exponent(system)
    payload = {"exponent": report.exponent, "kind": report.kind, "note": report.note}
    return _render(payload, fmt, "exponent", "kind")


def _cmd_level(args, config: SystemConfig, fmt: str) -> str:
    desc = extrema.level_set(config.system(), args.y, tol=args.tolerance)
    payload = _level_row(desc.y, sorted(desc.V), args.tolerance)
    return _render(payload, fmt, "y", "digits", "continuum")


def _cmd_preimage(args, config: SystemConfig, fmt: str) -> str:
    system = config.system()
    depth = extrema.PREIMAGE_DEPTH if args.depth is None else args.depth
    d = extrema.preimage_digits(system, args.y, depth)
    payload = {
        "digits": d.to_text(),
        "residual_bound": extrema.preimage_residual_bound(system, depth),
        "residual": abs(selfaffine.evaluate(system, d).value - args.y),
    }
    return _render(payload, fmt, "digits", "residual", "residual_bound")


def _cmd_variation(args, config: SystemConfig, fmt: str) -> str:
    value = selfaffine.variation_lower_bound(config.system(), args.rank)
    return _render({"rank": args.rank, "value": value}, fmt, "value")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if (getattr(args, "depth", None) or 0) > MAX_DEPTH:
            raise ValidationError(f"depth {args.depth} is above the cap of {MAX_DEPTH} digits")
        fmt = args.format or args.formats[0]
        if fmt not in args.formats:
            raise ValidationError(
                f"format {fmt!r} not supported here; choose one of {args.formats}"
            )
        text = args.run(args, load_config(args.config), fmt)
        chunks = [text] if isinstance(text, str) else text
        if args.out is None:
            _write_stdout(chunks)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
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


def _write_stdout(chunks: list[str] | Iterator[str]) -> None:
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``), which is not a failure.  Point stdout
        # at devnull, so that the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _diagnostic(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


def console_entry() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
