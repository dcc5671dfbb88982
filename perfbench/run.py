#!/usr/bin/env python3
"""qsaffine benchmark: seeded workloads against the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-points --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

``--trace 0`` runs the workload untraced for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
over the same operations and reports per-layer metrics from the traced
ones (see ``spans.py``); end-to-end metrics never come from a traced run.
``--workload all`` runs every workload both ways, each in its own process,
and prints one table.  ``BENCHMARK.json`` lists the workloads whose
end-to-end metrics are gated; ``cli-cold`` is run only on request (see
``README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the sample counts, the failure and certificate-violation shares, and
the recorded input properties.  The benchmark exits 2 without a result
when the library sources are not in the checkout, and 1 when a check
cannot run.  Apart from Python's bytecode caches it writes only under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups measured per run, each in a fresh interpreter; the median is reported.
SETUP_REPEATS = 7
#: Time of one calibration slice at reference speed (see ``calibration_ms``).
CAL_REF_MS = 4.0
#: Bare-interpreter and import timings per traced run; medians are reported.
INTERPRETER_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("codec.encode.ms", "ms"),
    ("codec.encode.calls", "count"),
    ("codec.encode.digits", "count"),
    ("codec.encode.exact_share", "ratio"),
    ("codec.decode.ms", "ms"),
    ("codec.decode.calls", "count"),
    ("codec.decode.digits", "count"),
    ("selfaffine.evaluate.ms", "ms"),
    ("selfaffine.evaluate.calls", "count"),
    ("selfaffine.evaluate.digits", "count"),
    ("selfaffine.evaluate_at.self_ms", "ms"),
    ("selfaffine.global_bounds.ms", "ms"),
    ("selfaffine.global_bounds.calls", "count"),
    ("selfaffine.global_bounds.iterations", "count"),
    ("selfaffine.global_bounds.failures", "count"),
    ("selfaffine.sample.ms", "ms"),
    ("selfaffine.sample.calls", "count"),
    ("selfaffine.sample.rows", "count"),
    ("extrema.closed_form_max.ms", "ms"),
    ("extrema.closed_form_max.calls", "count"),
    ("extrema.closed_form_min.ms", "ms"),
    ("extrema.maxima_set.ms", "ms"),
    ("extrema.moran_dimension.ms", "ms"),
    ("extrema.non_invariance_certificate.ms", "ms"),
    ("extrema.preimage_digits.ms", "ms"),
    ("extrema.preimage_digits.calls", "count"),
    ("extrema.preimage_digits.digits", "count"),
    ("extrema.cantor_construction.ms", "ms"),
    ("extrema.cantor_construction.intervals", "count"),
    ("holder.ms", "ms"),
    ("holder.calls", "count"),
    ("config.load_config.ms", "ms"),
    ("config.system.ms", "ms"),
    ("cli.build_analysis.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("svgplot.curve_svg.ms", "ms"),
    ("svgplot.bands_svg.ms", "ms"),
    ("svgplot.bytes", "count"),
    ("trace.overhead_share", "ratio"),
)

#: Per-layer metrics that are self times although their name ends in ``.ms``.
SELF_TIME = {"config.system.ms": "config.system.self_ms"}


class CheckError(RuntimeError):
    """A correctness check could not run."""


def locate_library() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "qsaffine" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"benchmark: no library sources under {src} or no configs/; nothing to measure\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one of its CPUs.

    The calibration slices must run on the CPU that runs the operations: the
    two CPUs of the machine this was built on were slowed independently, and a
    child scheduled on the other one escaped the rescaling.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workdir() -> Path:
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibration_ms(slices: int = 1) -> float:
    """Median time in ms of ``slices`` fixed slices of pure-Python work that use no repository code.

    On the 2-core machine this was built on, the speed of identical code
    switches between states up to 1.6x apart, for seconds to minutes at a
    time, from load outside the container.  Every time the benchmark
    reports is rescaled to reference speed: multiplied by
    ``CAL_REF_MS / calibration_ms()`` measured beside it.  The slice mixes
    float and integer arithmetic, dict stores and string formatting, like
    the library.  It allocates nothing the cyclic garbage collector tracks
    and runs with the collector paused, so the size of the benchmark's own
    heap cannot change it.  The raw times and the factors are in the report.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(slices):
            start = time.perf_counter_ns()
            acc = 0.0
            table = {}
            parts = []
            for i in range(16000):
                acc += (i * 0.5) * 1.0000001 - (i % 7)
                table[i & 255] = acc
                if i % 64 == 0:
                    parts.append(f"{acc:.6g}")
            times.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Factor that rescales a time measured between two calibration slices."""
    return CAL_REF_MS / (0.5 * (before_ms + after_ms))


# -- set-up -------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Import, generate and build once in this fresh interpreter; print the time."""
    before = calibration_ms(3)  # a fresh interpreter: the first slice also warms up
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](ROOT, seed)
    wl.setup()
    elapsed = time.perf_counter() - start
    factor = speed_factor(before, calibration_ms(3))
    wl.close()
    print(json.dumps({"setup_s": elapsed, "factor": factor}))


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(raw set-up seconds, speed factor) of each fresh-interpreter set-up."""
    from workloads import child_env, run_child

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_REPEATS):
        rc, out, err, _ = run_child(cmd, child_env(ROOT), ROOT)
        if rc != 0:
            raise CheckError(f"set-up probe failed ({rc}): {err.decode(errors='replace')[-500:]}")
        probe = json.loads(out.decode().splitlines()[-1])
        probes.append((probe["setup_s"], probe["factor"]))
    return probes


# -- untraced run --------------------------------------------------------------


#: Operation time between two calibration slices in a timed run.
SEGMENT_NS = 50_000_000


class PassStats(NamedTuple):
    """One pass of a timed run; ``*_ns`` rescaled to reference speed, ``raw_*`` as measured."""

    ops: int
    total_ns: float
    p50_ns: float
    p90_ns: float
    beyond_p90: int
    raw_total_ns: int
    raw_p50_ns: float
    raw_p90_ns: float


def timed_loop(ops: list, seconds: float):
    """Closed loop of whole passes over ``ops`` until ``seconds`` have elapsed.

    A calibration slice runs after every ``SEGMENT_NS`` of operation time,
    and each operation's latency is rescaled with the factor of the two
    slices around it.  Returns a ``PassStats`` per pass, the failures by
    exception type, and the first pass's results (an exception object for
    a failed operation).  At
    least one pass runs.  Latencies are summarised per pass and dropped, so
    memory does not grow with the run.
    """
    clock = time.perf_counter_ns
    passes: list[PassStats] = []
    failures: dict[str, int] = {}
    results: list = [None] * len(ops)
    deadline = clock() + int(seconds * 1e9)
    cal = calibration_ms()
    while not passes or clock() < deadline:
        raw: list[int] = []
        scaled: list[float] = []
        segment = 0
        for i, op in enumerate(ops):
            start = clock()
            try:
                result = op()
            except Exception as exc:  # a failed operation is a measurement, not a crash
                result = exc
                failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
            latency = clock() - start
            raw.append(latency)
            segment += latency
            if not passes:
                results[i] = result
            after = getattr(op, "after", None)
            if after is not None:
                after(result)
            if segment >= SEGMENT_NS or i == len(ops) - 1:
                following = calibration_ms()
                factor = speed_factor(cal, following)
                scaled += [v * factor for v in raw[len(scaled):]]
                cal, segment = following, 0
        p90 = quantile(scaled, 90)
        passes.append(PassStats(len(raw), sum(scaled), statistics.median(scaled), p90,
                                sum(v > p90 for v in scaled), sum(raw), statistics.median(raw),
                                quantile(raw, 90)))
    return passes, failures, results


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    import workloads

    probes = measure_setup(name, seed)
    wl = workloads.WORKLOADS[name](ROOT, seed)
    try:
        wl.setup()
        passes, failures, results = timed_loop(wl.ops, seconds)
        peak_rss_mb = wl.peak_rss_mb()
        try:
            checks = wl.check(results)
        except Exception as exc:
            raise CheckError(f"{type(exc).__name__}: {exc}") from exc
        properties = wl.properties()
        extra = wl.report_extra()
    finally:
        wl.close()

    # Each statistic is taken per pass (a pass holds every operation once)
    # on latencies rescaled to reference speed, and the median over passes
    # is reported.
    attempted = sum(p.ops for p in passes)
    failed = sum(failures.values())
    checked = sum(checks.cert_checked.values())
    violated = sum(checks.cert_violated.values())
    metrics = {
        "setup_s": statistics.median(t * f for t, f in probes),
        "ops_per_s": statistics.median(p.ops / (p.total_ns / 1e9) for p in passes),
        "op_ms_p50": statistics.median(p.p50_ns / 1e6 for p in passes),
        "op_ms_p90": statistics.median(p.p90_ns / 1e6 for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in probes),
        "ops_per_s": statistics.median(p.ops / (p.raw_total_ns / 1e9) for p in passes),
        "op_ms_p50": statistics.median(p.raw_p50_ns / 1e6 for p in passes),
        "op_ms_p90": statistics.median(p.raw_p90_ns / 1e6 for p in passes),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "samples": attempted,
        "passes": len(passes),
        "samples_beyond_p90": sum(p.beyond_p90 for p in passes),
        "unscaled": raw,
        "speed_factor": statistics.median(p.total_ns / p.raw_total_ns for p in passes),
        "setup_samples": [{"s": t, "factor": f} for t, f in probes],
        "failed_share": failed / attempted,
        "failures": failures,
        "first_pass_failures": sum(isinstance(r, BaseException) for r in results),
        "first_pass_operations": len(results),
        "cert_violation_share": violated / checked if checked else 0.0,
        "cert_checked": checked,
        "cert_violated": violated,
        "cert_undecided": checks.undecided,
        "cert_by_label": {
            label: f"{checks.cert_violated.get(label, 0)}/{n}" for label, n in sorted(checks.cert_checked.items())
        },
        "hard_check_failures": checks.hard,
        "inputs": properties,
        **extra,
    }
    return {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "report": report,
    }


# -- traced run ----------------------------------------------------------------


def run_pass(ops: list, tracer=None) -> tuple[float, int, float]:
    """One pass over ``ops``; returns (wall ns, failed operations, speed factor)."""
    failed = 0
    clock = time.perf_counter_ns
    before = calibration_ms()
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            op()
        except Exception:
            failed += 1
    wall = clock() - start
    return wall, failed, speed_factor(before, calibration_ms())


def interpreter_times() -> tuple[float, float]:
    """Medians in ms of a bare ``python -c pass`` and of ``import qsaffine.cli`` on top of it."""
    from workloads import child_env, run_child

    env = child_env(ROOT)
    bare, imported = [], []
    for _ in range(INTERPRETER_REPEATS):
        before = calibration_ms()
        pair = []
        for cmd in ("pass", "import qsaffine.cli"):
            start = time.perf_counter()
            rc, _, err, _ = run_child([sys.executable, "-c", cmd], env, ROOT)
            pair.append((time.perf_counter() - start) * 1e3)
            if rc != 0:
                raise CheckError(f"python -c {cmd!r} failed: {err.decode(errors='replace')[-300:]}")
        factor = speed_factor(before, calibration_ms())
        bare.append(pair[0] * factor)
        imported.append(pair[1] * factor)
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def exact_share(sample, exact_by_weights) -> float:
    """Share of traced ``encode`` results whose digits are the exact digits of ``x``."""
    if not sample:
        return 0.0
    hits = 0
    for x, weights, d in sample:
        ex = exact_by_weights.get(weights)
        if ex is None:
            raise CheckError(f"no exact system for weights {weights}")
        digits, period = ex.point_digits(x, len(d.prefix))
        hits += list(d.prefix) == digits and d.period == period
    return hits / len(sample)


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer()
    wl = workloads.WORKLOADS[name](ROOT, seed)
    try:
        before = calibration_ms()
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.remove()
        factor = speed_factor(before, calibration_ms())
        setup_counts = dict(tracer.counts)
        setup_times = {k: v * factor for k, v in tracer.times_ms().items()}
        setup_spans = list(tracer.spans)

        ops = wl.trace_ops()
        plain_walls, traced_walls, pass_counts, pass_times = [], [], [], []
        attempted = failed = 0
        first_spans = first_sample = None
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while not traced_walls or time.perf_counter_ns() < deadline:
            wall, nfail, factor = run_pass(ops)
            plain_walls.append(wall * factor)
            attempted += len(ops)
            failed += nfail
            tracer.reset()
            tracer.install()
            try:
                wall, nfail, factor = run_pass(ops, tracer)
            finally:
                tracer.remove()
            traced_walls.append(wall * factor)
            attempted += len(ops)
            failed += nfail
            pass_counts.append(dict(tracer.counts))
            pass_times.append({k: v * factor for k, v in tracer.times_ms().items()})
            if first_spans is None:
                first_spans = list(tracer.spans)
                first_sample = list(tracer.encode_sample)
        share = exact_share(first_sample, wl.exact_by_weights)
    finally:
        wl.close()

    hard = []
    if any(c != pass_counts[0] for c in pass_counts):
        hard.append("work counters differ between traced passes of the same operations")
    counts = dict(setup_counts)
    for k, v in pass_counts[0].items():
        counts[k] = counts.get(k, 0) + v
    keys = set(setup_times).union(*pass_times)
    times = {
        k: setup_times.get(k, 0.0) + statistics.median(t.get(k, 0.0) for t in pass_times) for k in keys
    }
    interp_ms, import_ms = interpreter_times()
    derived = {
        "codec.encode.exact_share": share,
        "cli.interpreter_ms": interp_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_share": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    }
    metrics = {}
    for key, unit in PER_LAYER:
        if key in derived:
            value = derived[key]
        elif unit == "ms":
            value = times.get(SELF_TIME.get(key, key), 0.0)
        else:
            value = counts.get(key, 0)
        metrics[key] = {"value": value, "unit": unit}

    spans_path = workdir() / f"spans-{name}-seed{seed}.jsonl"
    tracer.spans[:] = setup_spans + first_spans
    tracer.write(spans_path)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced_passes": len(traced_walls),
        "operations_per_pass": len(ops),
        "encode_exact_sample": len(first_sample),
        "spans_written": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "hard_check_failures": hard,
    }
    return {"correct": not hard, "attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


# -- all workloads ---------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced in child processes; print one table."""
    import workloads

    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            lines = proc.stdout.splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            status |= not result["correct"]
            rows.append((name, trace, result, report))
    print(f"{'workload':<15} {'metric':<40} {'value':>14}  unit")
    for name, trace, result, report in rows:
        for key, m in result["metrics"].items():
            print(f"{name:<15} {key:<40} {m['value']:>14.6g}  {m['unit']}")
        if trace == 0:
            print(f"{name:<15} {'failed_share':<40} {report['failed_share']:>14.6g}  ratio"
                  f"  ({result['failed']}/{result['attempted']})")
            print(f"{name:<15} {'cert_violation_share':<40} {report['cert_violation_share']:>14.6g}  ratio"
                  f"  ({report['cert_violated']}/{report['cert_checked']})")
            print(f"{name:<15} {'correct':<40} {str(result['correct']):>14}")
    return status


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("eval-points", "analysis-sweep", "figures", "cli-cold", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    locate_library()
    pin_to_one_cpu()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import qsaffine

    if Path(qsaffine.__file__).resolve().parent != (ROOT / "src" / "qsaffine").resolve():
        sys.stderr.write(f"benchmark: imported qsaffine from {qsaffine.__file__}, not from this checkout\n")
        return 2
    run = run_traced if args.trace else run_untraced
    try:
        out = run(args.workload, args.seed, args.seconds)
    except CheckError as exc:
        sys.stderr.write(f"benchmark: a check could not run: {exc}\n")
        return 1
    print(json.dumps({"report": out.pop("report")}, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
