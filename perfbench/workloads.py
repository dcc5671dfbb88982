"""The four benchmark workloads: inputs, operations and correctness checks.

Each workload is a closed loop with one client in one process: an operation
is issued only after the previous one returned.  ``setup`` builds every
input from the seed; ``ops`` is the list of zero-argument operations one
pass runs; ``check`` verifies the first pass's results outside the timed
region and returns hard failures (the benchmark reports ``correct: false``)
and soft counts (certified claims that an exact reference refutes, which
are known library defects and are reported as measurements).

Why these four:

* ``eval-points``: per-point evaluation.  ``codec`` and ``selfaffine``
  evaluation do almost all the work; ``extrema``, ``svgplot`` and ``cli``
  stay idle.
* ``analysis-sweep``: whole-system analysis.  The bounds solver,
  ``extrema`` and ``holder`` do the work; ``codec`` is idle.  A
  near-critical tail stresses the bounds iteration.
* ``figures``: the commands ``scripts/reproduce_figures.py`` issues, run
  in-process.  Sampling's tree walk, ``svgplot`` and CLI formatting
  dominate; ``codec.encode`` never runs.
* ``cli-cold``: one-shot CLI calls as subprocesses.  Interpreter start and
  package import dominate; the only workload where import-time work shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from qsaffine import cli, codec, config, extrema, selfaffine
from qsaffine.codec import DigitString
from qsaffine.config import SystemConfig

import gen
from exact import ExactSystem, bounds_margin, sum_margin


class OpFailed(Exception):
    """An operation finished with an outcome other than the expected one."""


class Checks:
    """Hard failures, plus soft certificate checks counted per label."""

    def __init__(self) -> None:
        self.hard: list[str] = []  # the first 20 failure messages
        self.failed = 0
        self.cert_checked: dict[str, int] = {}
        self.cert_violated: dict[str, int] = {}
        self.undecided = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.hard) < 20:
                self.hard.append(message)

    def certificate(self, label: str, verdict: bool | None) -> None:
        if verdict is None:
            self.undecided += 1
            return
        self.cert_checked[label] = self.cert_checked.get(label, 0) + 1
        if not verdict:
            self.cert_violated[label] = self.cert_violated.get(label, 0) + 1


def _claim(value: float, bound: float, margin: float) -> tuple[Fraction, Fraction]:
    """Exact interval ``value +- (bound + margin)`` that a certified claim asserts."""
    v = Fraction(value)
    w = Fraction(bound) + Fraction(margin)
    return v - w, v + w


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: list = []
        self.exact_by_weights: dict[tuple[float, ...], ExactSystem] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, results: list) -> Checks:
        raise NotImplementedError

    def properties(self) -> dict:
        return {}

    def trace_ops(self) -> list:
        """The operations a traced pass runs; the timed operations by default."""
        return self.ops

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report_extra(self) -> dict:
        """Workload-specific entries for the run report."""
        return {}

    def close(self) -> None:
        pass

    def _bundled(self) -> list[tuple[str, SystemConfig, ExactSystem]]:
        out = []
        for name in gen.BUNDLED:
            cfg = config.load_config(self.root / "configs" / f"{name}.cfg")
            ex = ExactSystem.from_text(cfg.q_text, cfg.g_text)
            self.exact_by_weights[cfg.q] = ex
            out.append((name, cfg, ex))
        return out


# ---------------------------------------------------------------------------


class EvalPoints(Workload):
    name = "eval-points"
    #: Point operations per system whose certificate is checked exactly.
    CHECKED_PER_SYSTEM = 6

    def setup(self) -> None:
        rng = self.rng
        entries = [(name, cfg.system(), ex) for name, cfg, ex in self._bundled()]
        for spec in gen.eval_point_systems(rng):
            system = SystemConfig(spec.q_text, spec.g_text, spec.label).system()
            ex = ExactSystem.from_text(spec.q_text, spec.g_text)
            self.exact_by_weights[system.Q.q] = ex
            entries.append((spec.label, system, ex))
        self.entries = []
        ops = []
        for label, system, ex in entries:
            selfaffine.global_bounds(system)  # first bounds computation, cached
            depth = system.default_depth
            kinds = ["terminating"] * gen.TERMINATING_PER_SYSTEM
            kinds += ["uniform"] * (gen.POINTS_PER_SYSTEM - gen.TERMINATING_PER_SYSTEM)
            kinds += ["string"] * gen.STRINGS_PER_SYSTEM
            for j, kind in enumerate(kinds):
                if kind == "string":
                    prefix, period = gen.digit_string(rng, system.s, depth, truncated=j % 2 == 0)
                    arg = DigitString(prefix, period, system.s)
                elif kind == "terminating":
                    arg = float(ex.digit_point(gen.cylinder_digits(rng, system.s)))
                else:
                    arg = rng.random()
                ops.append((label, system, ex, kind, arg))
            self.entries.append((label, system, ex, depth))
        rng.shuffle(ops)
        self.op_inputs = ops
        self.ops = [self._make_op(system, kind, arg) for _, system, _, kind, arg in ops]

    @staticmethod
    def _make_op(system, kind, arg):
        if kind == "string":
            return lambda: (codec.decode(arg, system.Q), selfaffine.evaluate(system, arg))
        return lambda: selfaffine.evaluate_at(system, arg)

    def properties(self) -> dict:
        kinds = [k for _, _, _, k, _ in self.op_inputs]
        points = [k for k in kinds if k != "string"]
        return {
            "systems": len(self.entries),
            "operations_per_pass": len(kinds),
            "s": gen.distribution(sy.s for _, sy, _, _ in self.entries),
            "default_depth": gen.depth_summary([d for *_, d in self.entries]),
            "max_abs_g": gen.depth_summary([round(float(ex.gmax), 3) for _, _, ex, _ in self.entries]),
            "terminating_share_of_points": round(points.count("terminating") / len(points), 4),
            "digit_string_share": round(kinds.count("string") / len(kinds), 4),
            "regime_share": round(sum(ex.regime() is not None for _, _, ex, _ in self.entries) / len(self.entries), 4),
        }

    def check(self, results: list) -> Checks:
        checks = Checks()
        rng = random.Random(self.seed * 7919 + 1)
        picked: dict[str, int] = {}
        x_side: dict[int, ExactSystem] = {}
        order = list(range(len(self.op_inputs)))
        rng.shuffle(order)
        exact_closed = 0
        for i in order:
            label, system, ex, kind, arg = self.op_inputs[i]
            result = results[i]
            group = label if not label.startswith("random") else "random"
            if isinstance(result, BaseException):
                checks.require(False, f"{label} {kind}: raised {type(result).__name__}")
                continue
            m, M = ex.hull_bounds()
            margin = sum_margin(ex)
            if kind == "string":
                x, (value, bound) = result
                S, P = ex.digit_value(arg.prefix, arg.period)
                xs = x_side.setdefault(id(ex), ExactSystem(ex.q, ex.q))
                x_ref, _ = xs.digit_value(arg.prefix, arg.period)
                x_err = abs(Fraction(x) - x_ref)
                checks.require(x_err <= sum_margin(xs), f"{label}: decode off by {float(x_err):.3g}")
                lo, hi = _claim(value, bound, margin)
                a, b = sorted((S + P * m, S + P * M))
                ok = lo <= a and b <= hi
                checks.require(ok, f"{label}: evaluate of {arg.to_text()[:40]} outside its certified bound")
                checks.certificate(group + " (digit strings)", ok)
                continue
            value, bound = result
            checks.require(math.isfinite(value) and bound >= 0.0, f"{label}: non-finite result")
            lo, hi = _claim(value, bound, margin)
            checks.require(lo <= M and hi >= m, f"{label} x={arg!r}: value {value!r} outside f's range")
            exact_closed += bound == 0.0
            if picked.get(label, 0) < self.CHECKED_PER_SYSTEM:
                picked[label] = picked.get(label, 0) + 1
                verdict, _ = ex.point_value(arg, lo, hi)
                checks.certificate(group, verdict)
                again = self.ops[i]()
                checks.require(again == result, f"{label} x={arg!r}: result changed on replay")
        self.closed_share = exact_closed / max(1, sum(k != "string" for *_, k, _ in self.op_inputs))
        return checks

    def report_extra(self) -> dict:
        return {"closed_with_exact_period_share": round(self.closed_share, 4)}


# ---------------------------------------------------------------------------


def _numerators(spec) -> tuple[list[int], list[int]]:
    return ([int(Fraction(t) * gen.DEN) for t in spec.q_text], [int(Fraction(t) * gen.DEN) for t in spec.g_text])


class AnalysisSweep(Workload):
    name = "analysis-sweep"

    def setup(self) -> None:
        self.specs = gen.sweep_systems(self.rng)
        self.configs = [SystemConfig(s.q_text, s.g_text, s.label) for s in self.specs]
        self.exact = [ExactSystem.from_text(s.q_text, s.g_text) for s in self.specs]
        tol = extrema.LEVEL_TOL
        self.ops = [(lambda c=c: cli.build_analysis(c, tol, None)) for c in self.configs]

    def properties(self) -> dict:
        n = len(self.specs)
        return {
            "systems": n,
            "s": gen.distribution(len(s.q_text) for s in self.specs),
            "regime_share": round(sum(ex.regime() is not None for ex in self.exact) / n, 4),
            "near_critical_share": round(sum(s.kind == "near-critical" for s in self.specs) / n, 4),
            "tight_preimage_bound_share": round(sum(
                s.kind == "regime" and gen.preimage_bound(*_numerators(s)) < gen.TIGHT_BOUND for s in self.specs
            ) / n, 4),
            "near_critical_abs_g": gen.distribution(
                round(float(ex.gmax), 3) for s, ex in zip(self.specs, self.exact) if s.kind == "near-critical"
            ),
            "max_abs_g": gen.depth_summary([round(float(ex.gmax), 3) for ex in self.exact]),
        }

    def check(self, results: list) -> Checks:
        checks = Checks()
        for spec, ex, report in zip(self.specs, self.exact, results):
            if isinstance(report, BaseException):
                continue  # counted as a failed operation
            k = ex.regime()
            m, M = ex.hull_bounds()
            pred = report["predicates"]
            checks.require(pred["closed_form_regime"] == k, f"{spec.label}: regime {pred['closed_form_regime']} != {k}")
            checks.require(pred["monotone"] == all(v > 0 for v in ex.g), f"{spec.label}: monotone flag")
            groups = [row["digits"] for row in report["levels"]]
            checks.require(groups == ex.level_groups(), f"{spec.label}: level groups {groups}")
            if k is not None:
                cm, cM = ex.closed_form_bounds()
                if (cm, cM) != (m, M):
                    raise ArithmeticError(f"{spec.label}: exact closed form disagrees with the exact hull")
                checks.require(report["maxima_set"]["digits"] == sorted(ex.max_digits()), f"{spec.label}: V(M)")
                ni = report["non_invariance"]
                checks.require(ni["restricted_digits"] == list(range(k)), f"{spec.label}: restricted digits")
                checks.require(ni["max_residual"] <= ni["residual_bound"], f"{spec.label}: preimage residual")
            b = report["bounds"]
            margin = bounds_margin(ex)
            ok = all(
                lo <= exact <= hi
                for value, exact in ((b["m"], m), (b["M"], M))
                for lo, hi in [_claim(value, b["tolerance"], margin)]
            )
            checks.certificate(spec.kind, ok)
        return checks


# ---------------------------------------------------------------------------


def _workdir(root: Path, name: str) -> Path:
    path = root / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Figures(Workload):
    name = "figures"
    POINTS = 4096
    STEPS = 5

    def setup(self) -> None:
        self.out = _workdir(self.root, "figures")
        commands = []
        for name, cfg, ex in self._bundled():
            path = str(self.root / "configs" / f"{name}.cfg")
            out = self.out
            commands += [
                (name, "svg", ["sample", "--config", path, "--points", str(self.POINTS),
                               "--format", "svg", "--out", str(out / f"{name}.svg")], 0),
                (name, "csv", ["sample", "--config", path, "--points", str(self.POINTS),
                               "--format", "csv", "--out", str(out / f"{name}.csv")], 0),
                (name, "json", ["analyze", "--config", path, "--format", "json",
                                "--out", str(out / f"{name}.json")], 0),
                (name, "cantor", ["cantor", "--config", path, "--steps", str(self.STEPS),
                                  "--format", "svg", "--out", str(out / f"{name}_cantor.svg")],
                 0 if ex.regime() is not None else cli.EXIT_CONDITIONS),
            ]
        self.rng.shuffle(commands)
        self.commands = commands
        self.digests: dict[str, set[str]] = {}
        self.ops = [self._make_op(argv, rc) for _, _, argv, rc in commands]

    def _make_op(self, argv, expected):
        out_path = argv[-1]

        def op():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            if rc != expected:
                raise OpFailed(f"exit {rc}, expected {expected}: {err.getvalue().strip()}")
            return rc

        def after(result) -> None:
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    self.digests.setdefault(out_path, set()).add(hashlib.sha256(fh.read()).hexdigest())

        op.after = after
        return op

    def properties(self) -> dict:
        return {
            "commands_per_pass": len(self.commands),
            "configs": len(gen.BUNDLED),
            "sample_points": self.POINTS,
            "cantor_steps": self.STEPS,
            "expected_exit_3": sum(rc == cli.EXIT_CONDITIONS for *_, rc in self.commands),
        }

    def check(self, results: list) -> Checks:
        checks = Checks()
        bounds = {}
        for name in gen.BUNDLED:
            path = self.out / f"{name}.json"
            report = json.loads(path.read_text(encoding="utf-8"))
            b = report["bounds"]
            bounds[name] = (b["m"], b["M"], b["tolerance"])
        for name in gen.BUNDLED:
            m, M, tol = bounds[name]
            with open(self.out / f"{name}.csv", encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            checks.require(rows[0] == "x,f,error_bound", f"{name}.csv: header {rows[0]!r}")
            fs = [float(r.split(",")[1]) for r in rows[1:]]
            checks.require(len(fs) >= self.POINTS, f"{name}.csv: {len(fs)} rows")
            checks.require(all(m - tol <= f <= M + tol for f in fs),
                           f"{name}.csv: f outside the reported [m, M] = [{m}, {M}]")
            for svg in (f"{name}.svg", f"{name}_cantor.svg"):
                path = self.out / svg
                if path.exists():
                    try:
                        root = ET.fromstring(path.read_bytes())
                        checks.require(root.tag.endswith("svg"), f"{svg}: root element {root.tag}")
                    except ET.ParseError as exc:
                        checks.require(False, f"{svg}: not well-formed ({exc})")
        for path, digests in self.digests.items():
            checks.require(len(digests) == 1, f"{Path(path).name}: {len(digests)} distinct outputs across passes")
        return checks

    def report_extra(self) -> dict:
        return {"output_sha256": {Path(p).name: sorted(d)[0] for p, d in sorted(self.digests.items())}}

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------

CLI_CODE = "import sys; from qsaffine.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion; returns (exit code, stdout, stderr, peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


class CliCold(Workload):
    name = "cli-cold"
    COMMANDS = ("eval", "encode", "level", "analyze")

    def setup(self) -> None:
        rng = self.rng
        calls = []
        for name, cfg, ex in self._bundled():  # every command on every config once
            path = str(self.root / "configs" / f"{name}.cfg")
            for kind in self.COMMANDS:
                if kind in ("eval", "encode"):
                    argv = [kind, "--config", path, "--x", repr(rng.random())]
                elif kind == "level":
                    argv = ["level", "--config", path, "--y", repr(round(rng.random(), 6))]
                else:
                    argv = ["analyze", "--config", path, "--format", "json"]
                calls.append(argv)
        rng.shuffle(calls)
        self.calls = calls
        self.expected = [self.in_process(argv) for argv in calls]
        self.env = child_env(self.root)
        self.child_rss_mb = 0.0
        self.mismatches = 0
        self.ops = [self._make_op(argv, exp) for argv, exp in zip(calls, self.expected)]

    def in_process(self, argv: list[str]) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue().encode("utf-8")

    def _make_op(self, argv, expected):
        cmd = [sys.executable, "-c", CLI_CODE, *argv]

        def op():
            rc, out, err, rss = run_child(cmd, self.env, self.root)
            self.child_rss_mb = max(self.child_rss_mb, rss)
            self.mismatches += (rc, out) != expected
            if rc != expected[0]:
                raise OpFailed(f"exit {rc}, expected {expected[0]}: {err.decode(errors='replace').strip()[:200]}")
            return rc, out

        return op

    def trace_ops(self) -> list:
        """The same calls made in-process, so the traced run can see inside them."""
        return [(lambda argv=argv: self.in_process(argv)) for argv in self.calls]

    def peak_rss_mb(self) -> float:
        """The children are this workload's processes: the largest child's peak."""
        return self.child_rss_mb

    def properties(self) -> dict:
        return {
            "calls_per_pass": len(self.calls),
            "commands": gen.distribution(a[0] for a in self.calls),
            "configs": gen.distribution(Path(a[2]).stem for a in self.calls),
        }

    def check(self, results: list) -> Checks:
        checks = Checks()
        checks.require(self.mismatches == 0,
                       f"{self.mismatches} calls differ from in-process main in exit code or stdout")
        return checks


WORKLOADS = {w.name: w for w in (EvalPoints, AnalysisSweep, Figures, CliCold)}
