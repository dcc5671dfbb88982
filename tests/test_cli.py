import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qsaffine
from qsaffine import cli, extrema, holder, selfaffine, svgplot
from qsaffine.cli import EXIT_INTERNAL, MAX_DEPTH, MAX_POINTS, _f, build_analysis, main
from qsaffine.codec import FrequencyVector
from qsaffine.config import SystemConfig, load_config
from qsaffine.errors import CertificationError
from qsaffine.extrema import LEVEL_TOL, level_set
from qsaffine.svgplot import _fc
from helpers import TIGHT_CONFIG, random_admissible_system, random_regime_system

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
#: The environment of a child interpreter that imports this checkout's package.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(qsaffine.__file__).resolve().parents[1]))


# Integer and number arguments are ASCII text: each of these exits 2, though int() or
# float() alone reads most of them.
BAD_INTEGERS = ("1_0", "+3", " 3", "3 ", "\u0663", "\uff11", "3.0", "")
BAD_NUMBERS = ("1_0", "0.2_5", "\u0660.\u0665", "\uff11", " \u0663 ", "0x1", "")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def cfg(name):
    return str(CONFIG_DIR / f"{name}.cfg")


def write_config(tmp_path, text, name="sys.cfg"):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


def as_config(system, label="random"):
    return SystemConfig(tuple(map(repr, system.Q.q)), tuple(map(repr, system.G.g)), label)


class TestAnalyze:
    def test_reference_report(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--config", cfg("cantor_max"), "--format", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["bounds"]["M"] == pytest.approx(2.0, abs=1e-10)
        assert report["bounds"]["source"] == "closed-form"
        assert report["maxima_set"]["digits"] == [1, 2]
        assert report["maxima_set"]["dimension"] == pytest.approx(0.564, abs=1e-3)
        assert report["predicates"]["nowhere_differentiable"] is True
        assert report["non_invariance"]["dimension"] < 1.0

    def test_identity_report(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--config", cfg("identity"), "--format", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["predicates"]["monotone"] is True
        assert report["predicates"]["singular"] is False
        assert report["predicates"]["closed_form_regime"] is None
        assert report["bounds"]["source"] == "oracle"
        assert report["bounds"]["m"] == 0.0
        assert report["bounds"]["M"] == 1.0
        assert report["maxima_set"] is None

    def test_continuum_level_reported(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--config", cfg("level_sets"), "--format", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["predicates"]["singular"] is True
        rows = {tuple(r["digits"]): r for r in report["levels"]}
        assert rows[(1, 3)]["continuum"] is True
        assert rows[(1, 3)]["y"] == pytest.approx(0.625, abs=1e-12)

    def test_levels_match_level_set(self):
        rng = np.random.default_rng(5)
        configs = [load_config(path) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
        for n in range(8):
            system = random_admissible_system(rng)
            q_text = tuple(repr(v) for v in system.Q.q)
            g_text = tuple(repr(v) for v in system.G.g)
            configs.append(SystemConfig(q_text, g_text, f"random{n}"))
        # Quotients -0.079, -0.033, 0 and 1: at tolerance 0.05 the level set of 0
        # reaches back into the first row.
        configs.append(SystemConfig(("0.25",) * 4, ("-0.075", "0.05", "0.25", "0.775"), "overlap"))
        for config in configs:
            system = config.system()
            g, delta = system.G.g, system.G.delta
            for tol in (LEVEL_TOL, 0.0, 0.05):
                report = build_analysis(config, tol, None)
                # Reference grouping: sorted quotients, each group holding the
                # quotients within tol of its first.
                expected: list[tuple[float, list[int]]] = []
                for y, i in sorted((delta[i] / (1.0 - g[i]), i) for i in range(system.s)):
                    if expected and abs(y - expected[-1][0]) <= tol:
                        expected[-1][1].append(i)
                    else:
                        expected.append((y, [i]))
                rows = report["levels"]
                assert [(r["y"], r["digits"]) for r in rows] == [
                    (y, sorted(ds)) for y, ds in expected
                ], config.label
                placed: set[int] = set()
                for row in rows:
                    desc = level_set(system, row["y"], tol)
                    assert row["digits"] == sorted(desc.V - placed), config.label
                    assert row["continuum"] == (len(row["digits"]) >= 2), config.label
                    placed |= desc.V
                every = sorted(d for row in rows for d in row["digits"])
                assert every == list(range(system.s)), config.label

    def test_tight_preimage_bound_system(self):
        report = build_analysis(TIGHT_CONFIG, LEVEL_TOL, 64)
        ni = report["non_invariance"]
        assert ni["depth"] == 64 and ni["covering_proved"] is True
        assert ni["max_residual"] <= ni["residual_bound"]

    def test_unproved_covering_is_not_called_a_certificate(self, capsys, tmp_path):
        # Float delta_4 = 1.0000000000000002 puts this system in the regime,
        # but a seam of the covering fails on the stored doubles.
        seam = write_config(tmp_path, "q: [1/6, 1/6, 1/6, 1/6, 1/6, 1/6]\n"
                                      "g: [1/13, 6/13, 3/13, 3/13, -3/13, 3/13]\n")
        rc, out, _ = run(capsys, "analyze", "--config", seam)
        assert rc == 0
        assert "non-invariance (covering not proved)" in out
        assert "covering of [0, L] not proved: L - 1 = 2.1649348980190552e-16" in out
        assert "certificate" not in out
        rc, out, _ = run(capsys, "analyze", "--config", seam, "--format", "json")
        assert rc == 0 and json.loads(out)["non_invariance"]["covering_proved"] is False
        rc, out, _ = run(capsys, "analyze", "--config", cfg("cantor_max"))
        assert rc == 0
        assert "non-invariance certificate\n" in out
        assert "covering of [0, L] proved: L - 1 = 1.0000000000000004\n" in out
        assert "preimage of y = 1 at depth 64: residual 0 <= bound " in out

    @given(
        centres=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        spots=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-4, 4), st.sampled_from((0.0, 1e-17, -1e-17, 1e-12))),
            min_size=1, max_size=40,
        ),
        tol=st.sampled_from((LEVEL_TOL, 0.0, 0.05)),
    )
    def test_level_rows_match_the_full_scan(self, centres, spots, tol):
        # Quotients in clusters, spaced by half the tolerance plus a jitter of
        # under an ulp or of 1e-12, so that rows meet and overlap at their edges.
        quotients = [centres[c % len(centres)] + m * (tol or LEVEL_TOL) / 2 + e for c, m, e in spots]
        # The scan the sorted walk replaced: every row compares every quotient.
        expected, placed = [], set()
        for y, i in sorted(zip(quotients, range(len(quotients)))):
            if i in placed:
                continue
            digits = {j for j, v in enumerate(quotients) if abs(v - y) <= tol} - placed
            placed |= digits
            expected.append(
                {"y": y, "digits": sorted(digits), "continuum": len(digits) >= 2, "tolerance": tol}
            )
        rows = extrema._level_rows(quotients, tol)
        assert [cli._level_row(y, digits, tol) for y, digits in rows] == expected

    def test_text_and_json_are_byte_stable(self, capsys):
        for fmt in ("text", "json"):
            _, out1, _ = run(capsys, "analyze", "--config", cfg("deep_min_s3"), "--format", fmt)
            _, out2, _ = run(capsys, "analyze", "--config", cfg("deep_min_s3"), "--format", fmt)
            assert out1 == out2 and out1

    def test_reports_keep_their_bytes(self):
        # scripts/analysis_digest.py pins the 5400 reports of gen seeds 1 to 3 (about
        # 2.5 s, a CI step); here the 1800 of gen seed 4 at depths None, 1 and 8, by
        # the same recipe, against the digest the reports had before the per-system
        # work was fused (each step once: one witness descent, one regime decision).
        spec = importlib.util.spec_from_file_location("analysis_digest", ROOT / "scripts" / "analysis_digest.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.digest((4,), (None, 1, 8)) == (
            "a2a0fd88ef2a72a3398be546534bf644e9954b4ef14f9c260211342bfd82e9fc"
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        regime=st.booleans(),
        tol=st.sampled_from((LEVEL_TOL, 0.0, 0.05)),
    )
    def test_blocks_match_public_functions(self, seed, regime, tol):
        # build_analysis computes each quantity once; every block must still
        # be what the public functions give on a fresh system.
        rng = np.random.default_rng(seed)
        system = random_regime_system(rng)[0] if regime else random_admissible_system(rng)
        config = as_config(system)
        report = build_analysis(config, tol, None)
        ref = config.system()
        placed: set[int] = set()
        for row in report["levels"]:
            V = level_set(ref, row["y"], tol).V
            assert row["digits"] == sorted(V - placed)
            assert row["continuum"] == (len(row["digits"]) >= 2)
            placed |= V
        assert placed == set(range(ref.s))
        exponents = {key: e["value"] for key, e in report["exponents"].items()}
        assert exponents == {
            "global": holder.global_exponent(ref).exponent,
            "almost_everywhere": holder.almost_everywhere_exponent(ref).exponent,
            "binary": holder.local_exponent_binary(ref).exponent,
        }
        # almost_everywhere_exponent's shortcut is the frequency formula at nu = q, bit for bit
        typical = FrequencyVector(ref.Q.q, n=0, exact=True)
        assert exponents["almost_everywhere"] == holder.local_exponent_unary(ref, typical).exponent
        k = extrema.closed_form_regime(ref)
        assert report["predicates"] == {
            "monotone": all(v > 0 for v in ref.G.g),
            "singular": holder.singularity_predicate(ref),
            "nowhere_differentiable": holder.nowhere_differentiable_predicate(ref),
            "closed_form_regime": k,
        }
        b = report["bounds"]
        if k is None:
            assert (b["m"], b["M"], b["source"]) == (ref.bounds.m, ref.bounds.M, "oracle")
            assert report["maxima_set"] is None
        else:
            M, _ = extrema.closed_form_max(ref)
            assert (b["m"], b["M"], b["source"]) == (extrema.closed_form_min(ref), M, "closed-form")
            spec = extrema.maxima_set(ref)
            assert report["maxima_set"] == {
                "digits": sorted(spec.allowed),
                "dimension": spec.dimension,
                "singleton": spec.singleton,
                "tolerance": cli.ANALYZE_TOL,
            }
            rep = extrema.non_invariance_certificate(ref)
            assert report["non_invariance"] == {
                "restricted_digits": sorted(rep.restricted_digits),
                "dimension": rep.dimension,
                "covering_proved": rep.covering_proved,
                "covering_margin": rep.covering_margin,
                "depth": rep.depth,
                "residual_bound": rep.residual_bound,
                "max_residual": rep.max_residual,
            }


class TestSumTolerance:
    """Vectors summing to 1 up to rounding are analysed; any other exits 2, never 5."""

    def test_short_ratio_sum_is_2_naming_the_sum(self, capsys, tmp_path):
        # 1 - 9e-13: inside the old 1e-12 tolerance, and the bounds solver then failed (exit 5).
        text = "q: [1/2, 1/4, 1/4]\ng: [1/2, 1/4, 249999999999100/1000000000000000]\n"
        rc, out, err = run(capsys, "eval", "--config", write_config(tmp_path, text), "--x", "0.3")
        assert (rc, out) == (2, "")
        assert "got sum = 0.9999999999991" in json.loads(err)["message"]

    @given(
        seed=st.integers(0, 2**32 - 1),
        regime=st.booleans(),
        which=st.sampled_from(("q", "g")),
        index=st.integers(0, 7),
        k=st.integers(1, 10_000),
        sign=st.sampled_from((1.0, -1.0)),
        x=st.floats(0.0, 1.0),
    )
    def test_perturbed_sums_are_analysed_or_2(self, tmp_path_factory, seed, regime, which, index, k, sign, x):
        # One entry moved by k * 1e-16, so the sum misses 1 by about 1e-16 to 1e-12.
        rng = np.random.default_rng(seed)
        system = random_regime_system(rng)[0] if regime else random_admissible_system(rng)
        q, g = list(system.Q.q), list(system.G.g)
        vec = q if which == "q" else g
        vec[index % len(vec)] += sign * k * 1e-16
        path = tmp_path_factory.mktemp("sums") / "sys.cfg"
        path.write_text(f"q: [{', '.join(map(repr, q))}]\ng: [{', '.join(map(repr, g))}]\n")
        valid = all(abs(math.fsum(v) - 1.0) <= sys.float_info.epsilon * math.fsum(map(abs, v)) for v in (q, g))
        for argv in (["analyze"], ["eval", "--x", repr(x)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([*argv, "--config", str(path)])
            assert rc == (0 if valid else 2), err.getvalue()
            if not valid:
                assert "got sum = " in json.loads(err.getvalue())["message"]


class TestExitCodes:
    def test_validation_failure_is_2(self, capsys, tmp_path):
        bad = write_config(tmp_path, "label: broken\nq: [1/2, 1/3]\ng: [1/2, 1/2]\n")
        rc, _, err = run(capsys, "analyze", "--config", bad)
        assert rc == 2
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert "sum to 1" in diag["message"]

    def test_missing_key_is_2(self, capsys, tmp_path):
        bad = write_config(tmp_path, "q: [1/2, 1/2]\n")
        rc, _, err = run(capsys, "analyze", "--config", bad)
        assert rc == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_conditions_not_met_is_3(self, capsys):
        rc, _, err = run(capsys, "cantor", "--config", cfg("identity"), "--steps", "3")
        assert rc == 3
        assert json.loads(err)["error"] == "ConditionsNotMet"
        rc, _, _ = run(capsys, "preimage", "--config", cfg("level_sets"), "--y", "0.5")
        assert rc == 3

    def test_io_failure_is_4(self, capsys):
        rc, _, err = run(
            capsys, "analyze", "--config", cfg("identity"),
            "--out", "/nonexistent-dir-qsaffine/report.txt",
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "argv, error, config",
        [
            (["eval", "--digits", "(7)"], "InvalidDigit", "cantor_max"),
            (["eval", "--digits", "(a)"], "ValidationError", "cantor_max"),
            (["holder", "--digits", "(1)", "--ranks", "a:b"], "ValidationError", "cantor_max"),
            (["holder", "--digits", "(1,2)", "--ranks", "5:3"], "ValidationError", "cantor_max"),
            # Each end is ASCII digits after an optional "-": int() alone would take these.
            (["holder", "--digits", "(1,2)", "--ranks", "1_0:2_0"], "ValidationError", "cantor_max"),
            (["holder", "--digits", "(1,2)", "--ranks", "+1:5"], "ValidationError", "cantor_max"),
            (["holder", "--digits", "(1,2)", "--ranks", "\u0663:5"], "ValidationError", "cantor_max"),
            # An empty digit before the period is malformed, as it is anywhere else.
            (["eval", "--digits", "1,,(2)"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "1, ,(2)"], "ValidationError", "cantor_max"),
            (["eval", "--digits", ",(2)"], "ValidationError", "cantor_max"),
            # A period needs the comma before it.
            (["eval", "--digits", "1(2)"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "1,2(3)"], "ValidationError", "cantor_max"),
            # Each digit is ASCII decimal digits: int() alone would take all of these.
            (["eval", "--digits", "+1"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "(-0)"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "1_0"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "(\u0663)"], "ValidationError", "cantor_max"),
            (["eval", "--digits", "\uff11,(2)"], "ValidationError", "cantor_max"),
            (["holder", "--nu", "x,y,z"], "ValidationError", "cantor_max"),
            (["holder", "--nu", "nan,0.5,0.2,0.3"], "ValidationError", "cantor_max"),
            (["holder", "--nu", "0.2_5,0.25,0.25,0.25"], "ValidationError", "cantor_max"),
            (["holder", "--nu", "\uff10.5,0.5,0,0"], "ValidationError", "cantor_max"),
            (["level", "--y", "nan"], "ValidationError", "cantor_max"),
            (["level", "--y", "inf"], "ValidationError", "cantor_max"),
            (["level", "--y", "5", "--tolerance", "inf"], "ValidationError", "cantor_max"),
            (["sample", "--points", "5", "--depth", "0", "--format", "csv"], "ValidationError", "cantor_max"),
            (["sample", "--points", "5", "--depth", "-3", "--format", "csv"], "ValidationError", "cantor_max"),
            # Outside the regime the depth is never used, but it is still checked.
            (["analyze", "--depth", "0"], "ValidationError", "identity"),
            (["analyze", "--depth", "-4"], "ValidationError", "identity"),
            # (sum |g|)^5000 is far beyond the largest double.
            (["variation", "--rank", "5000"], "ValidationError", "rough_s3"),
            (["variation", "--rank", "5000"], "ValidationError", "cantor_max"),
        ],
        ids=[
            "digit-outside-alphabet", "period-not-a-number", "ranks-not-numbers", "ranks-reversed",
            "ranks-underscore", "ranks-plus-sign", "ranks-arabic-indic",
            "empty-digit-before-period", "blank-digit-before-period", "empty-first-digit",
            "period-without-comma", "period-without-comma-after-prefix", "digit-plus-sign",
            "digit-minus-zero", "digit-underscore", "digit-arabic-indic", "digit-fullwidth", "nu-not-numbers",
            "nu-nan", "nu-underscore", "nu-fullwidth", "level-y-nan", "level-y-inf", "level-tolerance-inf",
            "sample-depth-0", "sample-depth-negative",
            "analyze-depth-0", "analyze-depth-negative", "variation-overflow-rough",
            "variation-overflow-cantor",
        ],
    )
    def test_bad_digit_string_is_2(self, capsys, argv, error, config):
        rc, _, err = run(capsys, *argv, "--config", cfg(config))
        assert rc == 2
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze"], "--depth"),
            (["sample", "--points", "5", "--format", "csv"], "--depth"),
            (["sample", "--format", "csv"], "--points"),
            (["cantor"], "--steps"),
            (["encode", "--x", "0.3"], "--depth"),
            (["eval", "--x", "0.3"], "--depth"),
            (["preimage", "--y", "0.5"], "--depth"),
            (["variation"], "--rank"),
            (["encode"], "--x"),
            (["eval"], "--x"),
            (["level"], "--y"),
            (["preimage"], "--y"),
            (["analyze"], "--tolerance"),
            (["level", "--y", "0.5"], "--tolerance"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_number_flags_take_ascii_text_only(self, capsys, argv, flag):
        # argparse rejects each token (exit 2, nothing on stdout) before any config is read.
        tokens = BAD_NUMBERS if flag in ("--x", "--y", "--tolerance") else BAD_INTEGERS
        for token in tokens:
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"{flag}={token}", "--config", cfg("cantor_max")])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert f"argument {flag}: expected" in err and repr(token) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["holder", "--binary"],
            ["holder", "--ae"],
            ["encode", "--x", "0.3"],
            ["sample", "--points", "5", "--format", "csv"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]),
    )
    def test_weight_of_one_is_2(self, capsys, tmp_path, argv):
        # 1e-17 + 1 rounds to 1, so the sum passes; a weight of 1 used to give
        # log q = 0 (ZeroDivisionError), exponent 1.8e15, or a walk to DEPTH_CAP.
        path = write_config(tmp_path, "q: [1e-17, 1]\ng: [1/2, 1/2]\n")
        rc, out, err = run(capsys, *argv, "--config", path)
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "ValidationError" and "0 < q < 1" in diag["message"]

    def test_internal_failure_is_5(self, capsys, monkeypatch):
        def broken(system):
            raise CertificationError("closed form disagrees with the bounds solver")

        # The one helper behind every closed form that analyze reports.
        monkeypatch.setattr(extrema, "_closed_forms", broken)
        rc, out, err = run(capsys, "analyze", "--config", cfg("cantor_max"))
        assert rc == EXIT_INTERNAL == 5
        assert out == ""
        assert json.loads(err)["error"] == "CertificationError"

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # the arg-max digit of rough_s3 flips between 1 and 2 with every solve
            ([(1e6, 0.0), (1.0, -1e6)], "bounds policy iteration exceeded 9 steps"),
            # (1, 0) is stable under the policy it picks but is not the hull's fixed point
            ([(1.0, 0.0)], "bounds (0.0, 1.0) move by 0.33333333333333326 under one hull step, above "),
        ],
        ids=["policy-keeps-switching", "pair-off-the-fixed-point"],
    )
    def test_bounds_solver_failure_is_5(self, capsys, monkeypatch, pairs, message):
        # Both checks of the bounds solver, reached through a broken policy solve.
        solves = itertools.cycle(pairs)
        monkeypatch.setattr(selfaffine, "_policy_value", lambda delta, g, a, b: next(solves))
        rc, out, err = run(capsys, "analyze", "--config", cfg("rough_s3"))
        diag = json.loads(err)
        assert (rc, out, diag["error"]) == (5, "", "CertificationError")
        assert diag["message"].startswith(message)

    def test_failing_cross_check_is_5(self, capsys, monkeypatch):
        # The real checks reader, not a patched helper: with a negative tolerance
        # every closed form disagrees with the bounds solver.  Only the commands
        # that print M, V(M) or m run the checks; preimage reads k alone.
        monkeypatch.setattr(extrema, "ORACLE_TOL", -1.0)
        for argv in (["analyze"], ["cantor", "--steps", "3"]):
            rc, out, err = run(capsys, *argv, "--config", cfg("cantor_max"))
            assert (rc, out) == (EXIT_INTERNAL, "")
            assert json.loads(err)["error"] == "CertificationError"
        rc, _, _ = run(capsys, "preimage", "--config", cfg("cantor_max"), "--y", "0.5")
        assert rc == 0

    def test_wrong_moran_root_is_5(self, capsys, monkeypatch):
        # the Moran root kernel behind CantorSpec, maxima_set and moran_dimension
        root = extrema._moran_root
        monkeypatch.setattr(extrema, "_moran_root", lambda Q, V: root(Q, V) + 1e-6)
        rc, out, err = run(capsys, "analyze", "--config", cfg("cantor_max"))
        assert (rc, out) == (EXIT_INTERNAL, "")
        assert json.loads(err)["error"] == "CertificationError"

    def test_witness_residual_above_its_bound_is_5(self, capsys, monkeypatch):
        # The y = 1 witness of the non-invariance certificate, checked against a bound below it.
        monkeypatch.setattr(extrema, "preimage_residual_bound", lambda system, depth: 0.0)
        rc, out, err = run(capsys, "analyze", "--config", cfg("rough_s3"))
        assert (rc, out) == (EXIT_INTERNAL, "")
        diag = json.loads(err)
        assert diag["error"] == "CertificationError" and "exceeds the guaranteed bound 0.0" in diag["message"]

    def test_unsupported_format_is_2(self, capsys):
        rc, _, err = run(capsys, "analyze", "--config", cfg("identity"), "--format", "csv")
        assert rc == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_variation_of_monotone_system_at_large_rank(self, capsys):
        rc, out, _ = run(capsys, "variation", "--config", cfg("identity"), "--rank", "5000")
        assert (rc, out) == (0, "value 1\n")

    def test_too_few_points_is_2(self, capsys):
        rc, _, err = run(capsys, "sample", "--config", cfg("identity"), "--points", "1")
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q: [1/2, 1/2]\nq: [1/2, 1/2]\ng: [1/2, 1/2]\n", "duplicate key"),
            ("q: [1/2, 1/2]\ng: [1/2, 1/2]\nh: [1]\n", "unknown config keys"),
            ("q: [1/2, 1/2]\ng [1/2, 1/2]\n", "expected 'key: value'"),
            ("q: 1/2, 1/2\ng: [1/2, 1/2]\n", "bracketed array"),
            ("q: []\ng: [1/2, 1/2]\n", "must not be empty"),
            ("q: [1/2, half]\ng: [1/2, 1/2]\n", "cannot parse number 'half'"),
            ("label: no-g\nq: [1/2, 1/2]\n", "both q and g"),
            ("q: [1/3, 1/3, 1/3]\ng: [1/2, 1/2]\n", "equal length"),
            ("q: [1]\ng: [1]\n", "at least 2 entries required in q and g"),
            ("q: [1e400, 1/2]\ng: [1/2, 1/2]\n", "number '1e400' overflows a double"),
            # Fraction alone would build 10**999999999 before anything else ran.
            ("q: [1e999999999, 1/2]\ng: [1/2, 1/2]\n", "overflows a double"),
            (b"label: \xff\nq: [1/2, 1/2]\ng: [1/2, 1/2]\n", "is not UTF-8"),
            # XML 1.0 cannot hold U+0001, so the SVG title would not parse.
            ("label: a\x01b\nq: [1/2, 1/2]\ng: [1/2, 1/2]\n", "U+0001"),
        ],
        ids=[
            "duplicate-key", "unknown-key", "line-without-colon", "unbracketed-array",
            "empty-array", "unparsable-token", "missing-g", "length-mismatch", "one-entry",
            "overflowing-token", "huge-exponent", "non-utf8-bytes", "control-character-label",
        ],
    )
    def test_config_grammar_error_is_2(self, capsys, tmp_path, text, message):
        rc, out, err = run(capsys, "level", "--config", write_config(tmp_path, text), "--y", "0.5")
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert message in diag["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--points", "5", "--tolerance", "1e-3"],
            ["cantor", "--steps", "3", "--tolerance", "1e-3"],
            ["encode", "--x", "0.3", "--tolerance", "1e-3"],
            ["decode", "--digits", "(1)", "--tolerance", "1e-3"],
            ["eval", "--x", "0.3", "--tolerance", "1e-3"],
            ["holder", "--tolerance", "7"],
            ["preimage", "--y", "0.5", "--tolerance", "1e-3"],
            ["variation", "--rank", "3", "--tolerance", "1e-3"],
            ["cantor", "--steps", "3", "--depth", "5"],
            ["decode", "--digits", "(1)", "--depth", "5"],
            ["holder", "--depth", "5"],
            ["level", "--y", "0.5", "--depth", "5"],
            ["variation", "--rank", "3", "--depth", "5"],
            ["eval", "--digits", "(1)", "--depth", "5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_unread_flag_is_2(self, capsys, argv):
        # Each command accepts only the flags it reads; --depth of eval applies to --x.
        try:
            rc = main([*argv, "--config", cfg("cantor_max")])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert capsys.readouterr().out == ""


class TestTextOutput:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["level", "--config", cfg("level_sets"), "--y", "0.625"],
             "y 0.625\ndigits {1,3}\ncontinuum true\n"),
            (["holder", "--config", cfg("cantor_max"), "--binary"],
             "exponent 0.31739380551401475\nkind local_binary\n"),
            (["encode", "--config", cfg("cantor_max"), "--x", "0.2"],
             "digits 1,(0)\nerror_bound 0\n"),
            (["variation", "--config", cfg("cantor_max"), "--rank", "3"],
             "value 10.648000000000003\n"),
        ],
        ids=["level", "holder-binary", "encode-exact", "variation"],
    )
    def test_exact_stdout(self, capsys, argv, expected):
        assert run(capsys, *argv)[:2] == (0, expected)


class TestModuleEntry:
    def test_python_m_matches_main(self, capsys):
        argv = ["eval", "--config", cfg("cantor_max"), "--x", "0.3"]
        rc, out, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "qsaffine.cli", *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (rc, out)
        assert rc == 0 and out.startswith("value ")


class TestColdStart:
    """Fresh interpreters.  The suite imports every module up front, so only a
    child process sees a module that a command imports when it runs."""

    def test_cli_import_leaves_out_the_deferred_modules(self):
        deferred = ("dataclasses", "inspect", "statistics", "qsaffine.svgplot")
        # only what the import itself loads: interpreter start-up may load more
        code = (
            "import sys; before = set(sys.modules); import qsaffine.cli; "
            "print(*[m for m in sys.argv[1:] if m in sys.modules and m not in before])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *deferred],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--config", cfg("cantor_max"), "--points", "64", "--format", "svg"],
            ["cantor", "--config", cfg("cantor_max"), "--steps", "3", "--format", "svg"],
            ["holder", "--config", cfg("rough_s3"), "--digits", "1,(0,2)", "--ranks", "1:24"],
        ],
        ids=["sample-svg", "cantor-svg", "holder-digits"],
    )
    def test_child_matches_main(self, capsys, argv):
        rc, out, _ = run(capsys, *argv)
        code = "import sys; from qsaffine.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, env=CHILD_ENV, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (rc, out.encode("utf-8"))
        assert rc == 0 and out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--config", cfg("level_sets"), "--points", "64", "--format", "csv"],
            ["cantor", "--config", cfg("cantor_max"), "--steps", "3", "--format", "csv"],
        ],
        ids=["sample-csv", "cantor-csv"],
    )
    def test_csv_child_matches_main_without_svgplot(self, capsys, argv):
        # the block formatter lives in cli, so csv output never loads svgplot
        rc, out, _ = run(capsys, *argv)
        code = (
            "import sys; from qsaffine.cli import main; rc = main(sys.argv[1:]); "
            "print('qsaffine.svgplot' in sys.modules, file=sys.stderr); sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, env=CHILD_ENV, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (rc, out.encode("utf-8"))
        assert proc.stderr == b"False\n"
        assert rc == 0 and out.count("\n") > 2


class TestRoundTrips:
    def test_encode_then_decode_within_printed_bound(self, capsys):
        rc, out, _ = run(
            capsys, "encode", "--config", cfg("cantor_max"), "--x", "0.37", "--depth", "24",
        )
        assert rc == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        digits = lines["digits"]
        bound = float(lines["error_bound"])
        rc, out, _ = run(capsys, "decode", "--config", cfg("cantor_max"), "--digits", digits)
        assert rc == 0
        x = float(out.strip().splitlines()[0].split(" ", 1)[1])
        assert abs(x - 0.37) <= bound

    def test_exact_encode_has_zero_bound(self, capsys):
        rc, out, _ = run(capsys, "encode", "--config", cfg("cantor_max"), "--x", "0.2")
        assert rc == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert lines["digits"] == "1,(0)"
        assert float(lines["error_bound"]) == 0.0


class TestPassThroughCommands:
    def test_eval_periodic_closed_form(self, capsys):
        rc, out, _ = run(capsys, "eval", "--config", cfg("singular_s3"), "--digits", "(2)")
        assert rc == 0
        value = float(out.strip().splitlines()[0].split(" ", 1)[1])
        # delta_2 / (1 - g_2) = 1.1 / 1.1
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_eval_at_point(self, capsys):
        rc, out, _ = run(capsys, "eval", "--config", cfg("cantor_max"), "--x", "1")
        assert rc == 0
        assert float(out.strip().splitlines()[0].split(" ", 1)[1]) == 1.0

    def test_holder_flags(self, capsys):
        rc, out, _ = run(capsys, "holder", "--config", cfg("cantor_max"), "--binary")
        assert rc == 0
        value = float(out.strip().splitlines()[0].split(" ", 1)[1])
        assert value == pytest.approx(0.3174, abs=1e-4)
        rc, out, _ = run(capsys, "holder", "--config", cfg("cantor_max"))
        assert float(out.strip().splitlines()[0].split(" ", 1)[1]) == pytest.approx(
            0.2435, abs=1e-4
        )
        rc, out, _ = run(capsys, "holder", "--config", cfg("cantor_max"), "--ae")
        assert rc == 0
        rc, out, _ = run(
            capsys, "holder", "--config", cfg("cantor_max"),
            "--digits", "(1)", "--ranks", "1:40",
        )
        value = float(out.strip().splitlines()[0].split(" ", 1)[1])
        assert value == pytest.approx(math.log(0.8) / math.log(0.4), abs=1e-12)

    def test_level_command(self, capsys):
        rc, out, _ = run(
            capsys, "level", "--config", cfg("level_sets"), "--y", "0.625", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["digits"] == [1, 3]
        assert payload["continuum"] is True

    def test_preimage_command(self, capsys):
        rc, out, _ = run(
            capsys, "preimage", "--config", cfg("cantor_max"), "--y", "0.5", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["residual"] <= payload["residual_bound"]

    def test_preimage_reads_k_unchecked(self, capsys, tmp_path):
        # Two quotients 2e-12 apart put the regime digit k = 2 into V(M), so the
        # closed forms fail their checks; the preimage reads k alone.
        path = write_config(tmp_path, "q: [2/5, 2/5, 1/5]\ng: [1/2, 0.500000000001, -1e-12]\n")
        rc, out, _ = run(capsys, "preimage", "--config", path, "--y", "0.5", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["residual"] <= payload["residual_bound"]

    def test_preimage_bytes_are_pinned(self, capsys):
        # 320 calls: five configs (level_sets is outside the regime: exit 3), targets
        # inside and outside [0, 1], four depths, both formats.  The digest is that
        # of the outputs before the witness value was fused into its descent.
        h = hashlib.sha256()
        for name in ("cantor_max", "deep_min_s3", "level_sets", "rough_s3", "singular_s3"):
            for y in ("0", "0.2", "0.37", "0.5", "0.625", "0.8", "1", "1.2"):
                for depth in (None, "1", "8", "200"):
                    for fmt in ("text", "json"):
                        argv = ["preimage", "--config", cfg(name), "--y", y, "--format", fmt]
                        rc, out, err = run(capsys, *argv, *(("--depth", depth) if depth else ()))
                        h.update(f"{rc}\n{out}{err}".encode())
        assert h.hexdigest() == "5ca5646ce41d989f828cf94eac5b0ef27fb743dba17ac0890e37dd14f12877b8"

    def test_variation_command(self, capsys):
        rc, out, _ = run(
            capsys, "variation", "--config", cfg("cantor_max"), "--rank", "3", "--format", "json",
        )
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(10.648, rel=1e-12)


class TestSampleOutputs:
    def test_csv_two_points(self, capsys):
        rc, out, _ = run(
            capsys, "sample", "--config", cfg("identity"), "--points", "2", "--format", "csv",
        )
        assert rc == 0
        assert out.splitlines() == ["x,f,error_bound", "0,0,0", "1,1,0"]

    def test_csv_respects_oracle_bounds(self, capsys):
        # both systems have oracle maximum 2; sampled curve must come within 1e-3
        for name in ("cantor_max", "singular_s3"):
            rc, out, _ = run(
                capsys, "sample", "--config", cfg(name), "--points", "4096", "--format", "csv",
            )
            assert rc == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            values = [float(v) for _, v, _ in rows]
            assert max(values) <= 2.0 + 1e-12
            assert max(values) >= 2.0 - 1e-3

    def test_svg_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.svg"
        rc, _, _ = run(
            capsys, "sample", "--config", cfg("singular_s3"), "--points", "512",
            "--format", "svg", "--out", str(out_path),
        )
        assert rc == 0
        body = out_path.read_text()
        assert body.startswith("<?xml")
        assert "<polyline" in body and "<script" not in body

    def test_byte_stable_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _, _ = run(
                capsys, "sample", "--config", cfg("deep_min_s3"), "--points", "1024",
                "--format", "csv", "--out", str(p),
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCantorOutputs:
    def test_csv_band_counts(self, capsys):
        rc, out, _ = run(
            capsys, "cantor", "--config", cfg("cantor_max"), "--steps", "5", "--format", "csv",
        )
        assert rc == 0
        lines = out.splitlines()[1:]
        counts = {}
        for line in lines:
            stage = int(line.split(",")[0])
            counts[stage] = counts.get(stage, 0) + 1
        assert counts == {t: 2**t for t in range(1, 6)}
        first = lines[0].split(",")
        assert float(first[2]) == pytest.approx(0.2, abs=1e-12)
        assert float(first[3]) == pytest.approx(0.6, abs=1e-12)

    def test_singleton_bands(self, capsys):
        rc, out, _ = run(
            capsys, "cantor", "--config", cfg("rough_s3"), "--steps", "4", "--format", "csv",
        )
        assert rc == 0
        lines = out.splitlines()[1:]
        assert len(lines) == 4  # one interval per stage

    def test_svg_bands(self, capsys, tmp_path):
        out_path = tmp_path / "bands.svg"
        rc, _, _ = run(
            capsys, "cantor", "--config", cfg("cantor_max"), "--steps", "5",
            "--format", "svg", "--out", str(out_path),
        )
        assert rc == 0
        body = out_path.read_text()
        assert body.count("<rect") >= sum(2**t for t in range(1, 6))

    def test_step_cap(self, capsys):
        rc, _, err = run(
            capsys, "cantor", "--config", cfg("cantor_max"), "--steps", "25",
        )
        assert rc == 2

    def test_interval_cap_is_2(self, capsys):
        # |V| = 2: 20 steps keep 2**21 - 2 intervals in all.  That the cap
        # binds before any interval is built is tested on cantor_construction.
        rc, out, err = run(capsys, "cantor", "--config", cfg("cantor_max"), "--steps", "20")
        assert rc == 2 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "ValidationError" and "intervals" in diag["message"]


class TestSvgLabels:
    LABEL = 'a & b <c> "d"'

    @staticmethod
    def title(svg: str) -> str:
        return ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}text")[-1].text

    def test_emitters_escape_the_label(self):
        assert self.title(svgplot.curve_svg([0.0, 1.0], [0.0, 1.0], (0.0, 1.0), self.LABEL)) == self.LABEL
        assert self.title(svgplot.bands_svg([[(0.0, 1.0)]], self.LABEL)) == self.LABEL

    @pytest.mark.parametrize("argv", [["sample", "--points", "64"], ["cantor", "--steps", "3"]])
    def test_commands_write_parsable_files(self, capsys, tmp_path, argv):
        config = write_config(tmp_path, f"label: {self.LABEL}\nq: [1/5, 2/5, 1/5, 1/5]\ng: [2/5, 4/5, 2/5, -3/5]\n")
        out_path = tmp_path / "figure.svg"
        rc, _, _ = run(capsys, *argv, "--config", config, "--format", "svg", "--out", str(out_path))
        assert rc == 0
        assert self.title(out_path.read_text(encoding="utf-8")).startswith(self.LABEL + ": ")

    def test_control_character_in_file_stem_label_is_2(self, capsys, tmp_path):
        config = write_config(tmp_path, "q: [1/2, 1/2]\ng: [1/2, 1/2]\n", name="a\x1fb.cfg")
        rc, out, err = run(capsys, "cantor", "--config", config, "--steps", "2", "--format", "svg")
        assert (rc, out) == (2, "")
        assert "U+001F" in json.loads(err)["message"]

    def test_tab_in_label_writes_parsable_svg(self, capsys, tmp_path):
        config = write_config(tmp_path, "label: a\tb\nq: [1/5, 2/5, 1/5, 1/5]\ng: [2/5, 4/5, 2/5, -3/5]\n")
        rc, out, _ = run(capsys, "cantor", "--config", config, "--steps", "2", "--format", "svg")
        assert rc == 0
        assert self.title(out).startswith("a\tb: ")

    def test_label_check_matches_the_old_pattern_on_the_bmp(self):
        # the regex the per-character test replaced, kept as its reference
        old = re.compile("[\x00-\x08\x0a-\x1f\ud800-\udfff\ufffe\uffff]")
        for n in range(0x10000):
            c = chr(n)
            assert qsaffine.config._label_forbidden(c) == bool(old.search(c)), hex(n)


class TestConfigParsing:
    def test_each_token_parsed_once_per_load(self, capsys, monkeypatch, tmp_path):
        parsed = []
        original = qsaffine.config.parse_number
        monkeypatch.setattr(qsaffine.config, "parse_number", lambda token: parsed.append(token) or original(token))
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            loaded = load_config(path)
            tokens = [*loaded.q_text, *loaded.g_text]
            assert parsed == tokens
            parsed.clear()
            # analyze loads the config once more and builds its system from the stored doubles.
            rc, _, _ = run(capsys, "analyze", "--config", str(path), "--format", "json")
            assert rc == 0 and parsed == tokens
            parsed.clear()
        # q is parsed before g, and both before the lengths are compared.
        for text, token in [
            ("q: [1/3, 1/3, 1/3]\ng: [1/2, half]\n", "half"),
            ("q: [1/3, third, 1/3]\ng: [1/2, half]\n", "third"),
        ]:
            rc, out, err = run(capsys, "level", "--config", write_config(tmp_path, text), "--y", "0.5")
            assert (rc, out) == (2, "")
            assert json.loads(err)["message"] == f"cannot parse number {token!r}"


class TestDepthCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--depth", "1000000"],
            ["analyze", "--depth", "65537", "--format", "json"],
            ["sample", "--points", "5", "--depth", "65537"],
            ["encode", "--x", "0.3", "--depth", "65537"],
            ["eval", "--x", "0.3", "--depth", "65537"],
            ["preimage", "--y", "0.3", "--depth", "65537"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[argv.index('--depth') + 1]}",
    )
    def test_depth_above_cap_is_2_before_any_walk(self, capsys, monkeypatch, argv):
        loaded = []
        monkeypatch.setattr(cli, "load_config", loaded.append)
        rc, out, err = run(capsys, *argv, "--config", cfg("cantor_max"))
        assert (rc, out, loaded) == (2, "", [])
        diag = json.loads(err)
        assert diag["error"] == "ValidationError" and "cap of 65536" in diag["message"]

    def test_depth_at_cap_runs(self, capsys):
        assert MAX_DEPTH == 2**16
        rc, out, _ = run(
            capsys, "preimage", "--config", cfg("cantor_max"), "--y", "0.3",
            "--depth", "65536", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["residual"] <= payload["residual_bound"]

    def test_ranks_outside_1_to_cap_is_2_before_any_walk(self, capsys, monkeypatch):
        called = []
        monkeypatch.setattr(
            holder, "empirical_exponent",
            lambda system, d, ranks: called.append(ranks) or holder.HolderReport(1.0, "empirical"),
        )
        argv = ["holder", "--config", cfg("cantor_max"), "--digits", "(1)"]
        for ranks in (f"1:{MAX_DEPTH + 1}", f"{-MAX_DEPTH}:5"):
            rc, out, err = run(capsys, *argv, f"--ranks={ranks}")
            assert (rc, out, called) == (2, "", [])
            diag = json.loads(err)
            assert diag["error"] == "ValidationError" and "cap of 65536" in diag["message"]
        rc, _, _ = run(capsys, *argv, "--ranks", f"1:{MAX_DEPTH}")
        assert rc == 0 and called == [range(1, MAX_DEPTH + 1)]

    def test_ranks_are_ascii_integers(self, capsys):
        argv = ["holder", "--config", cfg("cantor_max"), "--digits", "(1,2)"]
        for ranks in ("1_0:2_0", "+1:5", "\u0663:5", " 1:5", "1:5 ", "-:5", "--1:5", "1:5:7", "1", ":"):
            rc, out, err = run(capsys, *argv, f"--ranks={ranks}")
            assert (rc, out) == (2, "")
            assert json.loads(err)["message"] == f"--ranks must be A:B with integers; got {ranks!r}"
        rc, out, _ = run(capsys, *argv, "--ranks=2:5")
        assert rc == 0 and out

    @pytest.mark.parametrize("token", [*BAD_INTEGERS, "-", "--1", "7", "-7", "0", "007"])
    def test_ranks_take_the_integer_flags_tokens(self, capsys, token):
        # Each end of --ranks is malformed exactly where an integer flag rejects the token.
        try:
            cli._integer(token)
        except argparse.ArgumentTypeError:
            integer = False
        else:
            integer = True
        argv = ["holder", "--config", cfg("cantor_max"), "--digits", "(1,2)"]
        for ranks in (f"{token}:5", f"1:{token}"):
            rc, _, err = run(capsys, *argv, f"--ranks={ranks}")
            message = json.loads(err)["message"] if rc else None
            assert (message == f"--ranks must be A:B with integers; got {ranks!r}") != integer, ranks

    def test_points_above_cap_is_2_before_the_walk(self, capsys, monkeypatch):
        walked = []
        monkeypatch.setattr(
            selfaffine, "_sample_columns", lambda system, points, depth: walked.append(points) or ([], [], [])
        )
        argv = ["sample", "--config", cfg("level_sets"), "--format", "csv"]
        rc, out, err = run(capsys, *argv, "--points", str(MAX_POINTS + 1))
        assert (rc, out, walked) == (2, "", [])
        diag = json.loads(err)
        assert diag["error"] == "ValidationError" and f"cap of {MAX_POINTS}" in diag["message"]
        for points in (4096, MAX_POINTS):  # 4096: the figures' point count
            rc, _, _ = run(capsys, *argv, "--points", str(points))
            assert rc == 0 and walked[-1] == points

    def test_rows_above_cap_is_2(self, capsys, tmp_path):
        # Skewed weights need far more rows than points: about 10^6 at 4096 points.
        path = write_config(tmp_path, "q: [999/1000, 1/1000]\ng: [1/2, 1/2]\n")
        rc, out, err = run(capsys, "sample", "--config", path, "--points", "16384", "--format", "csv")
        assert (rc, out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "ValidationError"
        assert f"more than {selfaffine.SAMPLE_ROW_CAP} rows" in diag["message"]


class TestParserCache:
    # (argv, exit code) calls in a row whose outputs differ, so carried state would show.
    SEQUENCES = {
        "merged-then-plain": [
            (["cantor", "--config", cfg("cantor_max"), "--steps", "3", "--format", "csv", "--merged"], 0),
            (["cantor", "--config", cfg("cantor_max"), "--steps", "3", "--format", "csv"], 0),
        ],
        "exit-2-then-valid": [
            (["cantor", "--config", cfg("cantor_max"), "--steps", "3", "--depth", "5"], 2),
            (["analyze", "--config", cfg("identity"), "--format", "csv"], 2),
            (["level", "--config", cfg("level_sets"), "--y", "0.625"], 0),
        ],
        "tolerance-then-default": [
            (["analyze", "--config", cfg("level_sets"), "--format", "json", "--tolerance", "0.05"], 0),
            (["analyze", "--config", cfg("level_sets"), "--format", "json"], 0),
        ],
    }

    @staticmethod
    def run_or_exit(capsys, argv):
        # An argparse rejection (``cantor --depth``) raises SystemExit; keep its code.
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_calls_in_a_row_match_fresh_parsers(self, capsys, monkeypatch, name):
        calls = self.SEQUENCES[name]
        cached = [self.run_or_exit(capsys, argv) for argv, _ in calls]
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert [self.run_or_exit(capsys, argv) for argv, _ in calls] == cached
        assert [rc for rc, _, _ in cached] == [rc for _, rc in calls]
        assert len(set(cached)) == len(cached)


def reference_curve_svg(rows, ticks, label):
    """``svgplot.curve_svg`` built per value: one ``_fc`` call per coordinate."""
    W, H, M = svgplot.WIDTH, svgplot.HEIGHT, svgplot.MARGIN
    ys = [f for _, f, _ in rows]
    y_lo, y_hi = min(min(ys), min(ticks)), max(max(ys), max(ticks))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    iw, ih = W - 2 * M, H - 2 * M

    def px(x):
        return M + x * iw

    def py(y):
        return M + (y_hi - y) / (y_hi - y_lo) * ih

    parts = svgplot._header(H)
    seen = set()
    for tick in ticks:
        ty = _fc(py(tick))
        if ty not in seen:
            seen.add(ty)
            parts.append(f'<line x1="{_fc(px(0.0))}" y1="{ty}" x2="{_fc(px(1.0))}" y2="{ty}" '
                         'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,4"/>')
            parts.append(f'<text x="{_fc(M - 6)}" y="{ty}" font-size="12" text-anchor="end" '
                         f'dominant-baseline="middle" fill="#444444">{tick:.6g}</text>')
    for tick in (0.0, 1.0):
        tx = _fc(px(tick))
        parts.append(f'<line x1="{tx}" y1="{_fc(py(y_lo))}" x2="{tx}" y2="{_fc(py(y_hi))}" '
                     'stroke="#bbbbbb" stroke-width="1"/>')
        parts.append(f'<text x="{tx}" y="{_fc(H - M + 16)}" font-size="12" '
                     f'text-anchor="middle" fill="#444444">{tick:g}</text>')
    points = " ".join(f"{_fc(px(x))},{_fc(py(f))}" for x, f, _ in rows)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1b4f9c" stroke-width="1"/>')
    parts.append(f'<text x="{_fc(W / 2)}" y="{_fc(M - 16)}" font-size="14" '
                 f'text-anchor="middle" fill="#000000">{label}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def reference_bands_svg(stages, label):
    """``svgplot.bands_svg`` built per value: one ``_fc`` call per coordinate."""
    W, M, R = svgplot.WIDTH, svgplot.MARGIN, svgplot.ROW_HEIGHT
    iw = W - 2 * M
    parts = svgplot._header(2 * M + R * len(stages))
    for t, intervals in enumerate(stages):
        y = M + t * R
        parts.append(f'<text x="{_fc(M - 8)}" y="{_fc(y + R / 2)}" font-size="12" '
                     f'text-anchor="end" dominant-baseline="middle" fill="#444444">{t + 1}</text>')
        for lo, hi in intervals:
            parts.append(f'<rect x="{_fc(M + lo * iw)}" y="{_fc(y + 4)}" '
                         f'width="{_fc(max(hi - lo, 0.0) * iw)}" height="{R - 12}" fill="#1b4f9c"/>')
    parts.append(f'<text x="{_fc(W / 2)}" y="{_fc(M - 16)}" font-size="14" '
                 f'text-anchor="middle" fill="#000000">{label}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def lines(text):
    # A list compares with a short report on failure; a long string diff can take minutes.
    return text.splitlines(keepends=True)


def check_sample(config, rows, points):
    """Both ``sample`` outputs of ``rows`` equal the per-value references."""
    args = argparse.Namespace(points=points, depth=None)
    csv = "".join(f"{_f(x)},{_f(v)},{_f(e)}\n" for x, v, e in rows)
    assert lines("".join(cli._cmd_sample(args, config, "csv"))) == lines("x,f,error_bound\n" + csv)
    b = config.system().bounds
    label = f"{config.label}: graph of f ({points} target points)"
    expected = reference_curve_svg(rows, (0.0, b.m, 1.0, b.M), label)
    assert lines(cli._cmd_sample(args, config, "svg")) == lines(expected)


def check_cantor(config, stages, steps, merged):
    """Both ``cantor`` outputs of ``stages`` equal the per-value references."""
    args = argparse.Namespace(steps=steps, merged=merged)
    csv = "".join(
        f"{t},{idx},{_f(lo)},{_f(hi)}\n"
        for t, intervals in enumerate(stages, start=1)
        for idx, (lo, hi) in enumerate(intervals)
    )
    assert lines("".join(cli._cmd_cantor(args, config, "csv"))) == lines("stage,index,left,right\n" + csv)
    digits = cli._text(sorted(extrema.maxima_set(config.system()).allowed))
    label = f"{config.label}: maximum-set construction, digits {digits}"
    assert lines(cli._cmd_cantor(args, config, "svg")) == lines(reference_bands_svg(stages, label))


# -0.0, the least subnormal, 1.0, and 2/3 and 0.1, whose 17th digits round.
AWKWARD = (-0.0, 5e-324, 1.0, 2 / 3, 0.1)


class TestOnePassFormats:
    @given(v=st.floats(allow_nan=True, allow_infinity=True))
    def test_percent_format_is_format(self, v):
        assert "%.17g" % v == _f(v)
        assert "%.3f" % v == _fc(v)

    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(2, 600))
    def test_sample_matches_per_value_reference(self, seed, points):
        system = random_admissible_system(np.random.default_rng(seed))
        check_sample(as_config(system), selfaffine.sample(system, points), points)

    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6), merged=st.booleans())
    def test_cantor_matches_per_value_reference(self, seed, steps, merged):
        config = as_config(random_regime_system(np.random.default_rng(seed))[0])
        spec = extrema.maxima_set(config.system())
        check_cantor(config, extrema.cantor_construction(spec, steps, merged), steps, merged)

    def test_awkward_values(self, monkeypatch):
        rows = [(x, v, e) for x in AWKWARD for v in AWKWARD for e in AWKWARD[:3]]
        columns = tuple(map(list, zip(*rows)))
        monkeypatch.setattr(selfaffine, "_sample_columns", lambda system, points, depth: columns)
        check_sample(load_config(cfg("identity")), rows, 5)
        stages = [[(lo, hi) for lo in AWKWARD for hi in AWKWARD], [(2 / 3, 0.1), (1.0, 1.0)]]
        monkeypatch.setattr(extrema, "cantor_construction", lambda spec, steps, merged: stages)
        check_cantor(load_config(cfg("cantor_max")), stages, 2, False)


#: Skewed weights: at 8192 points the walk needs more than ``selfaffine.SAMPLE_ROW_CAP`` rows.
SKEWED = "q: [999/1000, 1/1000]\ng: [1/2, 1/2]\n"


class TestBlockedWrites:
    """``sample`` and ``cantor`` text is written in blocks of ``cli.BLOCK_ROWS`` rows."""

    B = 4

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_boundaries_match_per_value_references(self, monkeypatch, n):
        monkeypatch.setattr(cli, "BLOCK_ROWS", self.B)
        rows = [(x, v, e) for x in AWKWARD for v in AWKWARD for e in AWKWARD[:3]][:n]
        columns = tuple(map(list, zip(*rows)))
        monkeypatch.setattr(selfaffine, "_sample_columns", lambda system, points, depth: columns)
        check_sample(load_config(cfg("identity")), rows, 5)
        intervals = [(lo, hi) for lo in AWKWARD for hi in AWKWARD][:n]
        stages = [intervals, intervals[:1], [], intervals]
        monkeypatch.setattr(extrema, "cantor_construction", lambda spec, steps, merged: stages)
        check_cantor(load_config(cfg("cantor_max")), stages, len(stages), False)

    def test_curve_of_no_points_is_rejected(self):
        # The y range of no values is undefined.
        with pytest.raises(ValueError):
            svgplot.curve_svg([], [], (0.0, 1.0), "empty")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sample", "--config", cfg("level_sets"), "--points", str(MAX_POINTS + 1)], 2),
            (["sample", "--config", SKEWED, "--points", "8192"], 2),
            (["cantor", "--config", cfg("cantor_max"), "--steps", "20"], 2),
            (["cantor", "--config", cfg("identity"), "--steps", "3"], 3),
        ],
        ids=["points-above-cap", "rows-above-cap", "intervals-above-cap", "no-regime"],
    )
    @pytest.mark.parametrize("existing", [b"kept\n", None], ids=["existing", "absent"])
    def test_failure_leaves_out_untouched(self, capsys, tmp_path, argv, code, existing):
        # The walk and the construction run before the handler returns its
        # chunks, so a rejection comes before the file is opened.
        argv = [write_config(tmp_path, a) if a == SKEWED else a for a in argv]
        out = tmp_path / "out.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc, stdout, _ = run(capsys, *argv, "--format", "csv", "--out", str(out))
        assert (rc, stdout) == (code, "")
        assert (out.read_bytes() if out.exists() else None) == existing

    def test_closed_stdout_pipe_exits_0_quietly(self):
        # 16384 points write about 1.9 MB, far more than a pipe holds: the child
        # is still writing when the reader closes its end, as with ``| head -1``.
        code = "import sys; from qsaffine.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["sample", "--config", cfg("level_sets"), "--points", "16384", "--format", "csv"]
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), first, err) == (0, b"x,f,error_bound\n", b"")

    @staticmethod
    def traced_peak_mb(argv, out):
        """The tracemalloc peak of one ``main`` call writing to ``out``, after a warm-up call."""
        argv = [*argv, "--out", str(out)]
        assert main(argv) == 0  # builds the parser and loads svgplot
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        return peak / 2**20

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_sample_output_stage_is_bounded(self, monkeypatch, tmp_path, fmt):
        # Measured at 48494 rows: csv 0.12 MB (5.09 MB one string at a time),
        # svg 1.51 MB for a 0.74 MB file (5.91 MB).
        columns = selfaffine._sample_columns(load_config(cfg("level_sets")).system(), 16384, depth=None)
        monkeypatch.setattr(selfaffine, "_sample_columns", lambda system, points, depth: columns)
        out = tmp_path / f"out.{fmt}"
        argv = ["sample", "--config", cfg("level_sets"), "--points", "16384", "--format", fmt]
        peak = self.traced_peak_mb(argv, out)
        assert peak < (0.5 if fmt == "csv" else 2.5 * out.stat().st_size / 2**20)

    def test_cantor_csv_output_stage_is_bounded(self, monkeypatch, tmp_path):
        # 13 steps of cantor_max: 2**14 - 2 intervals.  Measured 0.16 MB (2.37 MB
        # one string at a time).
        spec = extrema.maxima_set(load_config(cfg("cantor_max")).system())
        stages = extrema.cantor_construction(spec, 13)
        monkeypatch.setattr(extrema, "cantor_construction", lambda spec, steps, merged: stages)
        argv = ["cantor", "--config", cfg("cantor_max"), "--steps", "13", "--format", "csv"]
        assert self.traced_peak_mb(argv, tmp_path / "out.csv") < 0.5
