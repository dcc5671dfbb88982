"""End-to-end acceptance suite: one check per shipped guarantee.

Each test prints a single ``[PASS] criterion N`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces its runtime budget.
"""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import qsaffine as qa
from qsaffine.cli import main as cli_main
from helpers import (
    CANTOR_MAX,
    DEEP_MIN_S3,
    FIGURE_CONFIGS,
    LEVEL_SETS,
    SINGULAR_S3,
    exact_hull_bounds,
    random_admissible_system,
    random_binary_point,
    random_regime_system,
    random_two_sided_period,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _ok(n, detail):
    print(f"\n[PASS] criterion {n}: {detail}")


def test_criterion_1_maximum_set_regression():
    t0 = time.perf_counter()
    M, V = qa.closed_form_max(CANTOR_MAX)
    assert abs(M - 2.0) <= 1e-12
    assert V == frozenset({1, 2})
    spec = qa.maxima_set(CANTOR_MAX)
    oracle = brentq(lambda x: 0.4**x + 0.2**x - 1.0, 1e-12, 1.0, xtol=1e-15)
    assert abs(spec.dimension - oracle) <= 1e-12
    assert abs(spec.dimension - 0.564) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"M = 2, V(M) = {{1,2}}, dimension = {spec.dimension:.6f} ({elapsed:.3f} s)")


def test_criterion_2_level_set_regression():
    t0 = time.perf_counter()
    desc = qa.level_set(LEVEL_SETS, 0.625)
    assert desc.V == frozenset({1, 3})
    assert desc.continuum
    assert qa.singularity_predicate(LEVEL_SETS)
    lhs = math.fsum(q * math.log(abs(g)) for q, g in zip(LEVEL_SETS.Q.q, LEVEL_SETS.G.g))
    rhs = math.fsum(q * math.log(q) for q in LEVEL_SETS.Q.q)
    assert abs(lhs - (-1.54)) <= 0.01
    assert abs(rhs - (-1.36)) <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, f"V(0.625) = {{1,3}}, log-moments ({lhs:.4f}, {rhs:.4f}) ({elapsed:.3f} s)")


def test_criterion_3_extrema_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for _ in range(1000):
        system, k = random_regime_system(rng, s_min=3, s_max=8)
        M, V = qa.closed_form_max(system)
        m = qa.closed_form_min(system)
        oracle_m, oracle_M = exact_hull_bounds(system)
        gap_M, gap_m = abs(Fraction(M) - oracle_M), abs(Fraction(m) - oracle_m)  # exact gaps
        worst = max(worst, float(gap_M), float(gap_m))
        assert gap_M <= 1e-10
        assert gap_m <= 1e-10
        assert abs(m) < M
        assert 0 not in V and k not in V
        delta, g = system.G.delta, system.G.g
        assert delta[k - 1] / (1 - g[k - 1]) > delta[k] / (1 - g[k])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"1000 systems, worst closed-form/oracle gap {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_4_functional_equation_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        system = random_admissible_system(rng)
        for x in rng.random(100):
            for i in range(system.s):
                worst = max(worst, qa.functional_equation_residual(system, i, float(x)))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(4, f"100 systems x 100 points x all digits, worst residual {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_5_twin_well_definedness():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        system = random_admissible_system(rng)
        for _ in range(50):
            d = random_binary_point(rng, system.s)
            t = qa.twin_representation(d)
            assert t is not None
            gap = abs(qa.evaluate(system, d).value - qa.evaluate(system, t).value)
            worst = max(worst, gap)
    assert worst <= 1e-12
    _ok(5, f"1000 twin pairs across 20 systems, worst gap {worst:.2e}")


def test_criterion_6_endpoint_and_variation_identities():
    rng = np.random.default_rng(6)
    systems = [CANTOR_MAX, LEVEL_SETS, SINGULAR_S3, DEEP_MIN_S3] + [
        random_admissible_system(rng) for _ in range(6)
    ]
    for system in systems:
        s = system.s
        assert qa.evaluate(system, qa.DigitString((), (0,), s)).value == 0.0
        assert qa.evaluate(system, qa.DigitString((), (s - 1,), s)).value == 1.0
        base = math.fsum(abs(v) for v in system.G.g)
        for n in range(1, 21):
            assert qa.variation_lower_bound(system, n) == pytest.approx(base**n, rel=1e-12)
        # independent oracle at small ranks: direct sum over all digit words
        for n in (1, 2, 3):
            total = math.fsum(
                abs(math.prod(system.G.g[d] for d in word))
                for word in itertools.product(range(s), repeat=n)
            )
            assert qa.variation_lower_bound(system, n) == pytest.approx(total, rel=1e-12)
    assert qa.variation_lower_bound(CANTOR_MAX, 3) == pytest.approx(10.648, rel=1e-12)
    _ok(6, "f(0) = 0 and f(1) = 1 exact; rank-n oscillation identity to 1e-12 (n <= 20)")


def test_criterion_7_holder_consistency():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        system = random_admissible_system(rng, s_min=3)
        for _ in range(5):
            d = random_two_sided_period(rng, system.s)
            ranks = [len(d.period) * j for j in range(1, 9)]
            emp = qa.empirical_exponent(system, d, ranks).exponent
            ana = qa.local_exponent_unary(system, qa.digit_frequencies(d)).exponent
            worst = max(worst, abs(emp - ana))
    assert worst <= 1e-12
    # frequency-typical pseudorandom digits: statistical agreement only
    rng = np.random.default_rng(12)
    digs = tuple(int(v) for v in rng.choice(LEVEL_SETS.s, size=2000, p=LEVEL_SETS.Q.q))
    d = qa.DigitString(digs, None, LEVEL_SETS.s)
    emp = qa.empirical_exponent(LEVEL_SETS, d, range(1, 2001)).exponent
    ana = qa.almost_everywhere_exponent(LEVEL_SETS).exponent
    assert abs(emp - ana) <= 0.05
    _ok(
        7,
        f"100 periodic strings exact to {worst:.2e}; typical string off by {abs(emp - ana):.3f}",
    )


def test_criterion_8_preimage_surjectivity_certificate():
    rng = np.random.default_rng(88)
    bound = 2.0 * 0.8**64  # (M - m) * g_*^depth, computed independently
    worst = 0.0
    targets = np.concatenate(([0.0, 1.0], rng.random(998)))
    for y in targets:
        d = qa.preimage_digits(CANTOR_MAX, float(y), 64)
        assert all(dig < 3 for dig in (*d.prefix, *(d.period or ())))
        residual = abs(qa.evaluate(CANTOR_MAX, d).value - float(y))
        worst = max(worst, residual)
    assert worst <= bound
    dim = qa.moran_dimension(CANTOR_MAX.Q, {0, 1, 2})
    oracle = brentq(lambda x: 2 * 0.2**x + 0.4**x - 1.0, 1e-12, 1.0, xtol=1e-15)
    assert abs(dim - oracle) <= 1e-12
    assert dim < 1.0
    _ok(
        8,
        f"1000 preimages, worst residual {worst:.2e} <= {bound:.2e}; "
        f"restricted-set dimension {dim:.6f} < 1",
    )


def test_criterion_9_construction_measure():
    spec = qa.maxima_set(CANTOR_MAX)
    stages = qa.cantor_construction(spec, 12)
    for t, intervals in enumerate(stages, start=1):
        assert len(intervals) == 2**t
        total = math.fsum(hi - lo for lo, hi in intervals)
        assert abs(total - 0.6**t) <= 1e-12
    worst = 0.0
    for base in itertools.product((1, 2), repeat=12):
        d = qa.DigitString(base, (1,), 4)
        assert qa.membership(spec, d)
        worst = max(worst, abs(qa.evaluate(CANTOR_MAX, d).value - 2.0))
    assert worst <= 1e-10
    _ok(9, f"12 stages at measure (3/5)^t; 4096 survivors all evaluate to M ({worst:.2e})")


def test_criterion_10_figure_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    summaries = []
    for name in FIGURE_CONFIGS:
        config = str(CONFIG_DIR / f"{name}.cfg")
        paths = [tmp_path / f"{name}_{i}.csv" for i in (0, 1)]
        for p in paths:
            rc = cli_main(
                ["sample", "--config", config, "--points", "10000",
                 "--format", "csv", "--out", str(p)]
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rows = paths[0].read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in rows]
        system = qa.load_config(config).system()
        b = qa.global_bounds(system)
        assert abs(max(values) - b.M) <= 1e-3
        assert abs(min(values) - b.m) <= 1e-3
        summaries.append(f"{name}: [{min(values):.4f}, {max(values):.4f}]")
    dm = qa.load_config(str(CONFIG_DIR / "deep_min_s3.cfg")).system()
    assert abs(qa.global_bounds(dm).m - (-1.5)) <= 1e-10
    capsys.readouterr()  # drop any buffered CLI stdout
    elapsed = time.perf_counter() - t0
    _ok(10, "; ".join(summaries) + f" ({elapsed:.1f} s)")
