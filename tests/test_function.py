import itertools
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qsaffine import (
    AffineCoefficients,
    AlphabetMismatch,
    DigitString,
    SelfAffineSystem,
    ValidationError,
    cylinder_bounds,
    encode,
    evaluate,
    evaluate_at,
    functional_equation_residual,
    global_bounds,
    sample,
    variation_lower_bound,
)
from helpers import (
    CANTOR_MAX,
    DEEP_MIN_S3,
    IDENTITY_S3,
    LEVEL_SETS,
    ROUGH_S3,
    SHORT_S3,
    SINGULAR_S3,
    exact_hull_bounds,
    greedy_digits,
    random_admissible_system,
    random_regime_system,
    reference_bounds,
    reference_extreme_descent,
    reference_leaves,
    reference_sample,
)
from qsaffine import selfaffine
from qsaffine.codec import unwalk_into
from qsaffine.config import load_config
from qsaffine.selfaffine import DEPTH_TARGET, EPS

ALL_SYSTEMS = (CANTOR_MAX, LEVEL_SETS, SINGULAR_S3, DEEP_MIN_S3, IDENTITY_S3)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@st.composite
def systems(draw, min_s=2, max_s=5):
    s = draw(st.integers(min_s, max_s))
    ints = draw(st.lists(st.integers(1, 30), min_size=s, max_size=s))
    q = tuple(v / sum(ints) for v in ints)
    mags = draw(st.lists(st.floats(0.05, 0.8), min_size=s - 1, max_size=s - 1))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=s - 1, max_size=s - 1))
    head = tuple(m * sg for m, sg in zip(mags, signs))
    last = 1.0 - math.fsum(head)
    assume(0.05 <= abs(last) <= 0.8)
    return SelfAffineSystem.from_values(q, head + (last,))


class TestValidation:
    def test_ratio_constraints(self):
        with pytest.raises(ValidationError):
            AffineCoefficients((1.0, 0.0))
        with pytest.raises(ValidationError):
            AffineCoefficients((0.5, 0.6))
        with pytest.raises(ValidationError):
            AffineCoefficients((1.2, -0.2))

    def test_alphabet_agreement(self):
        with pytest.raises(ValidationError):
            SelfAffineSystem.from_values((0.5, 0.5), (0.3, 0.3, 0.4))

    def test_delta_is_running_sum(self):
        assert CANTOR_MAX.G.delta == (0.0, 0.4, 0.4 + 0.8, 0.4 + 0.8 + 0.4)


class TestEvaluate:
    def test_endpoints_exact(self):
        for system in ALL_SYSTEMS:
            s = system.s
            assert evaluate(system, DigitString((), (0,), s)).value == 0.0
            assert evaluate(system, DigitString((), (s - 1,), s)).value == 1.0

    def test_terminating_point_hits_offset(self):
        for system in ALL_SYSTEMS:
            for k in range(1, system.s):
                v, err = evaluate(system, DigitString((k,), (0,), system.s))
                assert v == system.G.delta[k]
                assert err == 0.0

    def test_fixed_point_of_middle_digit(self):
        v, err = evaluate(CANTOR_MAX, DigitString((), (1,), 4))
        assert v == pytest.approx(2.0, abs=1e-12)
        assert err == 0.0

    def test_truncated_error_bound(self):
        d = DigitString((1, 1, 2), None, 4)
        v, err = evaluate(CANTOR_MAX, d)
        span = CANTOR_MAX.bounds.span
        assert err == pytest.approx(span * 0.8 * 0.8 * 0.4, rel=1e-12)
        # true value stays inside the certified band
        full = evaluate(CANTOR_MAX, DigitString((1, 1, 2), (1, 0, 3), 4)).value
        assert abs(full - v) <= err

    def test_alphabet_checked(self):
        with pytest.raises(AlphabetMismatch, match="^digit string over alphabet 3 used with alphabet 4$"):
            evaluate(CANTOR_MAX, DigitString((), (1,), 3))

    @given(data=st.data(), system=systems())
    def test_twin_pair_evaluates_equal(self, data, system):
        digits = data.draw(st.lists(st.integers(0, system.s - 1), max_size=8))
        digits.append(data.draw(st.integers(1, system.s - 1)))
        from qsaffine import twin_representation

        d = DigitString(tuple(digits), (0,), system.s)
        t = twin_representation(d)
        assert abs(evaluate(system, d).value - evaluate(system, t).value) <= 1e-12

    @given(data=st.data(), system=systems())
    def test_shared_prefix_difference_factorizes(self, data, system):
        s = system.s
        c = tuple(data.draw(st.lists(st.integers(0, s - 1), max_size=6)))
        a = data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=3))
        b = data.draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=3))
        fa = evaluate(system, DigitString((), tuple(a), s)).value
        fb = evaluate(system, DigitString((), tuple(b), s)).value
        fca = evaluate(system, DigitString(c, tuple(a), s)).value
        fcb = evaluate(system, DigitString(c, tuple(b), s)).value
        prod = 1.0
        for dig in c:
            prod *= system.G.g[dig]
        assert fca - fcb == pytest.approx(prod * (fa - fb), abs=1e-11)


class TestEvaluateAt:
    def test_endpoints(self):
        for system in ALL_SYSTEMS:
            assert evaluate_at(system, 0.0).value == 0.0
            assert evaluate_at(system, 1.0).value == 1.0

    def test_midpoint_of_binary_alphabet(self):
        system = SelfAffineSystem.from_values((0.5, 0.5), (0.3, 0.7))
        v, err = evaluate_at(system, 0.5)
        assert v == system.G.delta[1] == 0.3
        assert err == 0.0

    def test_default_depth_meets_target(self):
        for system in ALL_SYSTEMS:
            n = system.default_depth
            gmax = max(abs(v) for v in system.G.g)
            assert gmax**n * system.bounds.span < 1e-12
            assert 1 <= n <= 4096


class TestFunctionalEquation:
    def test_trivial_points(self):
        for system in (CANTOR_MAX, SINGULAR_S3, IDENTITY_S3):
            for i in range(system.s):
                assert functional_equation_residual(system, i, 0.0) <= 1e-12
                assert functional_equation_residual(system, i, 1.0) <= 1e-12

    def test_interior_point(self):
        assert functional_equation_residual(CANTOR_MAX, 2, 1 / 3, depth=48) <= 1e-9

    def test_residual_within_twice_error_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            system = random_admissible_system(rng)
            for x in rng.random(5):
                # the residual walks default_depth digits, so take the bound at that depth too
                d_err = evaluate_at(system, float(x), system.default_depth).error_bound
                for i in range(system.s):
                    r = functional_equation_residual(system, i, float(x))
                    # exact-terminating encodes have bound 0; leave rounding room
                    assert r <= max(2.0 * d_err, 5e-13)


class TestCodecWalkPath:
    """``evaluate_at`` and the residual against the ``encode`` -> ``DigitString`` path, bit for bit."""

    SHORT = SHORT_S3  # reaches the close at 1 after trailing high digits

    @staticmethod
    def _stop_count(system, x):
        """Digits ``evaluate_at(system, x)`` walks: the first n with
        ``|prod g| <= DEPTH_TARGET / span``, or the close, or ``default_depth``."""
        Q, cap = system.Q, system.default_depth
        digits, _ = greedy_digits(x, Q, cap)
        stop = DEPTH_TARGET / system.bounds.span
        prod = 1.0
        for n, d in enumerate(digits):
            if abs(prod) <= stop:
                return n
            prod *= system.G.g[d]
        return cap  # a close (encode at the cap closes at the same digit) or the cap itself

    @staticmethod
    def _old_residual(system, i, x, depth):
        d = encode(x, system.Q, depth if depth is not None else system.default_depth)
        lhs = evaluate(system, d.prepend(i)).value
        return abs(lhs - system.G.delta[i] - system.G.g[i] * evaluate(system, d).value)

    def test_same_bits_as_digit_string_path(self):
        rng = np.random.default_rng(8)
        bundled = [load_config(p).system() for p in sorted(CONFIG_DIR.glob("*.cfg"))]
        randoms = [random_admissible_system(rng) for _ in range(12)]
        high_closes = early_stops = 0
        for system in (*bundled, *randoms, self.SHORT):
            s = system.s
            xs = [0.0, 1.0, *system.Q.beta, *(float(v) for v in rng.random(8))]
            for _ in range(8 if system is not self.SHORT else 40):
                base = [int(v) for v in rng.integers(0, s, size=int(rng.integers(1, 6)))]
                xs.append(math.nextafter(min(cylinder_bounds(base, system.Q)[1], 1.0), 0.0))
            for x in xs:
                for depth in (None, 1, 4, system.default_depth):
                    n = depth if depth is not None else self._stop_count(system, x)
                    early_stops += depth is None and n < system.default_depth
                    new = evaluate_at(system, x, depth)
                    old = evaluate(system, encode(x, system.Q, n))
                    assert struct.pack("<dd", *new) == struct.pack("<dd", *old), (x, depth)
                    for i in range(s):
                        new_r = functional_equation_residual(system, i, x, depth)
                        old_r = self._old_residual(system, i, x, depth)
                        assert struct.pack("<d", new_r) == struct.pack("<d", old_r), (x, depth, i)
                    if system is self.SHORT:
                        digits, period = greedy_digits(x, system.Q, n)
                        high_closes += period == (s - 1,) and digits[-1:] == (s - 1,)
        assert high_closes >= 10  # the closes that need the trailing-digit drop did occur
        assert early_stops >= 250  # and so did stops before the cap


class TestAdaptiveStop:
    """``evaluate_at`` at ``depth=None`` stops once its truncation bound meets ``DEPTH_TARGET``."""

    @staticmethod
    def _systems():
        rng = np.random.default_rng(13)
        bundled = [load_config(p).system() for p in sorted(CONFIG_DIR.glob("*.cfg"))]
        return rng, (*bundled, *(random_admissible_system(rng, g_abs_max=0.9) for _ in range(16)))

    def test_digits_at_most_default_depth_and_bound_meets_target(self):
        rng, systems = self._systems()
        early = 0
        for system in systems:
            Q, G, span, cap = system.Q, system.G, system.bounds.span, system.default_depth
            for x in rng.random(24):
                stop = DEPTH_TARGET / span
                digits = []
                acc, prod, period = unwalk_into(float(x), Q.beta, Q.q, G.delta, G.g, cap, stop, digits)
                value, bound = evaluate_at(system, float(x))
                assert (value, bound) == (acc, span * abs(prod))
                assert period is None or prod == 0.0
                n = len(digits)
                assert n <= cap
                if period is None and n < cap:  # truncated before the cap: stopped early
                    early += 1
                    assert 0.0 < bound < DEPTH_TARGET
        assert early >= 500

    def test_within_its_bound_of_the_full_depth_value(self):
        rng, systems = self._systems()
        for system in systems:
            b = system.bounds
            # f's range [m, M] holds 0 and 1, so max(|m|, |M|) <= M - m: the dropped digits
            # move the value by at most span * |prod g|, the adaptive bound.
            assert max(abs(b.m), abs(b.M)) <= b.span
            # Both walks share their first digits bit for bit; each later digit rounds one
            # product and one sum of magnitude at most the span.
            rounding = 2.0 * system.default_depth * EPS * b.span
            for x in rng.random(24):
                v, bound = evaluate_at(system, float(x))
                full = evaluate_at(system, float(x), system.default_depth).value
                assert abs(v - full) <= bound + rounding

    def test_terminating_points_keep_bound_zero(self):
        rng, systems = self._systems()
        dyadic = SelfAffineSystem.from_values((0.5, 0.25, 0.25), (0.5, -0.25, 0.75))
        closed = 0
        for system in (*systems, dyadic):
            Q, s = system.Q, system.s
            for _ in range(12):
                base = [int(v) for v in rng.integers(0, s, size=int(rng.integers(1, 5)))]
                x = cylinder_bounds(base, Q)[0]
                digits, period = greedy_digits(x, Q, system.default_depth)
                if period is None:
                    assert system is not dyadic
                    continue  # the float descent missed the left end (ROADMAP item 1)
                closed += 1
                exact = evaluate(system, DigitString(digits, period, s)).value
                assert evaluate_at(system, x) == (exact, 0.0)
        assert closed >= 150


class TestVariation:
    def test_monotone_case_is_one(self):
        for n in (1, 2, 7, 20):
            assert variation_lower_bound(IDENTITY_S3, n) == pytest.approx(1.0, rel=1e-12)

    def test_reference_values(self):
        assert variation_lower_bound(CANTOR_MAX, 1) == pytest.approx(2.2, rel=1e-12)
        assert variation_lower_bound(CANTOR_MAX, 3) == pytest.approx(10.648, rel=1e-12)

    def test_matches_bruteforce_cylinder_sum(self):
        # oracle: sum of |prod g| over all rank-n digit words
        for system in (CANTOR_MAX, DEEP_MIN_S3):
            for n in (1, 2, 3):
                total = math.fsum(
                    abs(math.prod(system.G.g[d] for d in word))
                    for word in itertools.product(range(system.s), repeat=n)
                )
                assert variation_lower_bound(system, n) == pytest.approx(total, rel=1e-12)

    def test_rank_validated(self):
        with pytest.raises(ValidationError):
            variation_lower_bound(CANTOR_MAX, 0)

    def test_overflow_is_validation_error(self):
        with pytest.raises(ValidationError, match="overflows"):
            variation_lower_bound(CANTOR_MAX, 5000)
        assert variation_lower_bound(IDENTITY_S3, 5000) == pytest.approx(1.0, rel=1e-9)


class TestGlobalBounds:
    def test_monotone_case(self):
        b = global_bounds(IDENTITY_S3)
        assert b.m == 0.0 and b.M == 1.0

    def test_reference_systems(self):
        b = global_bounds(CANTOR_MAX)
        assert b.m == pytest.approx(0.0, abs=1e-10)
        assert b.M == pytest.approx(2.0, abs=1e-10)
        b = global_bounds(DEEP_MIN_S3)
        assert b.m == pytest.approx(-1.5, abs=1e-10)
        assert b.M == pytest.approx(6.0, abs=1e-10)

    def test_invariants(self):
        for system in ALL_SYSTEMS:
            b = system.bounds
            assert b.m <= 0.0 and b.M >= 1.0
            assert b.residual <= 1e-12
            assert b.iterations >= 1

    @staticmethod
    def solver_cases():
        """Bundled and random systems, and near-critical ones of every sign pattern."""
        rng = np.random.default_rng(3)
        cases = [CANTOR_MAX, LEVEL_SETS, SINGULAR_S3, ROUGH_S3, DEEP_MIN_S3, IDENTITY_S3]
        cases += [random_admissible_system(rng) for _ in range(40)]
        for r in (0.99, 0.999, 1.0 - 1e-6):
            cases += [
                SelfAffineSystem.from_values((0.4, 0.4, 0.2), (0.6, r, 0.4 - r)),
                SelfAffineSystem.from_values((0.4, 0.4, 0.2), (r, r, 1.0 - 2.0 * r)),
                SelfAffineSystem.from_values((0.25,) * 4, (-r, 0.5, r, 0.5)),
                SelfAffineSystem.from_values((0.2, 0.3, 0.3, 0.2), (0.6, 0.7, -r, r - 0.3)),
            ]
        # Policy (a, b) = (5, 1), both ratios negative; on the rationals M = 9/7 and m = -3/7.
        cases.append(SelfAffineSystem.from_values((1 / 6,) * 6, (0.6, -0.8, 0.4, 0.8, 0.2, -0.2)))
        return cases

    def test_exact_fixed_point_within_residual(self):
        for system in self.solver_cases():
            b = global_bounds(system)
            m, M = exact_hull_bounds(system)
            assert abs(Fraction(b.M) - M) <= Fraction(b.residual), system.G.g
            assert abs(Fraction(b.m) - m) <= Fraction(b.residual), system.G.g

    @given(seed=st.integers(0, 2**32 - 1), regime=st.booleans())
    def test_same_bits_as_the_reference_solver(self, seed, regime):
        # helpers.reference_bounds is the solver before its rounds were trimmed
        rng = np.random.default_rng(seed)
        system = random_regime_system(rng)[0] if regime else random_admissible_system(rng, 2, 8, 0.95)
        b = selfaffine._fixed_point_bounds(system)
        assert (b.m, b.M, b.iterations, b.residual) == reference_bounds(system)

    def test_solver_cases_same_bits_as_the_reference_solver(self):
        for system in self.solver_cases():
            b = selfaffine._fixed_point_bounds(system)
            assert (b.m, b.M, b.iterations, b.residual) == reference_bounds(system), system.G.g

    @staticmethod
    def eighths_systems():
        """Uniform weights, ratios in eighths: the 1253 systems of 3 and 4 digits, rich in exact hull ties."""
        numerators = [k for k in range(-7, 8) if k]
        for s in (3, 4):
            for ks in itertools.product(numerators, repeat=s):
                if sum(ks) == 8:
                    yield SelfAffineSystem.from_values((1 / s,) * s, [k / 8 for k in ks])

    def test_exact_hull_ties_same_bits_as_the_reference_solver(self):
        # Each round takes the first of the tied digits; taking the last one
        # solves (g_1, g_2) = (7/8, 7/8) below in 2 steps, not 3.
        tied = SelfAffineSystem.from_values((1 / 3,) * 3, (-3 / 4, 7 / 8, 7 / 8))
        assert reference_bounds(tied)[:3] == (-6.0, 4.5, 3)
        # The arg-min digit 0 is kept though digit 1's lower value rounds below
        # it by less than half the allowance: 1 step, not 2.
        kept = SelfAffineSystem.from_values((1 / 4,) * 4, (0.2, -0.2, 0.2, 0.8))
        assert reference_bounds(kept)[:3] == (0.0, 1.0000000000000002, 1)
        for system in (tied, kept, *self.eighths_systems()):
            b = selfaffine._fixed_point_bounds(system)
            assert (b.m, b.M, b.iterations, b.residual) == reference_bounds(system), system.G.g

    def test_zero_allowance_same_bits_as_the_reference_solver(self, monkeypatch):
        # With EPS = 0 the keep rule and the final check sit on their boundaries:
        # a policy digit tied with an earlier digit is kept, and a step of 0
        # passes.  Each of these dyadic systems still settles with a step of 0.
        # The sixteenths system keeps its arg-min digit 3, which digit 1 ties at m = -1.
        monkeypatch.setattr(selfaffine, "EPS", 0.0)
        sixteenths = SelfAffineSystem.from_values((1 / 4,) * 4, (-3 / 16, 13 / 16, 14 / 16, -8 / 16))
        for system in (sixteenths, *self.eighths_systems()):
            b = selfaffine._fixed_point_bounds(system)
            assert (b.m, b.M, b.iterations, b.residual) == reference_bounds(system), system.G.g

    def test_s_squared_steps_are_allowed(self, monkeypatch):
        # Seven switching solves, then true ones: rough_s3 settles after exactly
        # s**2 = 9 steps, the cap, at its own bounds.
        m, M = reference_bounds(ROUGH_S3)[:2]
        solve = selfaffine._policy_value
        switches = iter([(1e6, 0.0), (1.0, -1e6)] * 3 + [(1e6, 0.0)])
        monkeypatch.setattr(selfaffine, "_policy_value", lambda *args: next(switches, None) or solve(*args))
        b = selfaffine._fixed_point_bounds(ROUGH_S3)
        assert (b.m, b.M, b.iterations) == (m, M, 9)

    def test_policy_steps_at_most_s_squared(self):
        for system in self.solver_cases():
            assert 1 <= global_bounds(system).iterations <= system.s**2, system.G.g

    def test_a_case_solves_a_two_negative_policy(self, monkeypatch):
        # The last branch of _policy_value: arg-max and arg-min digits with negative ratios.
        both, solve = [], selfaffine._policy_value

        def spy(delta, g, a, b):
            both.append(g[a] < 0 and g[b] < 0)
            return solve(delta, g, a, b)

        monkeypatch.setattr(selfaffine, "_policy_value", spy)
        for system in self.solver_cases():
            global_bounds(system)
        assert any(both)


class TestSample:
    def test_two_points(self):
        assert sample(IDENTITY_S3, 2) == [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]

    def test_monotone_non_decreasing(self):
        # all-positive ratios: increasing (singular when g != q), bounds (0, 1)
        increasing = SelfAffineSystem.from_values((0.5, 0.25, 0.25), (0.3, 0.4, 0.3))
        for system in (IDENTITY_S3, increasing):
            b = global_bounds(system)
            assert (b.m, b.M) == (0.0, 1.0)
            rows = sample(system, 500)
            values = [v for _, v, _ in rows]
            assert values == sorted(values)
            xs = [x for x, _, _ in rows]
            assert xs == sorted(xs)

    def test_extremes_approach_bounds(self):
        rows = sample(CANTOR_MAX, 10**5)
        top = max(v for _, v, _ in rows)
        assert top <= 2.0 + 1e-12
        assert top >= 2.0 - 1e-3

    def test_all_samples_within_certified_bounds(self):
        for system in ALL_SYSTEMS:
            b = system.bounds
            for _, v, _ in sample(system, 400):
                assert b.m - 1e-12 <= v <= b.M + 1e-12

    def test_deterministic(self):
        assert sample(DEEP_MIN_S3, 777) == sample(DEEP_MIN_S3, 777)

    def test_identity_samples_lie_on_diagonal(self):
        for x, v, err in sample(IDENTITY_S3, 64):
            assert v == pytest.approx(x, abs=1e-13)
            assert err == 0.0

    def test_points_validated(self):
        with pytest.raises(ValidationError):
            sample(IDENTITY_S3, 1)

    def test_walk_rejects_rows_past_the_cap(self, monkeypatch):
        # The walk's own cap check, behind the count before it: with no count, it rejects.
        monkeypatch.setattr(selfaffine, "SAMPLE_ROW_CAP", 1000)
        monkeypatch.setattr(selfaffine, "_leaf_count", lambda q, thresh, cap, limit: 0)
        with pytest.raises(ValidationError, match="needs more than 1000 rows"):
            sample(CANTOR_MAX, 4096)

    @staticmethod
    def bits(rows):
        return [struct.pack("<ddd", *row) for row in rows]

    @given(
        seed=st.integers(0, 2**32 - 1),
        points=st.integers(2, 600),
        depth=st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_rows_match_reference_walk(self, seed, points, depth):
        system = random_admissible_system(np.random.default_rng(seed))
        rows = sample(system, points, depth)
        assert self.bits(rows) == self.bits(reference_sample(system, points, depth))

    @given(
        seed=st.integers(0, 2**32 - 1),
        g_abs_max=st.sampled_from((0.8, 0.99)),
        points=st.sampled_from((2, 64, 4096)),
        depth=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_refined_extremes_match_one_direction_descents(self, seed, g_abs_max, points, depth):
        # Both extremes from the two-sided descent, bit for bit those of one call per direction.
        system = random_admissible_system(np.random.default_rng(seed), g_abs_max=g_abs_max)
        tol, cap = system.bounds.span / points, selfaffine.DEPTH_CAP if depth is None else depth
        got = selfaffine._refined_extremes(system, tol, cap)
        want = (
            reference_extreme_descent(system, True, tol, cap),
            reference_extreme_descent(system, False, tol, cap),
        )
        assert struct.pack("<dddd", *got[0], *got[1]) == struct.pack("<dddd", *want[0], *want[1])

    @pytest.mark.parametrize(
        "g, points",
        [
            ((0.75, 0.5625, 0.5, -0.8125), 4),  # the maximum's descent ends at |p|(M - m) = tol
            ((0.3125, 0.6875, 0.3125, -0.3125), 4),  # the refined maximum ties the grid's at a new x
            ((-0.3125, 0.125, 0.5, 0.6875), 16),  # the refined minimum ties the grid's at a new x
        ],
    )
    def test_dyadic_ties_match_reference(self, g, points):
        # Dyadic ratios meet the descent's stop test and the insertion guards with equality.
        system = SelfAffineSystem.from_values((0.25,) * 4, g)
        assert self.bits(sample(system, points)) == self.bits(reference_sample(system, points))

    @pytest.mark.parametrize(
        "q, points, depth",
        [
            ((0.999, 0.001), 256, None),  # stopped by DEPTH_CAP
            ((0.999, 0.001), 1024, None),
            ((0.99, 0.01), 512, None),
            ((0.99, 0.01), 512, 40),
            ((0.9, 0.09, 0.01), 4096, None),
            ((0.7, 0.2, 0.06, 0.04), 8192, 9),
            ((0.5, 1e-17, 0.5), 4096, None),
        ],
    )
    def test_leaf_count_matches_the_walk(self, q, points, depth):
        # Skewed weights, where sample counts before it walks, on systems small enough to walk.
        system = SelfAffineSystem.from_values(q, q)
        cap = selfaffine.DEPTH_CAP if depth is None else depth
        leaves = len(reference_leaves(system, points, depth))
        assert selfaffine._leaf_count(q, 1.0 / (points - 1), cap, math.inf) == leaves
        assert selfaffine._leaf_count(q, 1.0 / (points - 1), cap, leaves - 1) > leaves - 1

    @pytest.mark.parametrize("q", [(0.5, 1e-17, 0.5), (1e-17, 0.5, 0.5)])
    def test_tied_left_ends_take_the_sorting_tail(self, monkeypatch, q):
        # A cylinder of width 1e-17 has a left end that rounds onto its neighbour's.
        system = SelfAffineSystem.from_values(q, (0.3, 0.4, 0.3))
        xs = [x for x, _ in reference_leaves(system, 4096)]
        assert len(xs) == 8191 and len(set(xs)) < len(xs)
        sorts = []
        monkeypatch.setattr(
            selfaffine, "sorted", lambda items: sorts.append(1) or sorted(items), raising=False
        )
        rows = sample(system, 4096)
        assert sorts == [1]
        assert self.bits(rows) == self.bits(reference_sample(system, 4096))
