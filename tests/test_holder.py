import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsaffine import (
    AlphabetMismatch,
    DigitString,
    FrequencyVector,
    HypothesisViolated,
    InsufficientDepth,
    SelfAffineSystem,
    ValidationError,
    almost_everywhere_exponent,
    digit_frequencies,
    empirical_exponent,
    global_exponent,
    local_exponent_binary,
    local_exponent_unary,
    nowhere_differentiable_predicate,
    singularity_predicate,
)
from qsaffine import holder
from helpers import (
    CANTOR_MAX,
    DEEP_MIN_S3,
    IDENTITY_S3,
    LEVEL_SETS,
    ROUGH_S3,
    SINGULAR_S3,
    random_admissible_system,
    random_two_sided_period,
    reference_empirical,
    reference_unary_sums,
)


def quotient(system, i):
    return math.log(abs(system.G.g[i])) / math.log(system.Q.q[i])


class TestGlobalExponent:
    def test_identity_has_exponent_one(self):
        assert global_exponent(IDENTITY_S3).exponent == pytest.approx(1.0, abs=1e-15)

    def test_minimum_quotient(self):
        # four quotients; the middle digit wins: ln(4/5)/ln(2/5)
        r = global_exponent(CANTOR_MAX)
        assert r.exponent == pytest.approx(math.log(0.8) / math.log(0.4), abs=1e-15)
        assert r.exponent == pytest.approx(0.2435, abs=1e-4)
        assert r.kind == "global"

    def test_three_letter_example(self):
        r = global_exponent(SINGULAR_S3)
        assert r.exponent == pytest.approx(math.log(0.9) / math.log(0.3), abs=1e-15)
        assert r.exponent == pytest.approx(0.0875, abs=1e-4)


class TestUnaryExponent:
    def test_weight_frequencies(self):
        r = almost_everywhere_exponent(LEVEL_SETS)
        num = math.fsum(q * math.log(abs(g)) for q, g in zip(LEVEL_SETS.Q.q, LEVEL_SETS.G.g))
        den = math.fsum(q * math.log(q) for q in LEVEL_SETS.Q.q)
        assert r.exponent == pytest.approx(num / den, abs=1e-14)
        assert r.exponent == pytest.approx(1.54 / 1.36, abs=0.01)
        assert r.kind == "almost_everywhere"

    def test_single_interior_digit(self):
        nu = FrequencyVector((0.0, 1.0, 0.0, 0.0), n=1, exact=True)
        r = local_exponent_unary(CANTOR_MAX, nu)
        assert r.exponent == pytest.approx(quotient(CANTOR_MAX, 1), abs=1e-15)
        assert r.frequencies_used is nu

    def test_boundary_frequencies_rejected(self):
        for bad in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
            with pytest.raises(HypothesisViolated):
                local_exponent_unary(SINGULAR_S3, FrequencyVector(bad, n=1, exact=True))

    def test_frequencies_must_sum_to_one(self):
        # FrequencyVector checks the sum of every vector, so local_exponent_unary never gets a bad one
        with pytest.raises(ValidationError, match="frequencies must sum to 1"):
            FrequencyVector((0.3, 0.3, 0.3), n=3, exact=False)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            local_exponent_unary(SINGULAR_S3, FrequencyVector((0.5, 0.5), n=1, exact=True))


class TestBinaryExponent:
    def test_identity(self):
        assert local_exponent_binary(IDENTITY_S3).exponent == pytest.approx(1.0, abs=1e-15)

    def test_boundary_quotients_only(self):
        r = local_exponent_binary(CANTOR_MAX)
        assert r.exponent == pytest.approx(math.log(0.6) / math.log(0.2), abs=1e-15)
        assert r.exponent == pytest.approx(0.3174, abs=1e-4)

    def test_can_exceed_global(self):
        r = local_exponent_binary(SINGULAR_S3)
        assert r.exponent == pytest.approx(math.log(0.1) / math.log(0.2), abs=1e-14)
        assert r.exponent == pytest.approx(1.4307, abs=1e-4)

    def test_global_never_exceeds_binary(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            system = random_admissible_system(rng)
            assert (
                global_exponent(system).exponent
                <= local_exponent_binary(system).exponent + 1e-15
            )


class TestEmpiricalExponent:
    def test_alternating_period_closed_form(self):
        system = SelfAffineSystem.from_values((0.5, 0.5), (0.75, 0.25))
        d = DigitString((), (0, 1), 2)
        expected = (math.log(0.75) + math.log(0.25)) / (2 * math.log(0.5))
        r = empirical_exponent(system, d, [2, 4, 6, 8])
        assert r.exponent == pytest.approx(expected, abs=1e-12)
        assert r.exponent == pytest.approx(1.2075, abs=1e-4)
        assert r.regression_points == 4

    def test_single_rank_is_direct_ratio(self):
        for t in range(1, CANTOR_MAX.s - 1):
            d = DigitString((), (t,), 4)
            for rank in (1, 3, 10):
                r = empirical_exponent(CANTOR_MAX, d, [rank])
                assert r.exponent == pytest.approx(quotient(CANTOR_MAX, t), abs=1e-12)

    def test_periodic_matches_frequency_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            system = random_admissible_system(rng, s_min=3)
            d = random_two_sided_period(rng, system.s)
            ranks = [len(d.period) * k for k in range(1, 9)]
            emp = empirical_exponent(system, d, ranks).exponent
            ana = local_exponent_unary(system, digit_frequencies(d)).exponent
            assert emp == pytest.approx(ana, abs=1e-12)

    def test_typical_string_approaches_weight_formula(self):
        rng = np.random.default_rng(12)
        digs = tuple(int(v) for v in rng.choice(LEVEL_SETS.s, size=2000, p=LEVEL_SETS.Q.q))
        d = DigitString(digs, None, LEVEL_SETS.s)
        emp = empirical_exponent(LEVEL_SETS, d, range(1, 2001)).exponent
        assert emp == pytest.approx(almost_everywhere_exponent(LEVEL_SETS).exponent, abs=0.02)
        assert emp == pytest.approx(1.13, abs=0.02)

    def test_truncated_needs_depth(self):
        with pytest.raises(InsufficientDepth):
            empirical_exponent(CANTOR_MAX, DigitString((1, 2), None, 4), [5])


def drawn_string(data, rng, s, length):
    """A string over a drawn subset of the digits, so that zero frequencies are common:
    ``length`` digits truncated, or a prefix and a period taken from them."""
    allowed = sorted(data.draw(st.sets(st.integers(0, s - 1), min_size=1)))
    digits = [allowed[i] for i in rng.integers(0, len(allowed), size=length)]
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, min(length - 1, 12)))
        period = data.draw(st.integers(1, min(length - cut, 12)))
        return DigitString(tuple(digits[:cut]), tuple(digits[cut:cut + period]), s)
    return DigitString(tuple(digits), None, s)


class TestOneKernel:
    """The frequency formula has one kernel, ``holder._frequency_formula``; the sums it
    replaced are kept in ``helpers`` and agree with it bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_unary_keeps_the_sums_over_non_zero_frequencies(self, seed, data):
        rng = np.random.default_rng(seed)
        system = random_admissible_system(rng, g_abs_max=data.draw(st.sampled_from((0.8, 0.99))))
        d = drawn_string(data, rng, system.s, data.draw(st.integers(1, 40)))
        nu = digit_frequencies(d) if d.period is not None else digit_frequencies(d, len(d.prefix))
        if nu.nu[0] < 1.0 and nu.nu[-1] < 1.0:
            num, den = reference_unary_sums(system, nu.nu)
            assert holder._frequency_formula(system, nu.nu) == (num / den, num < den)
            assert local_exponent_unary(system, nu).exponent == num / den
        q = FrequencyVector(system.Q.q, n=0, exact=True)
        ae = almost_everywhere_exponent(system)
        assert ae.exponent == local_exponent_unary(system, q).exponent
        assert ae.frequencies_used == q
        assert singularity_predicate(system) == holder._frequency_formula(system, system.Q.q)[1]

    @given(seed=st.integers(0, 2**32 - 1), ranks=st.sets(st.integers(1, 300), min_size=1), data=st.data())
    def test_empirical_keeps_the_rank_loop(self, seed, ranks, data):
        rng = np.random.default_rng(seed)
        system = random_admissible_system(rng, g_abs_max=data.draw(st.sampled_from((0.8, 0.99))))
        d = drawn_string(data, rng, system.s, max(ranks))
        report = empirical_exponent(system, d, ranks)
        assert report.exponent == reference_empirical(system, d, ranks)
        assert report.regression_points == len(ranks)


class TestPredicates:
    def test_identity_neither(self):
        assert not singularity_predicate(IDENTITY_S3)
        assert not nowhere_differentiable_predicate(IDENTITY_S3)

    def test_singular_examples(self):
        assert singularity_predicate(LEVEL_SETS)
        assert singularity_predicate(SINGULAR_S3)

    def test_rough_examples(self):
        assert nowhere_differentiable_predicate(CANTOR_MAX)
        assert nowhere_differentiable_predicate(ROUGH_S3)
        assert nowhere_differentiable_predicate(DEEP_MIN_S3)

    def test_rough_need_not_be_singular(self):
        # |g| > q everywhere pushes the typical exponent below 1
        assert not singularity_predicate(DEEP_MIN_S3)


class TestScaleDegeneracy:
    def test_matched_scales_force_exponent_one(self):
        assert global_exponent(IDENTITY_S3).exponent == pytest.approx(1.0, abs=1e-15)
        assert local_exponent_binary(IDENTITY_S3).exponent == pytest.approx(1.0, abs=1e-15)
        for nu in ((0.2, 0.5, 0.3), (0.6, 0.2, 0.2)):
            r = local_exponent_unary(IDENTITY_S3, FrequencyVector(nu, n=1, exact=True))
            assert r.exponent == pytest.approx(1.0, abs=1e-13)
