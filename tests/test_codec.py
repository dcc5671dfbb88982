import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsaffine import (
    AffineCoefficients,
    AlphabetMismatch,
    DigitString,
    InsufficientDepth,
    InvalidDigit,
    OutOfDomain,
    SelfAffineSystem,
    StochasticVector,
    ValidationError,
    cylinder_bounds,
    decode,
    digit_frequencies,
    encode,
    evaluate,
    level_witness,
    preimage_digits,
    twin_representation,
)
from qsaffine.codec import string_sum, unwalk, unwalk_into, walk
from helpers import (
    CANTOR_MAX,
    LEVEL_SETS,
    SHORT_S3,
    greedy_digits,
    random_admissible_system,
    random_binary_point,
    random_regime_system,
)

Q4 = StochasticVector((0.2, 0.4, 0.2, 0.2))
Q2 = StochasticVector((0.5, 0.5))


@st.composite
def weight_vectors(draw, min_s=2, max_s=6):
    s = draw(st.integers(min_s, max_s))
    ints = draw(st.lists(st.integers(1, 40), min_size=s, max_size=s))
    tot = sum(ints)
    return StochasticVector(tuple(v / tot for v in ints))


@st.composite
def terminating_strings(draw, s):
    # random prefix whose last digit is nonzero: the low form of a twin point
    digits = draw(st.lists(st.integers(0, s - 1), min_size=0, max_size=10))
    digits.append(draw(st.integers(1, s - 1)))
    return DigitString(tuple(digits), (0,), s)


@st.composite
def any_strings(draw):
    """``(d, prefix, period)``: a random exact or truncated string and the digits it was built from."""
    s = draw(st.integers(2, 4))
    digit = st.integers(0, s - 1)
    prefix = tuple(draw(st.lists(digit, max_size=6)))
    period = draw(st.none() | st.lists(digit, min_size=1, max_size=4).map(tuple))
    return DigitString(prefix, period, s), prefix, period


class TestValidation:
    def test_rejects_bad_sums(self):
        with pytest.raises(ValidationError):
            StochasticVector((0.5, 0.499))
        with pytest.raises(ValidationError):
            StochasticVector((0.5, 0.5 + 1e-9))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            StochasticVector((1.0, 0.0))
        with pytest.raises(ValidationError):
            StochasticVector((1.5, -0.5))

    @pytest.mark.parametrize(
        "make, values, message",
        (
            (StochasticVector, (0.5, -0.1, 1.5, 0.1), "q[1] = -0.1 must satisfy 0 < q < 1"),
            (StochasticVector, (0.25, 0.25, 0.5, 1.0, 0.0), "q[3] = 1.0 must satisfy 0 < q < 1"),
            (StochasticVector, (0.5, float("nan"), 2.0), "q[1] = nan must satisfy 0 < q < 1"),
            (AffineCoefficients, (0.5, 0.5, 0.0, -1.0), "g[2] = 0.0 must satisfy 0 < |g| < 1"),
            (AffineCoefficients, (1.0, 0.5, 0.0), "g[0] = 1.0 must satisfy 0 < |g| < 1"),
        ),
    )
    def test_message_names_the_first_inadmissible_entry(self, make, values, message):
        # checked with map/all; only a failing vector searches for the index it names
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(values)

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0])
    @pytest.mark.parametrize(
        "make, name, rule", [(StochasticVector, "q", "0 < q < 1"), (AffineCoefficients, "g", "0 < |g| < 1")]
    )
    def test_each_inadmissible_value_is_named_at_its_first_index(self, make, name, rule, bad, position):
        # a second bad entry after the first: the message names the first
        values = [0.2] * 5
        values[position] = bad
        if position < 4:
            values[4] = 2.0
        message = f"{name}[{position}] = {bad!r} must satisfy {rule}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(values)

    def test_the_least_subnormal_weight_is_admissible(self):
        # the CI tiny-weights config: q = (1/2, 5e-324, 5e-324, 1/2)
        Q = StochasticVector((0.5, 5e-324, 5e-324, 0.5))
        assert Q.q == (0.5, 5e-324, 5e-324, 0.5) and Q.beta == (0.0, 0.5, 0.5, 0.5)
        assert AffineCoefficients((0.5, 5e-324, 0.5 - 5e-324)).g[1] == 5e-324

    def test_rejects_a_single_weight(self):
        with pytest.raises(ValidationError, match="alphabet size must be at least 2"):
            StochasticVector((0.5,))

    def test_no_silent_renormalization(self):
        # close to valid but outside tolerance: must raise, never rescale
        with pytest.raises(ValidationError):
            StochasticVector((0.3 + 1e-10, 0.3, 0.4))

    def test_sum_tolerance_is_rounding(self):
        # |fsum - 1| <= eps * fsum(|v|): 1 - 2**-53 passes, 1 - 2**-52 and 1 - 1e-13 do not
        assert StochasticVector((0.5, 0.5 - 2.0**-53)).s == 2
        for short in (2.0**-52, 1e-13):
            with pytest.raises(ValidationError, match="got sum = 0.9999"):
                StochasticVector((0.5, 0.5 - short))
        # rationals that sum to 1, each rounded to a double, all pass
        for den in (3, 7, 10, 1000, 999_983):
            StochasticVector(tuple(float(Fraction(n, den)) for n in (1, den - 2, 1)))

    def test_beta_matches_running_sum(self):
        assert Q4.beta == (0.0, 0.2, 0.2 + 0.4, 0.2 + 0.4 + 0.2)

    def test_digit_out_of_alphabet(self):
        with pytest.raises(InvalidDigit):
            DigitString((4,), (0,), 4)
        with pytest.raises(InvalidDigit):
            DigitString((0,), (0, 5), 4)

    def test_non_integral_digit_rejected(self):
        # a digit is converted with operator.index, never truncated
        with pytest.raises(InvalidDigit):
            DigitString((1.9, 2.5), (0.7,), 3)
        with pytest.raises(InvalidDigit):
            DigitString((1,), (2.0,), 3)
        with pytest.raises(InvalidDigit):
            DigitString((1,), (0,), 3).prepend(1.5)
        d = DigitString((np.int64(1), True), (np.uint8(2),), 3)
        assert d == DigitString((1, 1), (2,), 3)
        assert all(type(v) is int for v in (*d.prefix, *d.period))

    def test_non_integral_alphabet_size_rejected(self):
        # s goes through operator.index like the digits: 3.5 is no alphabet size
        with pytest.raises(ValidationError, match="alphabet size must be an integer"):
            DigitString((3,), (0,), 3.5)
        with pytest.raises(ValidationError, match="alphabet size must be an integer"):
            digit_frequencies(DigitString((), (1,), 2.5))
        d = DigitString((1,), (0,), np.int64(3))
        assert type(d.s) is int and digit_frequencies(d).nu == (1.0, 0.0, 0.0)

    def test_empty_period_forbidden(self):
        with pytest.raises(ValidationError):
            DigitString((1,), (), 4)


class TestCanonicalForm:
    def test_period_reduced_to_primitive_cycle(self):
        assert DigitString((), (0, 1, 0, 1), 2).period == (0, 1)
        assert DigitString((), (2, 2, 2), 3).period == (2,)
        assert DigitString((1,), (0, 0), 2) == DigitString((1,), (0,), 2)

    def test_prefix_tail_absorbed_into_period(self):
        d = DigitString((1, 0), (0,), 2)
        assert d.prefix == (1,) and d.period == (0,)
        d = DigitString((0, 1), (0, 1), 2)
        assert d.prefix == () and d.period == (0, 1)
        d = DigitString((2, 1), (0, 1), 3)
        assert d.prefix == (2,) and d.period == (1, 0)

    def test_prepend_to_empty_prefix_rotates_the_period(self):
        # a new digit equal to the period's last digit is absorbed: the cycle rotates
        d = DigitString((), (1, 2), 3).prepend(2)
        assert d == DigitString((2,), (1, 2), 3) and (d.prefix, d.period) == ((), (2, 1))
        assert DigitString((), (2,), 3).prepend(2) == DigitString((2,), (2,), 3) == DigitString((), (2,), 3)
        assert DigitString((), (0,), 3).prepend(0) == DigitString((0,), (0,), 3) == DigitString((), (0,), 3)

    def test_text_round_trip(self):
        for text in ("1,3,(0,2)", "(2)", "1,3", "0,(1)"):
            d = DigitString.from_text(text, 4)
            assert DigitString.from_text(d.to_text(), 4) == d
        assert DigitString.from_text("1,3", 4).period is None

    def test_period_needs_its_comma(self):
        assert DigitString.from_text("1, (2)", 4) == DigitString.from_text("1,(2)", 4) == DigitString((1,), (2,), 4)
        assert DigitString.from_text("(2)", 4) == DigitString((), (2,), 4)
        for text in ("1(2)", "1,2(3)", "1 (2)"):
            with pytest.raises(ValidationError, match="malformed digit string"):
                DigitString.from_text(text, 4)

    def test_digits_are_ascii_decimals(self):
        # int() alone would read these as 1, 0, 10, 3 and 1
        for text in ("+1", "-0", "1_0", "\u0663", "\uff11", "1,(+2)", "(1_0)", "2,\u0663,(1)"):
            with pytest.raises(ValidationError, match="malformed digit string"):
                DigitString.from_text(text, 12)
        assert DigitString.from_text(" 1 , 2 ", 4) == DigitString((1, 2), None, 4)
        assert DigitString.from_text(" ( 2 ) ", 4) == DigitString((), (2,), 4)

    def test_period_needs_its_parentheses_and_a_digit(self):
        for text in ("1,(2", "(2"):
            message = f"^unbalanced period parenthesis in {re.escape(repr(text))}$"
            with pytest.raises(ValidationError, match=message):
                DigitString.from_text(text, 4)
        for text in ("1,()", "()"):
            with pytest.raises(ValidationError, match="^period must contain at least one digit$"):
                DigitString.from_text(text, 4)


class TestDecode:
    def test_all_zero_period_decodes_to_zero(self):
        for Q in (Q4, Q2):
            assert decode(DigitString((), (0,), Q.s), Q) == 0.0

    def test_all_high_period_decodes_to_one(self):
        for Q in (Q4, Q2):
            assert decode(DigitString((), (Q.s - 1,), Q.s), Q) == 1.0

    def test_single_digit_period_fixed_point(self):
        # x = beta_1 + q_1 x  =>  x = (1/5) / (1 - 2/5) = 1/3
        oracle = Fraction(1, 5) / (1 - Fraction(2, 5))
        got = decode(DigitString((), (1,), 4), Q4)
        assert got == pytest.approx(float(oracle), abs=1e-15)

    def test_truncated_decodes_to_cylinder_left_endpoint(self):
        d = DigitString((1, 1), None, 4)
        left, _, _ = cylinder_bounds((1, 1), Q4)
        assert decode(d, Q4) == left

    def test_alphabet_checked(self):
        with pytest.raises(AlphabetMismatch, match="^digit string over alphabet 3 used with alphabet 4$"):
            decode(DigitString((1,), (0,), 3), Q4)

    def test_sum_rounding_above_one_is_clamped(self):
        # Forty top digits sum to one ulp above 1 on these weights; the point is at most 1.
        Q = StochasticVector(tuple(float(Fraction(t)) for t in ("14/47", "33/94", "13/94", "10/47")))
        d = DigitString((3,) * 40, None, 4)
        assert string_sum(d.prefix, d.period, Q.beta, Q.q)[0] == 1.0000000000000002
        assert decode(d, Q) == 1.0


class TestSharedSum:
    @given(Q=weight_vectors(), data=st.data())
    def test_decode_is_evaluate_with_ratios_equal_to_weights(self, Q, data):
        # decode and evaluate share one string sum: with g = q the function is
        # the identity and both give the same bits, up to decode's clamp
        digit = st.integers(0, Q.s - 1)
        prefix = tuple(data.draw(st.lists(digit, max_size=12)))
        period = data.draw(st.none() | st.lists(digit, min_size=1, max_size=5).map(tuple))
        d = DigitString(prefix, period, Q.s)
        system = SelfAffineSystem(Q, AffineCoefficients(Q.q))
        value = evaluate(system, d).value
        if d.period is not None:
            assert "bounds" not in system.__dict__  # exact strings never need the bounds
        clamped = 0.0 if value < 0.0 else 1.0 if value > 1.0 else value
        assert struct.pack("<d", decode(d, Q)) == struct.pack("<d", clamped)


class TestEncode:
    def test_zero_and_one(self):
        assert encode(0.0, Q4, 10) == DigitString((), (0,), 4)
        assert encode(1.0, Q4, 10) == DigitString((), (3,), 4)

    def test_binary_expansion_of_one_third(self):
        # independent oracle: base-2 digits of 1/3 by exact integer arithmetic
        x, oracle = Fraction(1, 3), []
        for _ in range(20):
            x *= 2
            oracle.append(int(x))
            x -= int(x)
        d = encode(1 / 3, Q2, 20)
        assert d.period is None and d.prefix == tuple(oracle)

    def test_boundary_tie_takes_larger_digit(self):
        # x = beta_1 exactly: digit 1 then the zero tail, not 0,(s-1)
        d = encode(0.2, Q4, 32)
        assert d == DigitString((1,), (0,), 4)

    def test_out_of_domain(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(OutOfDomain):
                encode(bad, Q4, 4)

    @given(Q=weight_vectors(), x=st.floats(0, 1), n=st.integers(1, 12))
    def test_round_trip_within_cylinder_length(self, Q, x, n):
        d = encode(x, Q, n)
        bound = 1.0
        for dig in d.prefix:
            bound *= Q.q[dig]
        assert abs(decode(d, Q) - x) <= bound + 1e-13
        assert bound <= max(Q.q) ** len(d.prefix) + 1e-15


class TestEncodeMatchesReference:
    """``encode`` equals the canonical form of ``helpers.greedy_digits``, an independent descent."""

    # The composed width 0.3**a * 0.7**b of 2000 digits underflows to 0.0.
    UNDERFLOW = StochasticVector((0.3, 0.7))

    @staticmethod
    def _reference(x, Q, n):
        return DigitString(*greedy_digits(x, Q, n), Q.s)

    @given(pick=st.sampled_from(("short", "underflow")) | st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_reference(self, pick, data):
        rng = np.random.default_rng(pick if isinstance(pick, int) else 0)
        if pick == "underflow":
            Q, depth = self.UNDERFLOW, st.just(2000)
        else:
            system = SHORT_S3 if pick == "short" else random_admissible_system(rng)
            Q, depth = system.Q, st.integers(1, system.default_depth)
        base = data.draw(st.lists(st.integers(0, Q.s - 1), min_size=1, max_size=6))
        left, right, _ = cylinder_bounds(base, Q)
        ends = (left, min(right, 1.0))
        near = tuple(min(max(math.nextafter(e, to), 0.0), 1.0) for e in ends for to in (0.0, 1.0))
        x = data.draw(st.sampled_from((float(rng.random()), *ends, *near)) | st.floats(0.0, 1.0))
        n = data.draw(depth)
        assert encode(x, Q, n) == self._reference(x, Q, n)

    def test_high_closes_match_reference(self):
        # the trailing-high closes the canonical form strips do occur on SHORT_S3
        rng = np.random.default_rng(21)
        Q, closes = SHORT_S3.Q, 0
        for _ in range(200):
            base = [int(v) for v in rng.integers(0, Q.s, size=int(rng.integers(1, 6)))]
            x = math.nextafter(min(cylinder_bounds(base, Q)[1], 1.0), 0.0)
            for n in (1, 7, SHORT_S3.default_depth):
                digits, period = greedy_digits(x, Q, n)
                closes += period == (Q.s - 1,) and digits[-1:] == (Q.s - 1,)
                assert encode(x, Q, n) == self._reference(x, Q, n)
        assert closes >= 100

    def test_truncated_at_underflowing_width(self):
        # A truncated descent whose width underflows is still truncated: the close is
        # reported by the descent, not read off a zero product.
        Q = self.UNDERFLOW
        for x in np.random.default_rng(4).random(20):
            d = encode(float(x), Q, 2000)
            assert d == self._reference(float(x), Q, 2000)
            assert d.period is None and walk(d.prefix, Q.beta, Q.q)[1] == 0.0
            _, prod, period = unwalk_into(float(x), Q.beta, Q.q, Q.beta, Q.q, 2000, -1.0)
            assert (prod, period) == (0.0, None)


class TestTwins:
    def test_rewrite_examples(self):
        assert twin_representation(DigitString((2,), (0,), 3)) == DigitString((1,), (2,), 3)
        assert twin_representation(DigitString((0, 1), (0,), 2)) == DigitString((0, 0), (1,), 2)
        # 0 and 1 have unique expansions
        assert twin_representation(DigitString((), (0,), 3)) is None
        assert twin_representation(DigitString((), (2,), 3)) is None

    def test_interior_periods_are_unary(self):
        assert twin_representation(DigitString((), (1,), 3)) is None
        assert twin_representation(DigitString((0,), (1, 2), 3)) is None

    def test_example_pair_decodes_to_quarter(self):
        a = DigitString((0, 1), (0,), 2)
        b = DigitString((0, 0), (1,), 2)
        assert decode(a, Q2) == pytest.approx(0.25, abs=1e-15)
        assert decode(b, Q2) == pytest.approx(0.25, abs=1e-15)

    @given(Q=weight_vectors(), data=st.data())
    def test_twin_pair_decodes_equal(self, Q, data):
        d = data.draw(terminating_strings(Q.s))
        t = twin_representation(d)
        assert t is not None
        assert abs(decode(d, Q) - decode(t, Q)) <= 1e-12
        # the rewrite is an involution
        assert twin_representation(t) == d


class TestCheckedPath:
    """Strings the library builds skip the digit checks, yet equal what ``DigitString`` builds.

    Each check compares a library-built string, field for field and type for
    type, with the public constructor on the digits it was built from.
    """

    @staticmethod
    def _same(d, prefix, period):
        ref = DigitString(prefix, period, d.s)
        got, want = (d.prefix, d.period, d.s), (ref.prefix, ref.period, ref.s)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    @given(pick=st.just("short") | st.integers(0, 2**32 - 1), data=st.data())
    def test_encode(self, pick, data):
        rng = np.random.default_rng(pick if isinstance(pick, int) else 0)
        system = SHORT_S3 if pick == "short" else random_admissible_system(rng)
        Q = system.Q
        base = data.draw(st.lists(st.integers(0, Q.s - 1), min_size=1, max_size=6))
        left, right, _ = cylinder_bounds(base, Q)
        ends = (left, min(right, 1.0))
        near = tuple(min(max(math.nextafter(e, to), 0.0), 1.0) for e in ends for to in (0.0, 1.0))
        xs = (0.0, 1.0, float(rng.random()), data.draw(st.floats(0.0, 1.0)), *ends, *near)
        for x in xs:
            for n in (1, 7, system.default_depth):
                digits: list[int] = []
                period = unwalk_into(x, Q.beta, Q.q, Q.beta, Q.q, n, -1.0, digits)[2]
                self._same(encode(x, Q, n), digits, period)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_preimage_digits(self, seed, data):
        system, k = random_regime_system(np.random.default_rng(seed))
        delta = system.G.delta[:k]
        y = data.draw(st.sampled_from((0.0, 1.0, *(v for v in delta if v <= 1.0))) | st.floats(0.0, 1.0))
        depth = data.draw(st.sampled_from((1, 7, 64)))
        digits: list[int] = []
        period = unwalk(y, delta, system.G.g, depth, digits)[1]
        self._same(preimage_digits(system, y, depth), digits, period)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_twin_representation(self, seed):
        rng = np.random.default_rng(seed)
        low = random_binary_point(rng, int(rng.integers(2, 7)))
        high = twin_representation(low)
        self._same(high, low.prefix[:-1] + (low.prefix[-1] - 1,), (low.s - 1,))
        self._same(twin_representation(high), high.prefix[:-1] + (high.prefix[-1] + 1,), (0,))

    @given(drawn=any_strings())
    def test_prepend_every_digit(self, drawn):
        d = drawn[0]
        for digit in range(d.s):
            self._same(d.prepend(digit), (digit, *d.prefix), d.period)

    @given(system=st.sampled_from((CANTOR_MAX, LEVEL_SETS, SHORT_S3)), data=st.data())
    def test_level_witness(self, system, data):
        V = data.draw(st.sets(st.integers(0, system.s - 1), min_size=1))
        zeros = data.draw(st.integers(0, 4))
        self._same(level_witness(system, V, zeros), (0,) * zeros, tuple(sorted(V)))

    def test_prepend_checks_its_digit(self):
        d = DigitString((1,), (0, 2), 3)
        with pytest.raises(InvalidDigit, match="^a digit must be an integer: "):
            d.prepend(1.5)
        for bad in (-1, 3):
            with pytest.raises(InvalidDigit, match=f"^digit {bad} outside alphabet of size 3$"):
                d.prepend(bad)


class TestCylinders:
    def test_rank_zero_is_unit_interval(self):
        assert cylinder_bounds((), Q4) == (0.0, 1.0, 1.0)

    def test_non_integral_base_rejected(self):
        with pytest.raises(InvalidDigit):
            cylinder_bounds((1.9,), Q4)
        with pytest.raises(InvalidDigit):
            cylinder_bounds((4,), Q4)
        assert cylinder_bounds((np.int64(1), True), Q4) == cylinder_bounds((1, 1), Q4)

    def test_half_split(self):
        assert cylinder_bounds((1,), Q2) == (0.5, 1.0, 0.5)

    def test_rank_two(self):
        left, right, length = cylinder_bounds((1, 1), Q4)
        assert left == pytest.approx(0.28, abs=1e-12)
        assert right == pytest.approx(0.44, abs=1e-12)
        assert length == pytest.approx(0.16, abs=1e-12)

    def test_endpoints_match_periodic_decodes(self):
        base = (2, 0, 1)
        left, right, _ = cylinder_bounds(base, Q4)
        assert decode(DigitString(base, (0,), 4), Q4) == pytest.approx(left, abs=1e-14)
        assert decode(DigitString(base, (3,), 4), Q4) == pytest.approx(right, abs=1e-14)

    @given(Q=weight_vectors(), data=st.data())
    def test_children_tile_parent(self, Q, data):
        base = tuple(data.draw(st.lists(st.integers(0, Q.s - 1), max_size=5)))
        left, right, length = cylinder_bounds(base, Q)
        child = [cylinder_bounds(base + (t,), Q) for t in range(Q.s)]
        assert child[0][0] == pytest.approx(left, abs=1e-12)
        assert child[-1][1] == pytest.approx(right, abs=1e-12)
        for t in range(Q.s - 1):
            assert child[t][1] == pytest.approx(child[t + 1][0], abs=1e-12)
        for lo, hi, ln in child:
            assert left - 1e-12 <= lo <= hi <= right + 1e-12
        assert math.fsum(c[2] for c in child) == pytest.approx(length, rel=1e-12)


class TestFrequencies:
    def test_alternating_period(self):
        f = digit_frequencies(DigitString((), (0, 1), 2))
        assert f.exact and f.nu == (0.5, 0.5)

    def test_constant_period(self):
        f = digit_frequencies(DigitString((), (2,), 3))
        assert f.exact and f.nu == (0.0, 0.0, 1.0)

    def test_finite_count(self):
        f = digit_frequencies(DigitString((0, 0, 1), None, 3), 3)
        assert not f.exact
        assert f.nu == (2 / 3, 1 / 3, 0.0)

    def test_period_multiples_match_exact_bit_for_bit(self):
        d = DigitString((), (0, 2, 2, 1), 3)
        exact = digit_frequencies(d)
        for k in (1, 2, 5, 9):
            assert digit_frequencies(d, 4 * k).nu == exact.nu

    def test_truncated_needs_enough_digits(self):
        with pytest.raises(InsufficientDepth):
            digit_frequencies(DigitString((0, 1), None, 2), 5)
        with pytest.raises(InsufficientDepth):
            digit_frequencies(DigitString((0, 1), None, 2))


class TestDigitReaders:
    # 24 digits cover a prefix of at most 6 digits and every phase of a period
    # of at most 4, for every head of up to 12 digits.
    @given(drawn=any_strings())
    def test_readers_match_expanded_reference(self, drawn):
        d, prefix, period = drawn
        ref = prefix if period is None else (prefix + period * 24)[:24]

        if period is None:
            with pytest.raises(InsufficientDepth):
                digit_frequencies(d)
        else:
            nu = tuple(period.count(j) / len(period) for j in range(d.s))
            assert digit_frequencies(d).nu == nu

        for n in range(13):
            if n <= len(ref):
                assert d.head(n) == ref[:n]
            else:
                with pytest.raises(InsufficientDepth):
                    d.head(n)
                with pytest.raises(InsufficientDepth):
                    digit_frequencies(d, n)
            if 1 <= n <= len(ref):
                nu = tuple(ref[:n].count(j) / n for j in range(d.s))
                assert digit_frequencies(d, n).nu == nu
