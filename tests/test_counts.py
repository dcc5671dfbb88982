"""Every count, depth and rank the library reads goes through ``codec.check_count``.

So every such argument takes any integer, numpy integers and bools included,
and gives the same result as for ``int(n)``; a non-integer such as 2.5, or a
value below the argument's least, raises ``ValidationError`` naming it.
"""

import numpy as np
import pytest

from qsaffine import (
    CantorSpec,
    DigitString,
    FrequencyVector,
    HolderReport,
    InvalidDigit,
    SystemConfig,
    ValidationError,
    cantor_construction,
    derived_levels,
    digit_frequencies,
    empirical_exponent,
    encode,
    evaluate_at,
    functional_equation_residual,
    level_witness,
    non_invariance_certificate,
    preimage_digits,
    preimage_residual_bound,
    sample,
    variation_lower_bound,
)
from qsaffine.cli import build_analysis
from qsaffine.extrema import LEVEL_TOL
from helpers import CANTOR_MAX, LEVEL_SETS

STRING = DigitString((1,), (0, 2), 3)
SPEC = CantorSpec(CANTOR_MAX.Q, {1, 2})
CONFIG = SystemConfig(("1/5", "2/5", "1/5", "1/5"), ("2/5", "4/5", "2/5", "-3/5"), "cantor-max")
DIGITS = DigitString((1, 3), (0, 2), 4)

# id: (call with the count n, the name the message gives it, its least value, a valid value)
SITES = {
    "DigitString.s": (lambda n: DigitString((1,), (0,), n), "alphabet size", 2, 3),
    "DigitString.head": (lambda n: STRING.head(n), "digit count", 0, 5),
    "digit_frequencies": (lambda n: digit_frequencies(STRING, n), "frequency prefix length", 1, 5),
    "encode.depth": (lambda n: encode(0.37, CANTOR_MAX.Q, n), "depth", 1, 6),
    "evaluate_at.depth": (lambda n: evaluate_at(CANTOR_MAX, 0.37, n), "depth", 1, 6),
    "preimage_digits.depth": (lambda n: preimage_digits(CANTOR_MAX, 0.37, n), "depth", 1, 6),
    "functional_equation_residual.depth": (
        lambda n: functional_equation_residual(CANTOR_MAX, 2, 0.37, n), "depth", 1, 6,
    ),
    "variation_lower_bound": (lambda n: variation_lower_bound(CANTOR_MAX, n), "rank", 1, 3),
    "sample.points": (lambda n: sample(CANTOR_MAX, n), "point count", 2, 9),
    "sample.depth": (lambda n: sample(CANTOR_MAX, 64, depth=n), "depth", 1, 3),
    "level_witness": (lambda n: level_witness(LEVEL_SETS, {1, 3}, leading_zeros=n), "leading zero count", 0, 2),
    "derived_levels": (lambda n: derived_levels(LEVEL_SETS, 0.625, n), "level count", 0, 2),
    "cantor_construction": (lambda n: cantor_construction(SPEC, n), "construction step count", 1, 3),
    "preimage_residual_bound": (lambda n: preimage_residual_bound(CANTOR_MAX, n), "depth", 1, 6),
    "non_invariance_certificate.depth": (
        lambda n: non_invariance_certificate(CANTOR_MAX, depth=n), "depth", 1, 6,
    ),
    "empirical_exponent.ranks": (lambda n: empirical_exponent(CANTOR_MAX, DIGITS, [n, 4]), "rank", 1, 2),
    "build_analysis.depth": (lambda n: build_analysis(CONFIG, LEVEL_TOL, n), "depth", 1, 6),
    "FrequencyVector.n": (
        lambda n: FrequencyVector((0.5, 0.5), n=n, exact=False), "counted digit count", 0, 4,
    ),
    "HolderReport.regression_points": (
        lambda n: HolderReport(1.0, "empirical", regression_points=n), "regression point count", 1, 3,
    ),
}


def outcome(call, n):
    """What ``call(n)`` gives: its value, or the class and message it raises."""
    try:
        return call(n)
    except ValidationError as exc:
        return ValidationError, str(exc)


@pytest.mark.parametrize("site", SITES)
def test_count_check(site):
    call, what, least, valid = SITES[site]
    with pytest.raises(ValidationError, match=f"^{what} must be an integer; got 2.5$"):
        call(2.5)
    floor = "non-negative" if least == 0 else f"at least {least}"
    with pytest.raises(ValidationError, match=f"^{what} must be {floor}; got {least - 1}$"):
        call(least - 1)
    assert call(np.int64(valid)) == call(valid)
    # True is the integer 1, accepted or rejected as 1 is (the message shows True)
    got, want = outcome(call, True), outcome(call, 1)
    if least > 1:
        assert got[0] is want[0] is ValidationError
    else:
        assert got == want


def test_residual_digit_is_checked_by_prepend():
    # the digit goes through DigitString.prepend, which raises InvalidDigit
    with pytest.raises(InvalidDigit, match="a digit must be an integer"):
        functional_equation_residual(CANTOR_MAX, 1.5, 0.37)
    with pytest.raises(InvalidDigit, match="digit 4 outside alphabet of size 4"):
        functional_equation_residual(CANTOR_MAX, 4, 0.37)
    assert functional_equation_residual(CANTOR_MAX, np.int64(2), 0.37) == functional_equation_residual(CANTOR_MAX, 2, 0.37)
