"""Local and global Hölder exponents, analytic and empirical.

All analytic exponents are ratios of logarithms of the vertical ratios to
logarithms of the partition weights, read off ``SelfAffineSystem.logs``
(taken once per system):

* global:            min_i ln|g_i| / ln q_i
* at digit frequencies nu (points with two-sided approach, nu_0, nu_{s-1} < 1):
                     sum_i nu_i ln|g_i| / sum_i nu_i ln q_i
  computed by one kernel, ``_frequency_formula``, for every nu: the unary
  exponent, the a.e. exponent (nu = q) and the singularity predicate
* at twin (two-expansion) points:
                     min(ln|g_0| / ln q_0, ln|g_{s-1}| / ln q_{s-1})

The empirical estimator regresses log cylinder oscillation against log
cylinder width along the digits of a point; oscillation and width factor
through shared prefixes, so the estimator is deterministic and reproduces
the frequency formula exactly on periodic strings at period multiples.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Iterable

from .codec import DigitString, FrequencyVector, Frozen, check_count
from .errors import (
    AlphabetMismatch,
    HypothesisViolated,
    ValidationError,
)
from .selfaffine import SelfAffineSystem

#: Every analytic certificate is one-sided at its own exponent: the condition
#: holds for all smaller exponents and fails for all larger ones, while
#: behaviour exactly at the reported value is not determined here.
AT_EXPONENT_NOTE = "certified below the exponent; behaviour exactly at it is undetermined"


class HolderReport(Frozen):
    """An exponent and the kind of point it holds at."""

    _fields = ("exponent", "kind", "frequencies_used", "regression_points", "note")

    def __init__(
        self,
        exponent: float,
        kind: str,  # global | local_unary | local_binary | almost_everywhere | empirical
        frequencies_used: FrequencyVector | None = None,
        regression_points: int | None = None,
        note: str = AT_EXPONENT_NOTE,
    ) -> None:
        if kind not in {"global", "local_unary", "local_binary", "almost_everywhere", "empirical"}:
            raise ValidationError(f"unknown report kind {kind!r}")
        if not exponent >= 0.0:
            raise ValidationError(f"exponent must be non-negative; got {exponent!r}")
        if regression_points is not None:
            regression_points = check_count(regression_points, "regression point count", 1)
        self.__dict__.update(
            exponent=exponent,
            kind=kind,
            frequencies_used=frequencies_used,
            regression_points=regression_points,
            note=note,
        )


def global_exponent(system: SelfAffineSystem) -> HolderReport:
    """Hölder exponent of f on all of [0, 1]: the worst single-digit quotient."""
    return HolderReport(exponent=_global_value(system), kind="global")


def _global_value(system: SelfAffineSystem) -> float:
    log_q, log_g = system.logs
    return min(map(operator.truediv, log_g, log_q))


def local_exponent_unary(system: SelfAffineSystem, nu: FrequencyVector) -> HolderReport:
    """Exponent at a uniquely-represented point with digit frequencies ``nu``.

    Requires nu_0 < 1 and nu_{s-1} < 1: a point whose digits are eventually
    all-low or all-high approaches the boundary of every cylinder it lies in
    and the frequency formula does not apply.
    """
    if nu.s != system.s:
        raise AlphabetMismatch(
            f"frequency vector of length {nu.s} used with alphabet {system.s}"
        )
    if nu.nu[0] >= 1.0 or nu.nu[-1] >= 1.0:
        raise HypothesisViolated(
            "frequency formula requires nu_0 < 1 and nu_{s-1} < 1"
        )
    exponent = _frequency_formula(system, nu.nu)[0]
    return HolderReport(exponent=exponent, kind="local_unary", frequencies_used=nu)


def _frequency_formula(system: SelfAffineSystem, nu: tuple[float, ...]) -> tuple[float, bool]:
    """The frequency formula at ``nu``, and whether its numerator is below its denominator.

    The sums are ``sum nu_i ln|g_i|`` and ``sum nu_i ln q_i``; the exponent is
    their quotient, and the flag says it exceeds 1.  Every log is finite and
    negative (validation keeps q_i and |g_i| in (0, 1)), so a zero frequency
    adds a signed zero, which leaves each correctly rounded sum as it is.
    """
    log_q, log_g = system.logs
    num, den = math.fsum(map(operator.mul, nu, log_g)), math.fsum(map(operator.mul, nu, log_q))
    return num / den, num < den


def almost_everywhere_exponent(system: SelfAffineSystem) -> HolderReport:
    """Exponent at Lebesgue-typical points: digit frequencies equal the weights.

    The weights always meet ``local_exponent_unary``'s hypotheses; both read
    ``_frequency_formula``, here at nu = q.  ``cli.build_analysis`` reads the
    exponent there with the singularity predicate, and builds no report.
    """
    exponent = _frequency_formula(system, system.Q.q)[0]
    nu = FrequencyVector(system.Q.q, n=0, exact=True)
    return HolderReport(exponent=exponent, kind="almost_everywhere", frequencies_used=nu)


def local_exponent_binary(system: SelfAffineSystem) -> HolderReport:
    """Exponent at every twin (two-expansion) point: min of the two boundary quotients."""
    return HolderReport(exponent=_binary_value(system), kind="local_binary")


def _binary_value(system: SelfAffineSystem) -> float:
    log_q, log_g = system.logs
    return min(log_g[0] / log_q[0], log_g[-1] / log_q[-1])


def empirical_exponent(
    system: SelfAffineSystem, d: DigitString, ranks: Iterable[int]
) -> HolderReport:
    """Least-squares slope of log oscillation against log width along ``d``.

    For each requested rank n the cylinder of the first n digits has width
    ``prod q`` and oscillation ``prod |g|``; both are accumulated in log
    space (deep products underflow doubles long before the sums misbehave).
    A single requested rank returns the direct ratio, anchored at the empty
    cylinder whose logs are (0, 0).
    """
    rank_list = sorted({check_count(r, "rank", 1) for r in ranks})
    if not rank_list:
        raise ValidationError("ranks must be a non-empty collection of integers >= 1")
    digits = d.head(rank_list[-1])  # InsufficientDepth for short truncated input
    log_q, log_g = system.logs
    sums_w = list(accumulate(map(log_q.__getitem__, digits)))
    sums_o = list(accumulate(map(log_g.__getitem__, digits)))
    log_w = [sums_w[n - 1] for n in rank_list]
    log_o = [sums_o[n - 1] for n in rank_list]
    if len(rank_list) == 1:
        slope = log_o[0] / log_w[0]
    else:
        # Imported here: only the regression needs statistics, which is slow to import.
        from statistics import linear_regression

        slope = linear_regression(log_w, log_o).slope
    return HolderReport(
        exponent=slope,
        kind="empirical",
        regression_points=len(rank_list),
        note="ordinary least squares over the requested ranks, no outlier rejection",
    )


def singularity_predicate(system: SelfAffineSystem) -> bool:
    """True when f is singular: zero derivative at Lebesgue-almost every point.

    Sufficient criterion: the typical-point exponent exceeds 1, i.e.
    sum q_i ln|g_i| < sum q_i ln q_i (the flag of ``_frequency_formula`` at
    nu = q).
    """
    return _frequency_formula(system, system.Q.q)[1]


def nowhere_differentiable_predicate(system: SelfAffineSystem) -> bool:
    """True when |g_i| > q_i for every digit (a sufficient condition only)."""
    return all(map(operator.lt, system.Q.q, map(abs, system.G.g)))
