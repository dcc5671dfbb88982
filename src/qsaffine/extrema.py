"""Closed-form extrema, level sets, digit-restricted Cantor sets, preimages.

The closed forms of this module hold in one distinguished regime: exactly
one vertical ratio ``g_k`` is negative and its cumulative offset ``delta_k``
exceeds 1 (all other ratios positive).  There the function is nowhere
monotonic, its maximum is ``M = max_i delta_i / (1 - g_i)``, its minimum is
``min(0, delta_k + g_k M)``, and the set of maximum points is the set of all
points whose digits stay inside ``V(M) = {i : delta_i / (1 - g_i) = M}`` — a
point, or a Cantor-type set whose Hausdorff dimension solves the Moran
equation ``sum_{i in V} q_i^x = 1``.

Each system's regime digit k, quotients, M, V(M) and m are decided once, in
the record of ``_closed_forms``.  Every closed form this module returns is
cross-checked by ``_in_regime`` against the policy-iteration bounds solver
of ``selfaffine``; a disagreement raises ``CertificationError`` rather than
returning silently.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .codec import (
    DigitString, Frozen, StochasticVector, check_count, check_digits, twin_representation, unwalk,
)
from .errors import (
    CertificationError,
    ConditionsNotMet,
    InvalidDigit,
    PreconditionViolated,
    ValidationError,
)
from .selfaffine import EPS, SelfAffineSystem, evaluate

#: Membership tolerance for "delta_i / (1 - g_i) equals y": parameters are
#: user-supplied rationals stored in doubles, so exact equality is
#: unattainable while genuine coincidences sit many orders below this.
LEVEL_TOL = 1e-10

ORACLE_TOL = 1e-10
MORAN_XTOL = 1e-14
#: The first bisection level N of ``moran_dimension`` whose brackets, ``2**-N`` wide, are
#: within ``MORAN_XTOL``: from there on every midpoint is summed (47 for 1e-14).
_SUMMED_LEVEL = 1 - math.frexp(MORAN_XTOL)[1]
#: Largest Moran residual ``|sum_{i in V} q_i^x - 1|`` a returned dimension may leave.
MORAN_RESIDUAL = 1e-12
#: Most intervals ``cantor_construction`` keeps over all its stages, at about 155 bytes each.
CANTOR_INTERVAL_CAP = 2**20
#: Default digit depth of preimage witnesses (``qsaffine preimage``, ``analyze``).
PREIMAGE_DEPTH = 64


class LevelSetDescriptor(NamedTuple):
    """Digits whose fixed-point value equals ``y``, and what that certifies.

    The digit-restricted set over ``V`` is always a subset of the full level
    set f^{-1}(y) (equality is only certified at y = M); ``continuum`` records
    whether that subset alone already has the cardinality of the continuum.
    """

    y: float
    V: frozenset[int]

    @property
    def continuum(self) -> bool:
        return len(self.V) >= 2


class CantorSpec(Frozen):
    """A digit-restricted set: points of [0, 1] using only ``allowed`` digits.

    ``dimension`` is its Hausdorff dimension ``moran_dimension(Q, allowed)``.
    A Moran residual above ``MORAN_RESIDUAL`` is a library fault: ``CertificationError``.
    """

    _fields = ("Q", "allowed", "dimension")

    def __init__(self, Q: StochasticVector, allowed) -> None:
        allowed = _digit_set(allowed, Q.s)
        dimension = _moran_root(Q, allowed)
        residual = abs(math.fsum(Q.q[i] ** dimension for i in allowed) - 1.0)
        if residual > MORAN_RESIDUAL:
            raise CertificationError(
                f"dimension {dimension!r} does not solve the Moran equation (residual {residual:.3e})"
            )
        self.__dict__.update(Q=Q, allowed=allowed, dimension=dimension)

    @property
    def singleton(self) -> bool:
        return len(self.allowed) == 1


class NonInvarianceReport(NamedTuple):
    """Proof, or its failure, that f maps a thin set onto a set containing [0, 1].

    ``dimension`` (< 1) is the Hausdorff dimension of the digit-restricted
    set over ``restricted_digits`` = {0, ..., k-1}.  ``covering_proved`` says
    whether the maps ``y -> delta_a + g_a y`` of those digits, on the stored
    doubles, cover ``[0, L]`` with ``L = delta_{k-1} / (1 - g_{k-1}) >= 1``,
    decided exactly; ``covering_margin`` is ``L - 1`` rounded once.  When it
    holds, every y in [0, L] has a preimage inside the set (Hutchinson
    1981), so a set of dimension < 1 (hence Lebesgue-null and nowhere dense)
    covers a full interval under f.  ``max_residual`` is the residual of one
    preimage witness of y = 1, ``depth`` digits deep, within
    ``residual_bound``.
    """

    dimension: float
    restricted_digits: frozenset[int]
    covering_proved: bool
    covering_margin: float
    depth: int
    residual_bound: float
    max_residual: float


def _digit_set(allowed, s: int) -> frozenset[int]:
    """``allowed`` as a non-empty set of digits that pass ``codec.check_digits``."""
    try:
        V = frozenset(check_digits(allowed, s))
    except InvalidDigit as exc:
        raise ValidationError(f"allowed digits: {exc}") from None
    if not V:
        raise ValidationError("allowed digit set must be non-empty")
    return V


def moran_dimension(Q: StochasticVector, allowed) -> float:
    """Root of ``sum_{i in allowed} q_i^x = 1`` on [0, 1], by bisection.

    The left side is strictly decreasing in x, equals |allowed| at x = 0 and
    the plain weight sum at x = 1, so for a proper non-singleton subset the
    bracket is always valid.  Bisection runs to ``MORAN_XTOL``, then on while
    the Moran residual exceeds ``MORAN_RESIDUAL``: by a weight of 5e-324 the
    slope is about 745, and 1e-14 in x alone leaves 2.4e-12.  Returns exactly
    1.0 for the full alphabet, 0.0 for a singleton, else a root in (0, 1).

    While the bracket is wider than ``MORAN_XTOL``, a midpoint outside the
    certified window ``lo_c < root < hi_c`` of ``_moran_window`` takes its
    branch without being summed.  Every midpoint inside the window, and
    every one once the bracket is within ``MORAN_XTOL``, is summed as plain
    bisection sums it.  Assuming ``pow`` is within 1 ulp, the skipped
    branches are the ones their sums would take, so the root is bit for bit
    that of summing every midpoint, from about a quarter of the sums.

    The halvings before the first summed midpoint are one integer step.  In
    units of ``2**-n``, n = ``_SUMMED_LEVEL``, let ``alpha = floor(lo_c)``
    and ``beta = ceil(hi_c)``, clamped to ``[0, 2**n - 1]`` and ``[1, 2**n]``.
    The midpoint of a bracket coarser than level n is an integer; it is
    skipped upwards when it is at most alpha and downwards when it is at
    least beta, so the halvings keep ``lo <= alpha < beta <= hi`` and stop
    at the first bracket whose midpoint lies strictly between.  That
    bracket is the dyadic interval of ``2**b`` units around alpha, b the bit
    length of ``alpha ^ (beta - 1)``: alpha and ``beta - 1`` differ first
    in bit b - 1, so its midpoint is above alpha and at most ``beta - 1``,
    while every coarser midpoint is at most alpha or at least beta.  With
    b = 0 it is the level-n bracket at alpha.
    """
    return _moran_root(Q, _digit_set(allowed, Q.s))


def _moran_root(Q: StochasticVector, V) -> float:
    """``moran_dimension`` of the digits ``V``, already checked: non-empty, distinct, below ``Q.s``."""
    if len(V) == Q.s:
        return 1.0
    if len(V) == 1:
        return 0.0
    weights = [Q.q[i] for i in sorted(V)]
    lo_c, hi_c = _moran_window(weights)
    # The halvings before the first summed midpoint, in one step (see moran_dimension).
    n = _SUMMED_LEVEL
    alpha = min(max(math.floor(math.ldexp(lo_c, n)), 0), (1 << n) - 1)
    beta = min(max(math.ceil(math.ldexp(hi_c, n)), 1), 1 << n)
    width = (alpha ^ (beta - 1)).bit_length()  # 0 when beta - 1 == alpha: lo_c < hi_c
    start = alpha >> width
    lo, hi = math.ldexp(start, width - n), math.ldexp(start + 1, width - n)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo > MORAN_XTOL and not lo_c < mid < hi_c:
            h = 1.0 if mid <= lo_c else -1.0  # the sign its sum is certified to have
        else:
            h = math.fsum(map(pow, weights, repeat(mid))) - 1.0
            if (hi - lo <= MORAN_XTOL and abs(h) <= MORAN_RESIDUAL) or not lo < mid < hi:
                return mid
        if h > 0.0:
            lo = mid
        else:
            hi = mid


def _moran_window(weights: list[float]) -> tuple[float, float]:
    """A window ``lo_c < root < hi_c`` around the Moran root, certified by one sum per end.

    Newton runs on ``F = ln(sum of the other w^x) - ln(1 - w_t^x)``, w_t the
    largest weight, which stays near linear where w_t near 1 dominates the
    sum.  F is convex and decreasing with the Moran root as its root, and the
    start ``ln n / -mean(ln w)`` is below the root by Jensen's inequality, so
    in exact arithmetic the iterates rise to the root without passing it.
    Each end of ``root - d, root + d`` is checked with the sum
    ``moran_dimension`` computes: h(lo_c) above the slack ``8 eps``,
    h(hi_c) below minus it.  The terms are positive, so with ``pow``
    within 1 ulp and ``math.fsum`` correctly rounded each computed sum is
    within a relative ``1.5 eps`` of the true one (subnormal terms add at
    most ``n * 2**-1074``), whatever n.  As the true sum is strictly
    decreasing, every x <= lo_c then computes h > 0 and every x >= hi_c
    computes h < 0.  A failing check widens the window x16, three times at
    most.  Where a check keeps failing, or Newton has not settled in 10
    steps, the window is (0, 1): plain bisection.

    ``d`` is about the slack over the slope of the sum at the root, whose
    size is at least ``-ln w_t``.  When that bound leaves d above 2**-16
    (w_t above 1 - 1.5e-10), the window could skip fewer midpoints than
    Newton spends sums, so no sum is spent on it: plain bisection at once.
    """
    n = len(weights)
    slack = 8.0 * EPS
    w_t = max(weights)
    if 1.25 * slack / -math.log(w_t) > 2.0**-16:
        return 0.0, 1.0
    logs = list(map(math.log, weights))
    top = weights.index(w_t)
    x = n * math.log(n) / -math.fsum(logs)
    for _ in range(10):
        terms = list(map(pow, weights, repeat(x)))
        w_x, terms[top] = terms[top], 0.0
        rest = math.fsum(terms)
        rest_slope = math.fsum(map(mul, terms, logs))
        gap = -math.expm1(x * logs[top])  # 1 - w_t^x, positive: -ln w_t and x are far above 0
        slope = rest_slope + w_x * logs[top]
        step = (math.log(rest) - math.log(gap)) / (rest_slope / rest + w_x * logs[top] / gap)
        last, x = x, min(max(x - step, 0.0), 1.0)
        if abs(step) <= 2**-26 or x == last:  # quadratic convergence, or a step x cannot take
            break
    else:
        return 0.0, 1.0  # Newton has not settled: no sum spent on certifying
    d = 1.25 * slack / -slope + 4.0 * EPS * x  # the slack over the slope, plus a few ulps of x
    for _ in range(4):
        lo_c, hi_c = x - d, x + d
        if (lo_c <= 0.0 or math.fsum(map(pow, weights, repeat(lo_c))) - 1.0 > slack) and (
            hi_c >= 1.0 or math.fsum(map(pow, weights, repeat(hi_c))) - 1.0 < -slack
        ):
            return lo_c, hi_c
        d *= 16.0
    return 0.0, 1.0


def closed_form_regime(system: SelfAffineSystem) -> int | None:
    """The distinguished negative digit ``k``, when the closed forms apply.

    Returns k when exactly one ratio is negative, all others are positive,
    and ``delta_k > 1``; returns None otherwise.  A returned k is at least
    2: ``running_sums`` makes ``delta_0 = 0.0`` and ``delta_1 = g_0``
    exactly, and validation keeps ``|g_0| < 1``.  Read from the record of
    ``_closed_forms``, which decides it.
    """
    return _closed_forms(system).k


class _ClosedForms(NamedTuple):
    """The decision record of ``_closed_forms``; ``M``, ``V`` and ``m`` are None outside the regime."""

    quotients: tuple[float, ...]
    k: int | None
    M: float | None
    V: frozenset[int] | None
    m: float | None


def _closed_forms(system: SelfAffineSystem) -> _ClosedForms:
    """The one decision record of a system: k, the quotients and, in the regime, M, V(M) and m.

    The quotients are ``delta_i / (1 - g_i)``; k is decided as
    ``closed_form_regime`` says; ``M = max`` of the quotients, V(M) is
    ``level_set(system, M).V`` from the same quotients, and ``m = min(0,
    delta_k + g_k M)``.  Built on first use and kept in the system's
    ``__dict__``, as ``bounds`` is, so it takes no part in equality; every
    function of this module and ``cli.build_analysis`` reads it from here.
    It needs no bounds solver and never raises: ``_in_regime``
    cross-checks the regime values for the functions that return them.
    """
    forms = system.__dict__.get("_closed_forms")
    if forms is None:
        g, delta = system.G.g, system.G.delta
        quotients = tuple([d / (1.0 - v) for d, v in zip(delta, g)])
        negatives = [i for i, v in enumerate(g) if v < 0.0]
        k = negatives[0] if len(negatives) == 1 and delta[negatives[0]] > 1.0 else None
        M = V = m = None
        if k is not None:
            M = max(quotients)
            V = frozenset(i for i, y in enumerate(quotients) if abs(y - M) <= LEVEL_TOL)
            m = min(0.0, delta[k] + g[k] * M)
        forms = system.__dict__["_closed_forms"] = _ClosedForms(quotients, k, M, V, m)
    return forms


def _in_regime(system: SelfAffineSystem, checked: bool = True) -> _ClosedForms:
    """The record of a system in the regime; ``ConditionsNotMet`` outside it.

    With ``checked`` (``closed_form_max``, ``closed_form_min`` and
    ``maxima_set``) its values are cross-checked first, on every call: M
    against the bounds solver, then ``0, k not in V``, then ``|m| < M`` and
    m against the bounds solver.  A failing check raises
    ``CertificationError``.  The preimage functions and the certificate read
    only k, unchecked.
    """
    _, k, M, V, m = forms = _closed_forms(system)
    if k is None:
        raise ConditionsNotMet(
            "closed forms need exactly one negative ratio with cumulative offset above 1"
        )
    if not checked:
        return forms
    oracle = system.bounds
    if abs(M - oracle.M) > ORACLE_TOL:
        raise CertificationError(f"closed-form maximum {M!r} disagrees with oracle {oracle.M!r}")
    if 0 in V or k in V:
        raise CertificationError(f"digits 0 and {k} cannot be maximum digits; got V = {set(V)}")
    if not abs(m) < M:
        raise CertificationError(f"|m| < M violated: m = {m!r}, M = {M!r}")
    if abs(m - oracle.m) > ORACLE_TOL:
        raise CertificationError(f"closed-form minimum {m!r} disagrees with oracle {oracle.m!r}")
    return forms


def closed_form_max(system: SelfAffineSystem) -> tuple[float, frozenset[int]]:
    """Maximum ``M = max_i delta_i / (1 - g_i)`` and its digit set V(M).

    Read through ``_in_regime``, which cross-checks them against the bounds
    solver and asserts that neither 0 nor the negative digit k belongs to
    V(M) (their quotients are 0 and a value below delta_k respectively).
    """
    forms = _in_regime(system)
    return forms.M, forms.V


def closed_form_min(system: SelfAffineSystem) -> float:
    """Minimum ``m = min(0, delta_k + g_k M)``, read through ``_in_regime``.

    That reader asserts |m| < M and checks m against the bounds solver.
    """
    return _in_regime(system).m


def _check_tolerance(tol: float) -> None:
    """The level tolerance check of ``level_set`` and ``cli.build_analysis``."""
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"level tolerance must be finite and non-negative; got {tol!r}")


def level_set(system: SelfAffineSystem, y: float, tol: float = LEVEL_TOL) -> LevelSetDescriptor:
    """Digits i with ``delta_i / (1 - g_i) = y`` within ``tol``.

    Any point using only these digits evaluates to exactly y (the deviation
    telescopes through the shrinking products), so with two or more such
    digits the level set has the cardinality of the continuum.
    """
    _check_tolerance(tol)
    if not math.isfinite(y):
        raise ValidationError(f"level value must be finite; got {y!r}")
    quotients = _closed_forms(system).quotients
    V = frozenset(i for i, v in enumerate(quotients) if abs(v - y) <= tol)
    return LevelSetDescriptor(y=float(y), V=V)


def _level_rows(quotients: tuple[float, ...], tol: float) -> list[tuple[float, list[int]]]:
    """``(y, digits)`` per level by ascending y: the digits of ``level_set`` at y that no
    earlier level holds, from one walk over the digits sorted by quotient.

    The sort is stable, so it keeps the order of the ``(quotient, digit)``
    pairs.  A level starts at the first unplaced value y, so every lower
    value is placed, and takes each next digit while ``v - y <= tol``:
    ``fl(v - y)`` never falls as v grows, so it takes every unplaced i with
    ``|quotients[i] - y| <= tol``.
    """
    rows: list[tuple[float, list[int]]] = []
    for i in sorted(range(len(quotients)), key=quotients.__getitem__):
        v = quotients[i]
        if rows and v - rows[-1][0] <= tol:
            rows[-1][1].append(i)
        else:
            rows.append((v, [i]))
    for _, digits in rows:
        if len(digits) > 1:
            digits.sort()
    return rows


def level_witness(system: SelfAffineSystem, V, leading_zeros: int = 0) -> DigitString:
    """A point of the (shifted) level set: ``leading_zeros`` zeros, then V cycling."""
    zeros = check_count(leading_zeros, "leading zero count", 0)
    period = tuple(sorted(set(check_digits(V, system.s))))
    if not period:
        raise ValidationError("witness needs a non-empty digit set")
    return DigitString._from_checked((0,) * zeros, period, system.s)


def derived_levels(
    system: SelfAffineSystem, y: float, count: int, tol: float = LEVEL_TOL
) -> list[float]:
    """The cascade ``y_n = g_0^n y`` of further continuum levels.

    Prepending n zeros to any digit string over V(y) scales its value by
    g_0^n, so each y_n inherits a continuum of preimages.  Every returned
    level is certified by evaluating such a witness to within ``tol``.
    """
    count = check_count(count, "level count", 0)
    desc = level_set(system, y, tol)
    if not desc.continuum:
        raise PreconditionViolated(
            f"level {y!r} has |V| = {len(desc.V)}; a continuum level is required"
        )
    if not system.G.g[0] > 0.0:
        raise PreconditionViolated("the zero-digit ratio must be positive")
    g0 = system.G.g[0]
    levels: list[float] = []
    for n in range(1, count + 1):
        yn = g0**n * y
        witness = level_witness(system, desc.V, leading_zeros=n)
        got = evaluate(system, witness).value
        if abs(got - yn) > tol:
            raise CertificationError(
                f"witness for derived level {yn!r} evaluated to {got!r}"
            )
        levels.append(yn)
    return levels


def maxima_set(system: SelfAffineSystem) -> CantorSpec:
    """The set of maximum points as a digit-restricted set with its dimension.

    V(M) is read through ``_in_regime``, as ``closed_form_max`` reads it;
    ``CantorSpec`` works out the Moran dimension of V(M).  A singleton
    V(M) = {i} means a unique maximum point, the fixed point of the digit-i
    map, and dimension 0 (``CantorSpec.singleton`` is then set).
    """
    return CantorSpec(system.Q, _in_regime(system).V)


def cantor_construction(
    spec: CantorSpec, steps: int, merged: bool = False
) -> list[list[tuple[float, float]]]:
    """Stagewise geometric construction of the digit-restricted set.

    Stage t lists the closures of all rank-t cylinders whose base digits stay
    in ``allowed``, sorted by left endpoint: |allowed|^t intervals of total
    length ``(sum_allowed q)^t`` (so the set itself is Lebesgue-null for a
    proper subset).  ``merged=True`` joins touching intervals, which is the
    usual way the stages are drawn.  Steps that need more than ``CANTOR_INTERVAL_CAP``
    intervals in all (20 for two digits) raise ``ValidationError`` before any is built.
    """
    steps = check_count(steps, "construction step count", 1)
    V = sorted(spec.allowed)
    total, stage = 0, 1
    for _ in range(steps):
        stage *= len(V)
        total += stage
        if total > CANTOR_INTERVAL_CAP:
            raise ValidationError(
                f"{steps} construction steps need more than {CANTOR_INTERVAL_CAP} intervals"
            )
    beta, q = spec.Q.beta, spec.Q.q
    stages: list[list[tuple[float, float]]] = []
    layer: list[tuple[float, float]] = [(0.0, 1.0)]  # (left, width product)
    for _ in range(steps):
        layer = [(left + p * beta[i], p * q[i]) for left, p in layer for i in V]
        intervals = [(left, left + p) for left, p in layer]
        if merged:
            joined: list[tuple[float, float]] = []
            for lo, hi in intervals:
                if joined and lo - joined[-1][1] <= 1e-12:
                    joined[-1] = (joined[-1][0], hi)
                else:
                    joined.append((lo, hi))
            stages.append(joined)
        else:
            stages.append(intervals)
    return stages


def membership(spec: CantorSpec, d: DigitString) -> bool:
    """Whether the point with digits ``d`` lies in the digit-restricted set.

    Twin points belong as soon as either of their two expansions qualifies.
    """
    if d.period is None:
        raise PreconditionViolated("membership needs an exact (periodic) digit string")

    def ok(t: DigitString) -> bool:
        return all(dig in spec.allowed for dig in (*t.prefix, *t.period))

    if ok(d):
        return True
    twin = twin_representation(d)
    return twin is not None and ok(twin)


def preimage_residual_bound(system: SelfAffineSystem, depth: int) -> float:
    """Guaranteed witness accuracy: truncation plus the rounding of the witness sum.

    With ``g_* = max(g[:k])`` the witness truncates f within
    ``(M - m) * g_*^depth``.  Its evaluated digit sum rounds by at most
    ``8 * eps * max(1, max|delta|) / (1 - g_*)^2`` (the j-th term carries a
    relative error of about ``j * eps``), so an exact witness passes even
    where the truncation term falls below double rounding.  The depth is
    checked first, then the regime; k is read from the record of
    ``_closed_forms``, unchecked.
    """
    depth = check_count(depth, "depth", 1)
    k = _in_regime(system, checked=False).k
    g_star = max(system.G.g[:k])
    scale = max(1.0, max(map(abs, system.G.delta)))
    rounding = 8.0 * EPS * scale / (1.0 - g_star) ** 2
    return system.bounds.span * g_star**depth + rounding


def preimage_digits(system: SelfAffineSystem, y: float, depth: int) -> DigitString:
    """Greedy digit construction of a preimage of ``y`` using only digits < k.

    The offsets delta_0, ..., delta_k climb from 0 past 1, so every residue
    lands in some bracket [delta_a, delta_{a+1}] with a < k; dividing out the
    (positive) ratio g_a renormalizes the residue into [0, 1] and the walk
    repeats (``codec.unwalk`` over the first k offsets, never closing at 1).
    Ties at a bracket boundary take the larger digit.  The value of the
    returned string is within ``preimage_residual_bound(system, depth)`` of
    y, and all its digits stay below k.  ``unwalk`` composes that value in
    the same descent; ``non_invariance_certificate`` reads it from there.
    """
    k = _in_regime(system, checked=False).k
    digits: list[int] = []
    period = unwalk(y, system.G.delta[:k], system.G.g, depth, digits)[1]
    return DigitString._from_checked(tuple(digits), period, system.s)


def _covering(system: SelfAffineSystem, k: int) -> tuple[bool, float]:
    """Whether the digit maps below k cover ``[0, L]``, decided exactly; and ``L - 1``.

    The map of digit a sends ``[0, L]`` onto ``[delta_a, delta_a + g_a L]``
    (``g_a > 0`` below k, so the ``delta_a`` ascend from 0), and the map of
    k-1 ends at its fixed point ``L = T / c``, with ``T = delta_{k-1}`` and
    ``c = 1 - g_{k-1}``.  The regime gives ``L > 1``: ``running_sums``
    stores ``delta_k = fl(T + g_{k-1}) > 1`` and rounding is monotone, so
    ``T + g_{k-1} > 1``.  So the images cover ``[0, L]`` when every seam
    a < k-1 closes: ``delta_a + g_a L >= delta_{a+1}``.  ``L - 1 = (T - c) /
    c``, rounded once, comes from the exact ratios of the doubles T and
    ``g_{k-1}``.

    With ``e_a = delta_a + g_a - delta_{a+1}`` the seam's overlap is
    ``g_a (L - 1) + e_a``.  ``running_sums`` also stores ``delta_{a+1} =
    fl(delta_a + g_a)``, so e_a is that sum's rounding error, which TwoSum
    (Knuth, TAOCP vol. 2, §4.2.2) gives exactly in floats.  A seam with
    ``e_a >= 0`` closes.  One whose offset rounded up, ``e_a < 0``, closes
    when ``L - 1 >= -e_a / g_a``: both sides are rounded once and rounding
    is monotone, so ``fl(L - 1) > fl(-e_a / g_a)`` proves it.  Only where
    the rounded values tie or tip the other way do ints decide, comparing
    ``g_a (T - c)`` with ``-e_a c`` on the exact ratios.
    """
    g, delta = system.G.g, system.G.delta
    tn, td = delta[k - 1].as_integer_ratio()
    gn, gd = g[k - 1].as_integer_ratio()
    top, c_int = tn * gd, (gd - gn) * td  # T and c, both scaled by gd * td
    margin = (top - c_int) / c_int
    for d0, ga, d1 in zip(delta, g, delta[1:k]):  # the seam of digits a and a + 1
        bv = d1 - d0
        e = (d0 - (d1 - bv)) + (ga - bv)  # d0 + ga - d1 exactly (TwoSum; d1 = fl(d0 + ga))
        if e < 0.0 and margin <= -e / ga:  # both correctly rounded: margin > -e/ga proves the seam closed
            an, ad = ga.as_integer_ratio()
            en, ed = e.as_integer_ratio()
            if an * (top - c_int) * ed < -en * ad * c_int:
                return False, margin
    return True, margin


def non_invariance_certificate(system: SelfAffineSystem, depth: int = PREIMAGE_DEPTH) -> NonInvarianceReport:
    """Prove that a dimension-<1 digit set maps onto a set containing [0, 1].

    Computes the Hausdorff dimension of the digit-restricted set over
    {0, ..., k-1} (asserted < 1) and decides the covering of ``[0, L]`` by
    their digit maps exactly (``_covering``); a covering that fails is
    reported, not raised.  One preimage witness, of y = 1, is checked: its
    first residue stays in [0, 1] only when ``delta_k >= 1``.  Its value is
    composed in the descent that picks its digits (``codec.unwalk``), bit
    for bit ``evaluate(system, preimage_digits(system, 1.0, depth)).value``.
    A residual above ``preimage_residual_bound`` raises ``CertificationError``.
    Like the preimage functions, it reads only k from the record, unchecked.
    """
    k = _in_regime(system, checked=False).k
    depth = check_count(depth, "depth", 1)
    v_star = frozenset(range(k))
    dim = _moran_root(system.Q, v_star)
    if not dim < 1.0:
        raise CertificationError("restricted digit set must have dimension below 1")
    bound = preimage_residual_bound(system, depth)
    proved, margin = _covering(system, k)
    residual = abs(unwalk(1.0, system.G.delta[:k], system.G.g, depth)[0] - 1.0)
    if residual > bound:
        raise CertificationError(f"witness residual {residual!r} exceeds the guaranteed bound {bound!r}")
    return NonInvarianceReport(
        dimension=dim,
        restricted_digits=v_star,
        covering_proved=proved,
        covering_margin=margin,
        depth=depth,
        residual_bound=bound,
        max_residual=residual,
    )
