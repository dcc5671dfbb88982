"""Evaluation of the self-affine function attached to a digit codec.

Pairing the partition weights ``q`` with signed vertical ratios ``g``
(each ``0 < |g_i| < 1``, summing to 1, cumulative offsets ``delta``) defines
the continuous function

    f(a_1 a_2 ...) = delta_{a_1} + sum_{k>=2} delta_{a_k} * prod_{j<k} g_{a_j}

on digit strings, i.e. the unique bounded solution of the affinity system
``f(beta_i + q_i x) = delta_i + g_i f(x)``.  It interpolates f(0)=0, f(1)=1
and, depending on the sign/size pattern of ``g``, is increasing and singular,
nowhere monotonic, or nowhere differentiable.

Evaluation mirrors the codec: periodic tails are summed in closed form
(exact), truncated strings return the partial sum together with a certified
error bound ``(M - m) * prod |g_{a_j}|`` built from the global bounds below.
At a float x, ``evaluate_at`` walks the digits of x only until that bound
reaches ``DEPTH_TARGET`` (at most ``default_depth`` digits).  There the
bound covers the truncation of the digits the float descent produced, not
the digits it loses to rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import NamedTuple

from .codec import (
    EPS, DigitString, Frozen, StochasticVector, cached, check_alphabet, check_count, encode, running_sums,
    string_sum, unwalk_into,
)
from .errors import CertificationError, ValidationError

#: Truncation accuracy target of ``evaluate_at`` and hard cap on ``default_depth``.
DEPTH_TARGET = 1e-12
DEPTH_CAP = 4096
#: Most leaves ``sample`` may hold; skewed weights need far more leaves than points.
SAMPLE_ROW_CAP = 2**21


class AffineCoefficients(Frozen):
    """Signed vertical ratios ``g`` with cumulative offsets ``delta``."""

    _fields = ("g", "delta", "s")

    def __init__(self, g) -> None:
        g, delta = running_sums(g, "g", lambda v: 0.0 < abs(v) < 1.0, "0 < |g| < 1")
        self.__dict__.update(g=g, delta=delta, s=len(g))


class BoundsPair(Frozen):
    """Certified global bounds ``m <= f <= M``.

    ``iterations`` counts the solver's policy steps and ``residual`` bounds
    the distance of ``m`` and ``M`` from the exact fixed point of the hull.
    """

    _fields = ("m", "M", "iterations", "residual")

    def __init__(self, m: float, M: float, iterations: int, residual: float) -> None:
        if not (m <= 1e-12 and M >= 1.0 - 1e-12):
            raise ValidationError(
                f"bounds must bracket the attained values f(0)=0, f(1)=1; got ({m}, {M})"
            )
        self.__dict__.update(m=m, M=M, iterations=iterations, residual=residual)

    @property
    def span(self) -> float:
        return self.M - self.m


class SelfAffineSystem(Frozen):
    """A validated (weights, ratios) pair defining one function.

    ``bounds``, ``logs`` and ``default_depth`` are computed on first use and
    kept under their names in the instance ``__dict__`` by ``codec.cached``,
    as is the decision record of ``extrema._closed_forms`` under that name;
    they take no part in equality, hash or repr.  The cache has no lock: two
    threads racing on a first use may both compute a value, and both store
    the same deterministic value, as with ``functools.cached_property`` on
    Python 3.12 and later.
    """

    _fields = ("Q", "G")

    def __init__(self, Q: StochasticVector, G: AffineCoefficients) -> None:
        if Q.s != G.s:
            raise ValidationError(
                f"weights and ratios disagree on alphabet size: {Q.s} vs {G.s}"
            )
        self.__dict__.update(Q=Q, G=G)

    @classmethod
    def from_values(cls, q, g) -> "SelfAffineSystem":
        return cls(StochasticVector(q), AffineCoefficients(g))

    @property
    def s(self) -> int:
        return self.Q.s

    @cached
    def bounds(self) -> BoundsPair:
        """Certified global bounds ``m <= f <= M``, from ``_fixed_point_bounds``."""
        return _fixed_point_bounds(self)

    @cached
    def logs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(ln q_i, ln|g_i|)`` per digit, taken once for the Hölder exponents."""
        return tuple(map(math.log, self.Q.q)), tuple(map(math.log, map(abs, self.G.g)))

    @cached
    def default_depth(self) -> int:
        """The most digits ``evaluate_at`` walks; ``encode`` and the residual walk this many.

        The smallest digit count with ``(max|g|)^n * (M-m)`` below
        ``DEPTH_TARGET``, so that every digit string meets the target.
        """
        gmax = max(abs(v) for v in self.G.g)
        span = self.bounds.span
        n = math.ceil(math.log(DEPTH_TARGET / span) / math.log(gmax))
        return max(1, min(DEPTH_CAP, n))


class Evaluation(NamedTuple):
    value: float
    error_bound: float


def _policy_value(delta, g, a: int, b: int) -> tuple[float, float]:
    """Fixed point of the hull with arg-max digit ``a`` and arg-min digit ``b``.

    Solves ``M = delta_a + g_a (M or m)``, ``m = delta_b + g_b (m or M)``,
    the choice of M or m going by the sign of each ratio.
    """
    da, ga, db, gb = delta[a], g[a], delta[b], g[b]
    if ga > 0 and gb > 0:
        return da / (1.0 - ga), db / (1.0 - gb)
    if ga > 0:
        M = da / (1.0 - ga)
        return M, db + gb * M
    if gb > 0:
        m = db / (1.0 - gb)
        return da + ga * m, m
    M = (da + ga * db) / (1.0 - ga * gb)
    return M, db + gb * M


def _fixed_point_bounds(system: SelfAffineSystem) -> BoundsPair:
    """Global bounds of f: the fixed point of the one-digit hull, by policy iteration.

    ``M = max_i delta_i + g_i (M if g_i > 0 else m)`` and dually for m.  A
    policy fixes the arg-max digit a and the arg-min digit b; its fixed point
    is a closed-form 2x2 solve.  Starting from the greedy policy at the
    attained pair ``(M, m) = (1, 0)``, each round re-picks a and b from the
    hull at the current pair, switching a choice only when another digit
    beats it by more than rounding (half the allowance below), until the
    policy is stable.  A round is one pass over the digits in digit order:
    it picks the first digit with the largest upper (smallest lower) value
    and reads the values of a and b (there are none before the first
    policy).  Written for ``(M, -m)`` this is a discounted decision problem
    with rate ``max|g| < 1`` (Howard 1960), so the values rise strictly and
    no policy repeats: at most ``s**2`` steps.

    With ``C = max(1, max|delta|, M - m)``, one hull step at the returned
    pair moves it by ``step <= 8*eps*C`` and the exact fixed point lies
    within ``(step + 8*eps*C) / (1 - max|g|)`` of it.  Either check failing
    would take a broken invariant, so it raises ``CertificationError``.
    """
    g, delta, s = system.G.g, system.G.delta, system.s
    pairs = list(zip(delta, g))
    scale = max(1.0, max(map(abs, delta)))
    M, m = 1.0, 0.0
    a = b = -1
    steps = 0
    while True:
        top, bottom = -math.inf, math.inf
        for i, (d, gi) in enumerate(pairs):
            if gi > 0:
                u, lo = d + gi * M, d + gi * m
            else:
                u, lo = d + gi * m, d + gi * M
            if u > top:
                top, hi_i = u, i
            if lo < bottom:
                bottom, lo_i = lo, i
            if i == a:
                up_a = u
            if i == b:
                lo_b = lo
        allowance = 8.0 * EPS * max(scale, M - m)
        new_a = a if a >= 0 and top <= up_a + allowance / 2 else hi_i
        new_b = b if b >= 0 and bottom >= lo_b - allowance / 2 else lo_i
        if new_a == a and new_b == b:
            break
        steps += 1
        if steps > s * s:
            raise CertificationError(f"bounds policy iteration exceeded {s * s} steps")
        a, b = new_a, new_b
        M, m = _policy_value(delta, g, a, b)
        M, m = max(M, 1.0), min(m, 0.0)  # f(1) = 1 and f(0) = 0 are attained
    step = max(abs(top - M), abs(bottom - m))
    if step > allowance:
        raise CertificationError(
            f"bounds ({m!r}, {M!r}) move by {step!r} under one hull step, above {allowance!r}"
        )
    gmax = max(map(abs, g))
    return BoundsPair(m=m, M=M, iterations=steps, residual=(step + allowance) / (1.0 - gmax))


def global_bounds(system: SelfAffineSystem) -> BoundsPair:
    """Certified global minimum and maximum of f (cached per system)."""
    return system.bounds


def evaluate(system: SelfAffineSystem, d: DigitString) -> Evaluation:
    """f at the point with digits ``d``, summed by ``codec.string_sum`` as ``decode`` sums x.

    Exact (periodic) strings evaluate in closed form with error bound 0,
    without the global bounds.  Truncated strings return the partial sum;
    the true value differs by at most ``(M - m) * prod |g_{a_j}|`` over the
    consumed digits.
    """
    check_alphabet(d, system.s)
    acc, prod = string_sum(d.prefix, d.period, system.G.delta, system.G.g)
    if d.period is None:
        return Evaluation(acc, system.bounds.span * abs(prod))
    return Evaluation(acc, 0.0)


def evaluate_at(system: SelfAffineSystem, x: float, depth: int | None = None) -> Evaluation:
    """f(x) from one descent over the digits of x, with a truncation bound.

    ``codec.unwalk_into`` takes each digit of x under the weights and
    composes its ratio map in the same step.  With ``depth=None`` the walk
    stops as soon as the bound ``(M - m) * |prod g|`` reaches
    ``DEPTH_TARGET``, and after ``default_depth`` digits at the latest; an
    explicit ``depth`` walks exactly that many.  Either way the value and
    bound are those of ``evaluate(system, encode(x, system.Q, n))``, bit for
    bit, for the ``n`` digits walked, and a residue that closes exactly has
    bound 0.  The bound covers the truncation of the digits the float
    descent produced; it does not cover the digits that descent loses to
    rounding, so at a float x it is not yet a certified bound (ROADMAP item 1).
    """
    Q, G, span = system.Q, system.G, system.bounds.span
    if depth is None:
        depth, stop = system.default_depth, DEPTH_TARGET / span
    else:
        stop = -1.0
    acc, prod, _ = unwalk_into(x, Q.beta, Q.q, G.delta, G.g, depth, stop)
    return Evaluation(acc, span * abs(prod))


def functional_equation_residual(
    system: SelfAffineSystem, i: int, x: float, depth: int | None = None
) -> float:
    """|f(beta_i + q_i x) - delta_i - g_i f(x)| at matched digit depths.

    The left-hand point is represented exactly by prepending digit ``i`` to
    the digits of ``x`` (that is what the affinity map does to expansions),
    so the residual measures evaluation consistency, not input rounding:
    ``evaluate`` of ``d = encode(x, Q, depth)`` (default ``default_depth``
    digits) and of ``d.prepend(i)``, which raises ``InvalidDigit`` for an
    ``i`` outside the alphabet.
    """
    d = encode(x, system.Q, depth if depth is not None else system.default_depth)
    lhs = evaluate(system, d.prepend(i)).value
    return abs(lhs - system.G.delta[i] - system.G.g[i] * evaluate(system, d).value)


def variation_lower_bound(system: SelfAffineSystem, n: int) -> float:
    """(sum |g_i|)^n: total rank-n oscillation, a lower bound for the variation.

    Summing |f(right) - f(left)| over all rank-n cylinders telescopes to this
    power; with any negative ratio the base exceeds 1 and the variation is
    unbounded.  A power beyond the largest double raises ``ValidationError``.
    """
    n = check_count(n, "rank", 1)
    base = math.fsum(abs(v) for v in system.G.g)
    try:
        return base**n
    except OverflowError:
        raise ValidationError(f"(sum |g|)^{n} = {base!r}^{n} overflows a double") from None


def _refined_extremes(
    system: SelfAffineSystem, tol: float, cap: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Points of [0, 1] refined toward the maximum and the minimum: ``((x, f), (x, f))``.

    Over a cylinder with accumulated offset ``a`` and signed product ``p``
    the function ranges over ``a + p*[m, M]`` exactly, so the first child
    with the largest upper hull value contains the global maximum, and the
    first with the smallest lower hull value the global minimum.  Each
    descent stops once the hull width ``|p|*(M-m)`` is at most ``tol`` (or
    after ``cap`` digits) and gives that cylinder's left end and exact
    value, composing the maps of x and of f in the step that picks a digit.
    """
    q, beta, g, delta = system.Q.q, system.Q.beta, system.G.g, system.G.delta
    b = system.bounds
    ends: list[tuple[float, float]] = []
    for pick, hi, lo in ((max, b.M, b.m), (min, b.m, b.M)):
        x, qp, fa, gp = 0.0, 1.0, 0.0, 1.0
        for _ in range(cap):
            if abs(gp) * b.span <= tol:
                break
            hull = [fa + gp * d + (gp * gi) * (hi if gp * gi > 0 else lo) for d, gi in zip(delta, g)]
            i = hull.index(pick(hull))
            x, qp = x + beta[i] * qp, qp * q[i]
            fa, gp = fa + delta[i] * gp, gp * g[i]
        ends.append((x, fa))
    return ends[0], ends[1]


def _leaf_count(q, thresh: float, cap: int, limit: int) -> int:
    """A lower bound on the leaves of ``sample``'s walk, from the weights alone.

    A node's width depends only on how often each digit occurs on its path,
    so the count goes rank by rank over digit-count vectors, kept sparse as
    ``((digit, count), ...)`` and mapped to ``(width, multiplicity)``.
    Every vector makes the walk's decision (leaf, parent of leaves, rank
    cap), but against ``thresh * (1 + 1e-9)``: its width product rounds in
    another order than the walk's, by far less than that slack, so each node
    the walk makes a leaf is a leaf here too and no subtree counts more
    leaves than the walk writes.  ``low`` counts the leaves so far plus one
    for each node not yet decided, so it only rises, ends at the count, and
    is returned as soon as it exceeds ``limit``.
    """
    s, qmax = len(q), max(q)
    thresh *= 1.0 + 1e-9
    low, rank = 1, 0
    level: dict[tuple[tuple[int, int], ...], tuple[float, int]] = {(): (1.0, 1)}
    while level:
        children: dict[tuple[tuple[int, int], ...], tuple[float, int]] = {}
        for counts, (width, mult) in level.items():
            if width <= thresh:
                continue
            low += (s - 1) * mult  # s leaves, or s undecided children, in place of one node
            if low > limit:
                return low
            if width * qmax <= thresh or rank + 1 >= cap:
                continue
            for d, qd in enumerate(q):
                i = bisect_left(counts, (d,))
                if i < len(counts) and counts[i][0] == d:
                    child = (*counts[:i], (d, counts[i][1] + 1), *counts[i + 1:])
                else:
                    child = (*counts[:i], (d, 1), *counts[i:])
                seen = children.get(child)
                children[child] = (width * qd, mult if seen is None else seen[1] + mult)
        level, rank = children, rank + 1
    return low


def _sample_columns(
    system: SelfAffineSystem, points: int, depth: int | None = None
) -> tuple[list[float], list[float], list[float]]:
    """The rows of ``sample`` as three columns ``(xs, fs, errs)``, for writers that format whole columns."""
    points = check_count(points, "point count", 2)
    cap = DEPTH_CAP if depth is None else check_count(depth, "depth", 1)
    thresh = 1.0 / (points - 1)
    q, beta = system.Q.q, system.Q.beta
    g, delta = system.G.g, system.G.delta
    # Each leaf's parent is wider than thresh and the leaves tile [0, 1], so
    # the walk writes fewer than (points - 1) / min(q) leaves: count first
    # only where that could pass the cap.
    too_many = f"sampling at {points} points needs more than {SAMPLE_ROW_CAP} rows"
    if (points - 1) / min(q) * (1.0 + 1e-9) > SAMPLE_ROW_CAP:
        if _leaf_count(q, thresh, cap, SAMPLE_ROW_CAP) > SAMPLE_ROW_CAP:
            raise ValidationError(too_many)
    qmax = max(q)
    leaf_maps = tuple(zip(beta, delta))
    child_maps = tuple(zip(beta, q, delta, g))[::-1]  # pushed reversed: pop order ascending
    xs: list[float] = []
    fs: list[float] = []
    add_x, add_f = xs.append, fs.append
    stack: list[tuple[float, float, float, float, int]] = [(0.0, 1.0, 0.0, 1.0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        x, qp, fa, gp, rank = pop()
        if qp <= thresh:
            add_x(x)
            add_f(fa)
        elif qp * qmax <= thresh or rank + 1 >= cap:
            # Every child is a leaf: write their left ends and values in place.
            for b, d in leaf_maps:
                add_x(x + qp * b)
                add_f(fa + gp * d)
            if len(xs) > SAMPLE_ROW_CAP:
                break
        else:
            rank += 1
            for b, qd, d, gd in child_maps:
                push((x + qp * b, qp * qd, fa + gp * d, gp * gd, rank))
    if len(xs) > SAMPLE_ROW_CAP:
        raise ValidationError(too_many)
    if not all(map(lt, xs, islice(xs, 1, None))):
        # Two left ends rounded to one double.  Filled in reverse, the dict
        # keeps the first leaf in digit order at each x; then sort by x.
        first = dict(zip(reversed(xs), reversed(fs)))
        xs, fs = map(list, zip(*sorted(first.items())))

    def add(x: float, f: float) -> None:
        i = bisect_left(xs, x)
        if i == len(xs) or xs[i] != x:
            xs.insert(i, x)
            fs.insert(i, f)

    add(1.0, 1.0)
    (hi_x, hi_f), (lo_x, lo_f) = _refined_extremes(system, system.bounds.span / points, cap)
    if hi_f > max(fs):
        add(hi_x, hi_f)
    if lo_f < min(fs):
        add(lo_x, lo_f)
    return xs, fs, [0.0] * len(xs)


def sample(
    system: SelfAffineSystem, points: int, depth: int | None = None
) -> list[tuple[float, float, float]]:
    """Deterministic graph samples ``(x, f(x), error_bound)`` sorted by x.

    Cylinders are subdivided until their width drops to ``1/(points-1)`` (or
    ``depth`` digits), and f is evaluated exactly at every left endpoint
    (plus x = 1), so all error bounds are 0.  On top of the grid, one point
    near the maximum and one near the minimum are refined to within
    ``(M - m)/points`` of the certified bounds: the grid alone cannot get
    close, since f approaches its extrema only at its (often tiny) local
    regularity exponent.

    The walk is depth first with digits ascending, so the leaves come out in
    digit order and their left ends normally ascend strictly.  When two of
    them round to the same double, the first in digit order wins; the point
    at x = 1 and the refined extremes never displace a leaf at the same x.
    A call that needs more than ``SAMPLE_ROW_CAP`` leaves raises
    ``ValidationError``: skewed weights need far more leaves than points
    (q = (0.999, 0.001) needs about 10^6 at 4096 points).  Where the leaves
    could pass the cap, ``_leaf_count`` counts them from the weights before
    the walk; the walk stops too once it holds more than the cap.
    """
    return list(zip(*_sample_columns(system, points, depth)))
