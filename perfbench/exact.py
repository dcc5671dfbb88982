"""Exact-rational reference for the benchmark's correctness checks.

Everything here is stdlib ``fractions`` and Python integers; nothing calls
the library.  A system is given by its exact rational weights ``q`` and
ratios ``g`` (the spellings a user writes in a config file), and a point by
the exact value of the float the caller passed, ``Fraction(x)``.

* ``point_digits`` runs the greedy cylinder descent on the exact point, so
  its digits are the true digits of the float ``x``.
* ``point_value`` encloses ``f(x)`` in an exact interval that shrinks with
  every digit, and stops once the interval decides the claim under test.
* ``hull_bounds`` is the exact fixed point ``(m, M)`` of the one-digit
  max/min hull, found by policy iteration and verified exactly.
* ``closed_form_bounds`` is the paper's closed form in the regime, used as
  an independent cross-check of ``hull_bounds``.

The comparisons allow an explicit margin for float rounding inside the
library's sums (``sum_margin`` and ``bounds_margin``): a claimed bound
``b`` for a value ``v`` holds when the exact value lies in
``[v - b - margin, v + b + margin]``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

EPS = 2.0**-52

#: Digits the exact descent may consume before a claim is declared undecided.
DIGIT_CAP = 4096


def _common(values: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    den = lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


class ExactSystem:
    """A system with exact rational ``q`` and ``g`` (each summing to 1)."""

    def __init__(self, q, g) -> None:
        self.q = tuple(Fraction(v) for v in q)
        self.g = tuple(Fraction(v) for v in g)
        if len(self.q) != len(self.g) or sum(self.q) != 1 or sum(self.g) != 1:
            raise ValueError("exact q and g must have equal length and sum to 1")
        self.s = len(self.q)
        self.beta = tuple(sum(self.q[:i], Fraction(0)) for i in range(self.s))
        self.delta = tuple(sum(self.g[:i], Fraction(0)) for i in range(self.s))
        # Integer forms over a common denominator keep the digit walks free
        # of per-step gcd reductions.
        self._qden, self._qnum = _common(self.q)
        self._bnum = tuple(v.numerator * (self._qden // v.denominator) for v in self.beta)
        self._gden, self._gnum = _common(self.g)
        self._dnum = tuple(v.numerator * (self._gden // v.denominator) for v in self.delta)
        self.gmax = max(abs(v) for v in self.g)
        self._bounds: tuple[Fraction, Fraction] | None = None

    @classmethod
    def from_text(cls, q_text, g_text) -> "ExactSystem":
        return cls([Fraction(t.strip()) for t in q_text], [Fraction(t.strip()) for t in g_text])

    # -- bounds ---------------------------------------------------------

    def regime(self) -> int | None:
        """The closed-form digit k (one negative ratio, offset above 1), else None."""
        neg = [i for i, v in enumerate(self.g) if v < 0]
        if len(neg) == 1 and self.delta[neg[0]] > 1:
            return neg[0]
        return None

    def hull_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact ``(m, M)``: the fixed point of the one-digit max/min hull.

        Written for ``(M, -m)`` the hull map is a maximum over affine maps
        with non-negative coefficients of row sum at most ``max|g| < 1``, a
        discounted decision problem, so Howard policy iteration terminates.
        The result is checked to be an exact fixed point.
        """
        if self._bounds is not None:
            return self._bounds
        g, delta = self.g, self.delta

        def hull(M: Fraction, m: Fraction) -> tuple[list[Fraction], list[Fraction]]:
            up = [d + (gi * M if gi > 0 else gi * m) for d, gi in zip(delta, g)]
            lo = [d + (gi * m if gi > 0 else gi * M) for d, gi in zip(delta, g)]
            return up, lo

        up, lo = hull(Fraction(1), Fraction(0))
        a = max(range(self.s), key=up.__getitem__)
        b = min(range(self.s), key=lo.__getitem__)
        for _ in range(64):
            M, m = _solve_policy(delta, g, a, b)
            up, lo = hull(M, m)
            best_up, best_lo = max(up), min(lo)
            if best_up == M and best_lo == m:
                self._bounds = (m, M)
                return self._bounds
            if best_up > M:
                a = up.index(best_up)
            if best_lo < m:
                b = lo.index(best_lo)
        raise ArithmeticError("exact policy iteration did not settle in 64 steps")

    def closed_form_bounds(self) -> tuple[Fraction, Fraction]:
        """The paper's closed form ``(min(0, delta_k + g_k M), max delta_i / (1 - g_i))``."""
        k = self.regime()
        if k is None:
            raise ValueError("closed forms need the regime")
        M = max(d / (1 - gi) for d, gi in zip(self.delta, self.g))
        return min(Fraction(0), self.delta[k] + self.g[k] * M), M

    def max_digits(self) -> frozenset[int]:
        """V(M): digits whose fixed-point value equals the exact maximum."""
        _, M = self.hull_bounds()
        return frozenset(i for i in range(self.s) if self.delta[i] == (1 - self.g[i]) * M)

    def level_groups(self) -> list[list[int]]:
        """Digits grouped by equal fixed-point value ``delta_i / (1 - g_i)``, ascending."""
        groups: dict[Fraction, list[int]] = {}
        for i in range(self.s):
            groups.setdefault(self.delta[i] / (1 - self.g[i]), []).append(i)
        return [sorted(groups[y]) for y in sorted(groups)]

    # -- digits and values ----------------------------------------------

    def digit_point(self, prefix) -> Fraction:
        """Exact left end of the cylinder with base ``prefix``."""
        x, p = Fraction(0), Fraction(1)
        for d in prefix:
            x += self.beta[d] * p
            p *= self.q[d]
        return x

    def point_digits(self, x: float, n: int) -> tuple[list[int], tuple[int, ...] | None]:
        """Up to ``n`` exact digits of the float ``x`` and the closing period, if any.

        The greedy descent uses the library's convention: a point on a
        cylinder boundary takes the larger digit, so a terminating point
        closes with period ``(0,)``; ``x = 1`` closes with ``(s-1,)``.
        """
        fx = Fraction(x)
        if fx == 1:
            return [], (self.s - 1,)
        num, den = fx.numerator, fx.denominator
        D, bnum, qnum = self._qden, self._bnum, self._qnum
        digits: list[int] = []
        for _ in range(n):
            if num == 0:
                return digits, (0,)
            v = num * D
            d = bisect_right([b * den for b in bnum], v) - 1
            digits.append(d)
            num, den = v - bnum[d] * den, qnum[d] * den
        return digits, (0,) if num == 0 else None

    def digit_value(self, prefix, period=None) -> tuple[Fraction, Fraction]:
        """``(S, P)``: exact partial sum and signed ratio product over ``prefix``.

        With a ``period`` the closed-form tail is added to ``S`` and ``P`` is 0.
        """
        E, gnum, dnum = self._gden, self._gnum, self._dnum
        acc, prod, scale = 0, 1, 1
        for d in prefix:
            acc = acc * E + dnum[d] * prod
            prod *= gnum[d]
            scale *= E
        S = Fraction(acc, scale)
        P = Fraction(prod, scale)
        if period is None:
            return S, P
        tail_S, tail_P = self.digit_value(period)
        return S + P * tail_S / (1 - tail_P), Fraction(0)

    def point_value(
        self, x: float, lo: Fraction, hi: Fraction
    ) -> tuple[bool | None, int]:
        """Decide whether ``f(x)`` lies in ``[lo, hi]``; returns (verdict, digits used).

        After n exact digits ``f(x)`` is known to lie in ``S_n + P_n [m, M]``.
        Digits are added until that interval lies inside ``[lo, hi]``
        (verdict True) or misses it (False); ``None`` if ``DIGIT_CAP`` digits
        do not decide.
        """
        m, M = self.hull_bounds()
        fx = Fraction(x)
        if fx == 1:
            return lo <= 1 <= hi, 0
        num, den = fx.numerator, fx.denominator
        D, bnum, qnum = self._qden, self._bnum, self._qnum
        E, gnum, dnum = self._gden, self._gnum, self._dnum
        acc, prod, scale = 0, 1, 1
        for n in range(1, DIGIT_CAP + 1):
            if num == 0:
                S = Fraction(acc, scale)
                return lo <= S <= hi, n - 1
            v = num * D
            d = bisect_right([b * den for b in bnum], v) - 1
            num, den = v - bnum[d] * den, qnum[d] * den
            acc = acc * E + dnum[d] * prod
            prod *= gnum[d]
            scale *= E
            if n % 16 == 0:
                S, P = Fraction(acc, scale), Fraction(prod, scale)
                a, b = S + P * m, S + P * M
                if a > b:
                    a, b = b, a
                if lo <= a and b <= hi:
                    return True, n
                if b < lo or a > hi:
                    return False, n
        return None, DIGIT_CAP


def _solve_policy(delta, g, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Solve M = delta_a + g_a (M or m), m = delta_b + g_b (m or M) exactly."""
    # Unknowns (M, m): rows  [1 - ca_M, -ca_m] and [-cb_M, 1 - cb_m].
    ga, gb = g[a], g[b]
    ca_M, ca_m = (ga, Fraction(0)) if ga > 0 else (Fraction(0), ga)
    cb_m, cb_M = (gb, Fraction(0)) if gb > 0 else (Fraction(0), gb)
    a11, a12, r1 = 1 - ca_M, -ca_m, delta[a]
    a21, a22, r2 = -cb_M, 1 - cb_m, delta[b]
    det = a11 * a22 - a12 * a21
    return (r1 * a22 - a12 * r2) / det, (a11 * r2 - a21 * r1) / det


def sum_margin(system: ExactSystem) -> float:
    """Allowance for float rounding in an evaluated digit sum.

    The k-th term of the sum carries a relative rounding error of about
    ``k * eps``; summing ``k * gmax**k`` gives the ``1 / (1 - gmax)**2``
    factor.  The scale ``C`` bounds the offsets and the range of f.
    """
    m, M = system.hull_bounds()
    C = max(1.0, float(max(abs(d) for d in system.delta)), float(M - m))
    r = float(system.gmax)
    return 8.0 * EPS * C / (1.0 - r) ** 2


def bounds_margin(system: ExactSystem) -> float:
    """Allowance for float rounding at the fixed point of the bounds hull.

    One hull step rounds by about ``eps * C``; the fixed point of a
    contraction with rate ``gmax`` amplifies that by ``1 / (1 - gmax)``.
    """
    m, M = system.hull_bounds()
    C = max(1.0, float(max(abs(d) for d in system.delta)), float(M - m))
    return 8.0 * EPS * C / (1.0 - float(system.gmax))
