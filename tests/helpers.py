"""Shared fixtures for the test suite: reference systems and random generators."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from qsaffine import DigitString, SelfAffineSystem, closed_form_regime
from qsaffine.config import SystemConfig


def system(q, g) -> SelfAffineSystem:
    return SelfAffineSystem.from_values(q, g)


# Reference systems, named for the behaviour they exhibit (see configs/).
CANTOR_MAX = system((0.2, 0.4, 0.2, 0.2), (0.4, 0.8, 0.4, -0.6))
LEVEL_SETS = system((0.05, 0.35, 0.2, 0.35, 0.05), (0.5, 0.2, 0.1, -0.28, 0.48))
SINGULAR_S3 = system((0.5, 0.3, 0.2), (0.2, 0.9, -0.1))
ROUGH_S3 = system((0.4, 0.4, 0.2), (2 / 3, 2 / 3, -1 / 3))
DEEP_MIN_S3 = system((0.3, 0.45, 0.25), (0.6, 0.9, -0.5))
IDENTITY_S3 = system((0.5, 0.25, 0.25), (0.5, 0.25, 0.25))
# q_2 is one ulp below 0.833, so q sums to 1 within the rounding tolerance of
# running_sums but beta_2 + q_2 < 1: near the right end of a cylinder the residue
# clamps to 1 after trailing high digits, so the descent closes ``..., 2`` with period (2,).
SHORT_S3 = system((0.043, 0.124, math.nextafter(0.833, 0.0)), (0.6, 0.9, -0.5))
# Low-digit ratios so small that (M - m) * max(g[:k])**64 is about 5e-21,
# far below the rounding of the witness sums the certificate checks.
TIGHT_CONFIG = SystemConfig(
    ("88/1000", "561/1000", "66/1000", "285/1000"),
    ("204/1000", "480/1000", "416/1000", "-100/1000"),
    "tight",
)

FIGURE_CONFIGS = (
    "cantor_max",
    "level_sets",
    "singular_s3",
    "rough_s3",
    "deep_min_s3",
)


def closing(values) -> tuple[float, ...]:
    """``values`` with the last entry replaced by ``1 - fsum(the others)``.

    That sum is 1 up to rounding, as validation requires; a vector that is
    only normalized in floats (dirichlet draws, ``np.sum``) can miss it.
    """
    head = tuple(float(v) for v in values[:-1])
    return head + (1.0 - math.fsum(head),)


def random_weights(rng: np.random.Generator, s: int, min_w: float = 0.03):
    while True:
        w = closing(rng.dirichlet(np.ones(s)))
        if min(w) >= min_w:
            return w


def random_admissible_system(
    rng: np.random.Generator, s_min: int = 2, s_max: int = 6, g_abs_max: float = 0.8
) -> SelfAffineSystem:
    """Any valid system: ratios of mixed sign, |g| in [0.05, g_abs_max], sum 1."""
    s = int(rng.integers(s_min, s_max + 1))
    q = random_weights(rng, s)
    while True:
        mags = rng.uniform(0.05, g_abs_max, size=s - 1)
        signs = rng.choice([-1.0, 1.0], size=s - 1)
        head = tuple(float(v) for v in mags * signs)
        last = 1.0 - math.fsum(head)
        if 0.05 <= abs(last) <= g_abs_max:
            return SelfAffineSystem.from_values(q, head + (last,))


def random_regime_system(
    rng: np.random.Generator, s_min: int = 3, s_max: int = 8
) -> tuple[SelfAffineSystem, int]:
    """A system in the closed-form regime: one negative ratio at digit k, offset > 1."""
    s = int(rng.integers(s_min, s_max + 1))
    k = int(rng.integers(2, s))
    mrem = s - 1 - k
    c = float(rng.uniform(0.05, 0.35))
    while True:
        w = rng.dirichlet(np.ones(k)) * (1.0 + c)
        if w.min() >= 0.05 and w.max() <= 0.93:
            break
    if mrem == 0:
        gk = -c
        tail: tuple[float, ...] = ()
    else:
        extra = float(rng.uniform(0.03 + 0.03 * mrem, 0.5))
        gk = -(c + extra)
        while True:
            v = rng.dirichlet(np.ones(mrem)) * extra
            if v.min() >= 0.01 and v.max() <= 0.93:
                break
        tail = tuple(float(x) for x in v)
    g = closing(tuple(float(x) for x in w) + (gk,) + tail)
    return SelfAffineSystem.from_values(random_weights(rng, s), g), k


def greedy_digits(x: float, Q, depth: int) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """Raw ``(digits, period)`` of x's top-closing greedy descent, before canonical form.

    The digit rule ``encode`` documents, written apart from the codec: the
    largest digit with ``beta_d <= t`` (a linear scan, no bisect), the
    residue ``(t - beta_d) / q_d`` clamped to [0, 1], a close with period
    ``(0,)`` at a residue of exactly 0 and ``(s-1,)`` at exactly 1, and
    period None after ``depth`` digits.
    """
    t, digits = float(x), []
    for _ in range(depth):
        if t in (0.0, 1.0):
            return tuple(digits), (0,) if t == 0.0 else (Q.s - 1,)
        d = max(i for i in range(Q.s) if Q.beta[i] <= t)
        digits.append(d)
        t = min(max((t - Q.beta[d]) / Q.q[d], 0.0), 1.0)
    return tuple(digits), None


def reference_preimage(system: SelfAffineSystem, y: float, depth: int) -> DigitString:
    """``extrema.preimage_digits`` with its residue clamped, written apart from the codec.

    The digit rule of the preimage descent: the largest digit below the regime
    digit k with ``delta_d <= t`` (a linear scan, no bisect), the residue
    ``(t - delta_d) / g_d`` clamped to [0, 1], a close with period ``(0,)`` at a
    residue of exactly 0, and period None after ``depth`` digits.
    """
    k = closed_form_regime(system)
    delta, g = system.G.delta, system.G.g
    t, digits = float(y), []
    for _ in range(depth):
        if t == 0.0:
            return DigitString(tuple(digits), (0,), system.s)
        d = max(i for i in range(k) if delta[i] <= t)
        digits.append(d)
        t = min(max((t - delta[d]) / g[d], 0.0), 1.0)
    return DigitString(tuple(digits), None, system.s)


def random_exact_string(
    rng: np.random.Generator, s: int, max_prefix: int = 4, max_period: int = 5
) -> DigitString:
    r = int(rng.integers(1, max_period + 1))
    period = tuple(int(d) for d in rng.integers(0, s, size=r))
    n = int(rng.integers(0, max_prefix + 1))
    prefix = tuple(int(d) for d in rng.integers(0, s, size=n))
    return DigitString(prefix, period, s)


def random_two_sided_period(rng: np.random.Generator, s: int, max_period: int = 6) -> DigitString:
    """A purely periodic string that is neither eventually all-low nor all-high."""
    while True:
        r = int(rng.integers(2, max_period + 1))
        period = tuple(int(d) for d in rng.integers(0, s, size=r))
        if any(d != 0 for d in period) and any(d != s - 1 for d in period):
            return DigitString((), period, s)


def random_binary_point(rng: np.random.Generator, s: int, max_len: int = 12) -> DigitString:
    """The low (terminating) expansion of a random twin point."""
    n = int(rng.integers(1, max_len + 1))
    digits = [int(d) for d in rng.integers(0, s, size=n)]
    digits[-1] = int(rng.integers(1, s))
    return DigitString(tuple(digits), (0,), s)


def exact_hull_bounds(system: SelfAffineSystem) -> tuple[Fraction, Fraction]:
    """Exact ``(m, M)``: the fixed point of the hull over the stored float ``g`` and ``delta``.

    Policy iteration in rationals, each policy solved as a 2x2 system; the
    pair returned satisfies ``hull(M, m) == (M, m)`` exactly.
    """
    g = [Fraction(v) for v in system.G.g]
    delta = [Fraction(v) for v in system.G.delta]
    zero = Fraction(0)

    def hull(M, m):
        up = [d + (gi * M if gi > 0 else gi * m) for d, gi in zip(delta, g)]
        lo = [d + (gi * m if gi > 0 else gi * M) for d, gi in zip(delta, g)]
        return up, lo

    def solve(a, b):
        # (1 - pa) M - na m = delta_a,  -nb M + (1 - pb) m = delta_b
        pa, na = (g[a], zero) if g[a] > 0 else (zero, g[a])
        pb, nb = (g[b], zero) if g[b] > 0 else (zero, g[b])
        det = (1 - pa) * (1 - pb) - na * nb
        M = (delta[a] * (1 - pb) + na * delta[b]) / det
        m = (delta[b] * (1 - pa) + nb * delta[a]) / det
        return M, m

    up, lo = hull(Fraction(1), zero)
    a, b = up.index(max(up)), lo.index(min(lo))
    for _ in range(system.s**2):
        M, m = solve(a, b)
        up, lo = hull(M, m)
        if (max(up), min(lo)) == (M, m):
            return m, M
        if max(up) > M:
            a = up.index(max(up))
        if min(lo) < m:
            b = lo.index(min(lo))
    raise AssertionError("exact policy iteration did not settle")


def reference_moran(Q, allowed) -> float:
    """``extrema.moran_dimension`` as plain bisection that sums every midpoint, kept as an oracle."""
    from qsaffine.extrema import MORAN_RESIDUAL, MORAN_XTOL

    V = sorted(frozenset(allowed))
    if len(V) == Q.s:
        return 1.0
    if len(V) == 1:
        return 0.0
    weights = [Q.q[i] for i in V]
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        h = math.fsum(w**mid for w in weights) - 1.0
        if (hi - lo <= MORAN_XTOL and abs(h) <= MORAN_RESIDUAL) or not lo < mid < hi:
            return mid
        if h > 0.0:
            lo = mid
        else:
            hi = mid


def reference_bounds(system: SelfAffineSystem) -> tuple[float, float, int, float]:
    """``(m, M, iterations, residual)`` of ``selfaffine._fixed_point_bounds``, written as it was
    before its rounds were trimmed, kept as an oracle: the same policy sequence, bit for bit."""
    from qsaffine.selfaffine import EPS, _policy_value

    g, delta, s = system.G.g, system.G.delta, system.s
    pairs = list(zip(delta, g))
    scale = max(1.0, max(map(abs, delta)))
    M, m = 1.0, 0.0
    a = b = -1
    steps = 0
    while True:
        up = [d + (gi * M if gi > 0 else gi * m) for d, gi in pairs]
        lo = [d + (gi * m if gi > 0 else gi * M) for d, gi in pairs]
        allowance = 8.0 * EPS * max(scale, M - m)
        hi_i = up.index(max(up))
        lo_i = lo.index(min(lo))
        new_a = a if a >= 0 and up[hi_i] <= up[a] + allowance / 2 else hi_i
        new_b = b if b >= 0 and lo[lo_i] >= lo[b] - allowance / 2 else lo_i
        if (new_a, new_b) == (a, b):
            break
        steps += 1
        assert steps <= s * s, "policy iteration did not settle"
        a, b = new_a, new_b
        M, m = _policy_value(delta, g, a, b)
        M, m = max(M, 1.0), min(m, 0.0)
    step = max(abs(up[hi_i] - M), abs(lo[lo_i] - m))
    assert step <= allowance, "one hull step moves the bounds beyond the allowance"
    gmax = max(map(abs, g))
    return m, M, steps, (step + allowance) / (1.0 - gmax)


def reference_level_rows(quotients, tol: float) -> list[tuple[float, list[int]]]:
    """``extrema._level_rows`` written as it was before its one sort, kept as an oracle:
    a sort of the ``(quotient, digit)`` pairs, and each row's digits sorted into a new list."""
    rows: list[tuple[float, list[int]]] = []
    for v, i in sorted(zip(quotients, range(len(quotients)))):
        if rows and v - rows[-1][0] <= tol:
            rows[-1][1].append(i)
        else:
            rows.append((v, [i]))
    return [(y, sorted(digits)) for y, digits in rows]


def reference_unary_sums(system: SelfAffineSystem, nu) -> tuple[float, float]:
    """The frequency formula's sums ``(sum nu_i ln|g_i|, sum nu_i ln q_i)`` over the
    non-zero frequencies only, as ``holder.local_exponent_unary`` summed them before
    its one kernel, kept as an oracle."""
    log_q, log_g = system.logs
    num = math.fsum(v * lg for v, lg in zip(nu, log_g) if v > 0.0)
    den = math.fsum(v * lq for v, lq in zip(nu, log_q) if v > 0.0)
    return num, den


def reference_empirical(system: SelfAffineSystem, d: DigitString, ranks) -> float:
    """``holder.empirical_exponent``'s slope from its rank loop as it was before the running
    sums: one pass over the digits from 0.0, keeping the sums at each requested rank."""
    from statistics import linear_regression

    rank_list = sorted(set(ranks))
    log_w, log_o = [], []
    acc_w = acc_o = 0.0
    want = set(rank_list)
    log_q, log_g = system.logs
    for n, dig in enumerate(d.head(rank_list[-1]), start=1):
        acc_w += log_q[dig]
        acc_o += log_g[dig]
        if n in want:
            log_w.append(acc_w)
            log_o.append(acc_o)
    if len(rank_list) == 1:
        return log_o[0] / log_w[0]
    return linear_regression(log_w, log_o).slope


def reference_leaves(system: SelfAffineSystem, points: int, depth: int | None = None):
    """Left ends and values ``[(x, f)]`` of the cylinders ``sample`` stops at, in digit order.

    One stack walk over every cylinder, pushing children in reversed digit
    order and testing each popped node for a leaf.
    """
    from qsaffine.selfaffine import DEPTH_CAP

    cap = DEPTH_CAP if depth is None else depth
    thresh = 1.0 / (points - 1)
    q, beta = system.Q.q, system.Q.beta
    g, delta = system.G.g, system.G.delta
    leaves = []
    stack = [(0.0, 1.0, 0.0, 1.0, 0)]
    while stack:
        x, qp, fa, gp, rank = stack.pop()
        if qp <= thresh or rank >= cap:
            leaves.append((x, fa))
            continue
        for dig in range(system.s - 1, -1, -1):
            stack.append((x + qp * beta[dig], qp * q[dig], fa + gp * delta[dig], gp * g[dig], rank + 1))
    return leaves


def reference_extreme_descent(
    system: SelfAffineSystem, maximize: bool, tol: float, cap: int
) -> tuple[float, float]:
    """One refined extreme of ``sample``, one direction per call, kept as an oracle.

    From the root, step into the first child with the largest upper (smallest
    lower) hull value ``a + p*[m, M]`` until the hull width ``|p|*(M-m)`` is at
    most ``tol`` or ``cap`` digits are taken; return that cylinder's left end
    and value.  The minimum runs as a maximum of the negated hull.
    """
    q, beta, g, delta = system.Q.q, system.Q.beta, system.G.g, system.G.delta
    b = system.bounds
    hi, lo = (b.M, b.m) if maximize else (b.m, b.M)
    sign = 1.0 if maximize else -1.0
    x, qp, fa, gp = 0.0, 1.0, 0.0, 1.0
    for _ in range(cap):
        if abs(gp) * b.span <= tol:
            break
        best_dig = 0
        best_val = -math.inf
        for dig in range(system.s):
            gp2 = gp * g[dig]
            hull = sign * (fa + gp * delta[dig] + (gp2 * hi if gp2 > 0 else gp2 * lo))
            if hull > best_val:
                best_val = hull
                best_dig = dig
        x, qp = x + beta[best_dig] * qp, qp * q[best_dig]
        fa, gp = fa + delta[best_dig] * gp, gp * g[best_dig]
    return x, fa


def reference_sample(system: SelfAffineSystem, points: int, depth: int | None = None):
    """``selfaffine.sample`` written plainly over ``reference_leaves``, kept as an oracle.

    Each leaf's left end keys a dict (the first leaf in digit order wins a
    tie), then x = 1 and the refined extremes are added unless their x is
    taken, and the rows are sorted by x.
    """
    from qsaffine.selfaffine import DEPTH_CAP

    cap = DEPTH_CAP if depth is None else depth
    out: dict[float, float] = {}
    for x, fa in reference_leaves(system, points, depth):
        out.setdefault(x, fa)
    out.setdefault(1.0, 1.0)
    tol = system.bounds.span / points
    hi_x, hi_f = reference_extreme_descent(system, True, tol, cap)
    if hi_f > max(out.values()):
        out.setdefault(hi_x, hi_f)
    lo_x, lo_f = reference_extreme_descent(system, False, tol, cap)
    if lo_f < min(out.values()):
        out.setdefault(lo_x, lo_f)
    return [(x, f, 0.0) for x, f in sorted(out.items())]
