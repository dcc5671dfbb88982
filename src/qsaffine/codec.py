"""Digit codec for weighted expansions of numbers in [0, 1].

A weight vector ``q = (q_0, ..., q_{s-1})`` in (0, 1) with sum 1 splits
``[0, 1]`` into ``s`` subintervals of lengths ``q_i`` placed at the cumulative
offsets ``beta_i = q_0 + ... + q_{i-1}``.  Iterating the split assigns every
point an infinite digit sequence over ``{0, ..., s-1}``; conversely a digit
sequence ``a_1 a_2 ...`` sums to

    beta_{a_1} + sum_{k>=2} beta_{a_k} * prod_{j<k} q_{a_j}.

The self-affine function is the same construction, with digit ``d`` acting
as ``t -> offset_d + scale_d * t``: ``(beta, q)`` gives x, ``(delta, g)``
gives f.  ``walk`` composes the maps of digits into a value, and
``string_sum`` (the one sum of a digit string, behind ``decode`` and
``selfaffine.evaluate``) adds a period.  The digits of x come from one
greedy descent, ``unwalk_into``, which composes a second map pair and can
keep its digits: ``encode`` keeps them, ``selfaffine.evaluate_at`` composes
f's maps.  ``unwalk`` serves y, under f's maps: it composes the value of
the preimage digits of ``extrema`` as it picks them.  Around them sit
cylinder intervals, the one digit check (``check_digits``), the one count
check (``check_count``), the heads and digit frequencies of a
``DigitString``, and the bookkeeping for points with two expansions (a
terminating one and its twin).  Digits are checked once, where they
enter: at the public ``DigitString`` constructor and at the one digit
``prepend`` adds.  ``Frozen`` is the base of the package's value types,
and ``cached`` keeps the values one of them computes on first use.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from itertools import accumulate, chain, cycle, islice
from typing import Callable

from .errors import (
    AlphabetMismatch,
    InsufficientDepth,
    InvalidDigit,
    OutOfDomain,
    ValidationError,
)

#: Tolerance on the "frequencies sum to one" check of ``FrequencyVector``.
SUM_TOL = 1e-12

#: Double-precision epsilon, ``2**-52``: the unit of the rounding allowances.
EPS = sys.float_info.epsilon


def running_sums(values, name: str, admissible: Callable[[float], bool], rule: str):
    """Validate a weight vector summing to 1; return it with its running sums.

    Each of the at least 2 entries must pass ``admissible``, the condition
    that ``rule`` states in errors.  The sum must be 1 up to rounding:
    ``|fsum(v) - 1| <= eps * fsum(|v|)``.  Rational weights that sum to 1
    exactly pass, since each double lies within ``eps/2 * |v_i|`` of its
    rational (Higham 2002, section 2.2).  Any further-off vector is
    rejected, never renormalized: the library pins ``f(1) = 1``, which a
    vector summing short of 1 does not attain, and silently rescaling the
    weights would desynchronize the stored offsets from them.  The offsets
    are the partial sums taken left to right, starting at
    ``offsets[0] == 0.0``.
    """
    values = tuple(map(float, values))
    if len(values) < 2:
        raise ValidationError("alphabet size must be at least 2")
    if not all(map(admissible, values)):
        i = next(i for i, v in enumerate(values) if not admissible(v))
        raise ValidationError(f"{name}[{i}] = {values[i]!r} must satisfy {rule}")
    total = math.fsum(values)
    tol = EPS * math.fsum(map(abs, values))
    if abs(total - 1.0) > tol:
        raise ValidationError(
            f"{name} must sum to 1 up to rounding ({tol:.3g}); got sum = {total!r}"
        )
    return values, (0.0, *accumulate(values[:-1]))


class Frozen:
    """Base of the value types: fields set once in ``__init__``, compared by value.

    ``_fields`` names the fields that ``__eq__``, ``__hash__`` and
    ``__repr__`` read, in order.  ``__init__`` validates its arguments and
    stores the fields with one ``self.__dict__.update``; assigning or
    deleting an attribute later raises ``AttributeError``.  Values of
    different classes never compare equal.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({fields})"


class cached:
    """A value of a ``Frozen`` instance computed on first use and kept in its ``__dict__``.

    A non-data descriptor: its first read stores the value under the same
    name in the instance ``__dict__``, which every later read finds first.
    The value is not a field, so it takes no part in ``==``, ``hash`` or
    ``repr``.  There is no lock (``functools.cached_property`` takes one
    on every first read before Python 3.12): two threads racing on a first
    read may both compute the value, and both store the same deterministic
    value.  Read on the class, it is the descriptor, with the function's
    docstring.
    """

    def __init__(self, func) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class StochasticVector(Frozen):
    """Partition weights ``q`` (each ``0 < q_i < 1``) with their cumulative offsets ``beta``.

    A weight of 1 leaves its digit map uncontracted (``log q = 0``), so
    the expansion would never narrow x down.
    ``beta`` is stored exactly as the running sum of ``q``, so
    ``beta[0] == 0.0`` and ``beta[i+1] - beta[i] == q[i]`` as floats.
    """

    _fields = ("q", "beta", "s")

    def __init__(self, q) -> None:
        q, beta = running_sums(q, "q", lambda v: 0.0 < v < 1.0, "0 < q < 1")
        self.__dict__.update(q=q, beta=beta, s=len(q))


def check_count(value, what: str, least: int) -> int:
    """``value`` as an integer of at least ``least`` by ``operator.index``; 2.5 raises ``ValidationError``.

    Every count, depth and rank the package reads goes through here, so
    ``True`` and ``numpy.int64(3)`` pass as 1 and 3.  ``what`` names the
    argument in the message.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer; got {value!r}") from None
    if n < least:
        floor = "non-negative" if least == 0 else f"at least {least}"
        raise ValidationError(f"{what} must be {floor}; got {value!r}")
    return n


def check_digits(values, s: int) -> tuple[int, ...]:
    """``values`` as digits below ``s`` by ``operator.index``: 1.9 raises ``InvalidDigit``."""
    try:
        digits = tuple(map(operator.index, values))
    except TypeError as exc:
        raise InvalidDigit(f"a digit must be an integer: {exc}") from None
    for d in digits:
        if not 0 <= d < s:
            raise InvalidDigit(f"digit {d} outside alphabet of size {s}")
    return digits


class DigitString(Frozen):
    """An eventually periodic (or truncated) digit sequence over ``{0..s-1}``.

    ``period is None`` marks a truncated string: a finite prefix standing for
    an unknown continuation.  Exact strings are normalized on construction to
    a canonical form: the period is reduced to its primitive cycle and any
    prefix tail that merely repeats the period is absorbed into it.  In
    canonical form a string ending in period ``(0,)`` never has a trailing 0
    in its prefix, and one ending in ``(s-1,)`` never has a trailing high
    digit; this is what makes the twin rewrites below well defined.

    The constructor checks ``s`` and every digit; ``prepend`` checks its one
    new digit.  Strings the library builds from digits it has checked come
    from ``_from_checked``, which skips both checks.  Both reach the
    canonical form through ``_store``.
    """

    _fields = ("prefix", "period", "s")

    def __init__(self, prefix, period, s) -> None:
        s = check_count(s, "alphabet size", 2)
        prefix = check_digits(prefix, s)
        period = None if period is None else check_digits(period, s)
        self._store(prefix, period, s)

    @classmethod
    def _from_checked(cls, prefix, period, s) -> "DigitString":
        """The string of int tuples already below ``s``, a checked size: no digit or count check."""
        d = object.__new__(cls)
        d._store(prefix, period, s)
        return d

    def _store(self, prefix: tuple[int, ...], period: tuple[int, ...] | None, s: int) -> None:
        """Set the fields in canonical form: the primitive cycle, then the prefix tail absorbed."""
        if period is not None:
            if not period:
                raise ValidationError("an empty period is forbidden; use period=None for truncation")
            n = len(period)
            r = next(k for k in range(1, n + 1) if period[:k] * (n // k) == period)
            cut = len(prefix)
            while cut and prefix[cut - 1] == period[(cut - len(prefix) - 1) % r]:
                cut -= 1
            k = (cut - len(prefix)) % r  # each absorbed digit rotates the cycle right by one
            prefix, period = prefix[:cut], period[k:r] + period[:k]
        self.__dict__.update(prefix=prefix, period=period, s=s)

    def head(self, n: int) -> tuple[int, ...]:
        """First ``n`` digits: the prefix, then the period repeated."""
        n = check_count(n, "digit count", 0)
        digits = tuple(islice(chain(self.prefix, cycle(self.period or ())), n))
        if len(digits) < n:
            raise InsufficientDepth(
                f"truncated string holds {len(self.prefix)} digits; {n} requested"
            )
        return digits

    def prepend(self, digit: int) -> "DigitString":
        """The string with ``digit`` in front; only ``digit`` goes through ``check_digits``."""
        return self._from_checked((*check_digits((digit,), self.s), *self.prefix), self.period, self.s)

    def to_text(self) -> str:
        """Render as ``"1,3,(0,2)"``; a missing parenthesized tail means truncated."""
        parts = [str(d) for d in self.prefix]
        if self.period is not None:
            parts.append("(" + ",".join(str(d) for d in self.period) + ")")
        return ",".join(parts)

    @classmethod
    def from_text(cls, text: str, s: int) -> "DigitString":
        """Parse ``"1,3,(0,2)"``: each digit is ASCII decimal digits, spaces around it allowed."""
        text = text.strip()
        head, paren, tail = text.partition("(")
        if paren:
            tail = tail.strip()
            if not tail.endswith(")"):
                raise ValidationError(f"unbalanced period parenthesis in {text!r}")
            body = tail[:-1].strip()
            if not body:
                raise ValidationError("period must contain at least one digit")
            head = head.rstrip()
            if head[-1:] not in ("", ","):  # a period needs its comma: "1(2)" is malformed
                raise ValidationError(f"malformed digit string {text!r}")
            if head.endswith(",") and head[:-1].rstrip()[-1:].isdigit():
                head = head[:-1]  # the one comma between the prefix and the period

        def digits(part: str) -> tuple[int, ...]:
            tokens = [t.strip() for t in part.split(",")]
            # int() alone would also take "+1", "-0", "1_0" and non-ASCII digits
            if not all(t.isascii() and t.isdigit() for t in tokens):
                raise ValidationError(f"malformed digit string {text!r}")
            return tuple(map(int, tokens))

        return cls(digits(head) if head else (), digits(body) if paren else None, s)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


class FrequencyVector(Frozen):
    """Observed or limiting digit frequencies.

    ``exact`` is set when the frequencies were computed analytically from one
    period of an exact string (the finite prefix does not contribute to the
    limit); ``n`` records the number of digits actually counted (0: given).
    Every vector lies in [0, 1] entrywise and sums to 1 within ``SUM_TOL``.
    """

    _fields = ("nu", "n", "exact")

    def __init__(self, nu, n: int, exact: bool) -> None:
        n = check_count(n, "counted digit count", 0)
        nu = tuple(float(v) for v in nu)
        if not all(0.0 <= v <= 1.0 for v in nu):
            raise ValidationError("frequencies must be finite and lie in [0, 1]")
        if abs(math.fsum(nu) - 1.0) > SUM_TOL:
            raise ValidationError("frequencies must sum to 1")
        self.__dict__.update(nu=nu, n=n, exact=exact)

    @property
    def s(self) -> int:
        return len(self.nu)


def check_alphabet(d: DigitString, s: int) -> None:
    """Raise ``AlphabetMismatch`` unless ``d`` is a string over the alphabet of size ``s``."""
    if d.s != s:
        raise AlphabetMismatch(f"digit string over alphabet {d.s} used with alphabet {s}")


def walk(digits, offsets, scales) -> tuple[float, float]:
    """Compose the maps ``t -> offsets[d] + scales[d] * t`` of ``digits``.

    Returns the composed ``(acc, prod)``: ``acc`` is the value of ``digits``
    followed by zeros and ``prod`` the scale left on the tail.
    """
    acc, prod = 0.0, 1.0
    for d in digits:
        acc += offsets[d] * prod
        prod *= scales[d]
    return acc, prod


def unwalk(t: float, offsets, scales, depth: int, digits=None) -> tuple[float, tuple[int, ...] | None]:
    """Greedy inverse of ``walk``: ``(acc, period)``, the value of the digits of ``t`` in [0, 1].

    Each step takes the digit ``d`` with ``offsets[d] <= t < offsets[d+1]``
    (the larger digit on a tie), appends it to the list ``digits`` when one
    is given, composes its map as ``walk`` does (``acc += offsets[d] *
    prod``, ``prod *= scales[d]``) and renormalizes ``t`` to ``(t -
    offsets[d]) / scales[d]``.  A residue of exactly 0 closes with period
    ``(0,)``; after ``depth`` digits the period is None (truncated).

    It serves y (``extrema``: the preimage digits over the digits below k,
    so it has no all-high close); the digits of x come from ``unwalk_into``.
    There the offsets ascend from ``offsets[0] = 0.0``, each is the running
    sum ``offsets[d+1] = fl(offsets[d] + scales[d])`` that ``running_sums``
    stores, every scale lies in (0, 1), and the top digit's map ends past
    1: ``offsets[-1] + scales[len(offsets) - 1] > 1``, as the regime gives.
    So the residue stays in [0, 1] with no clamp.  It never falls below 0:
    the difference is at least +0.0 since ``offsets[d] <= t``.  Nor does it
    pass 1, as rounding is monotone.  Below the top digit the double ``t <
    offsets[d+1]`` lies below the rounding midpoint, so ``t < offsets[d] +
    scales[d]``; at the top digit ``t <= 1 < offsets[d] + scales[d]``.
    Either way ``fl(t - offsets[d]) <= scales[d]``, and the quotient is at
    most 1.  And ``acc`` is the value ``selfaffine.evaluate`` gives the
    string of the digits, bit for bit: a closing run of zeros adds +0.0.
    Without a ``digits`` list the walk also stops, with period None, once
    ``offsets[-1] * prod * 2**55 < acc``.  No later term can change ``acc``
    then: each is at most that rounded product, below ``acc * 2**-55``,
    which is under half the spacing of the doubles around ``acc``.
    """
    t, depth = _descent_start(t, depth)
    top = offsets[-1] if digits is None else math.inf  # inf * prod never falls below acc
    acc, prod = 0.0, 1.0
    for _ in range(depth):
        if t == 0.0:
            return acc, (0,)
        if top * prod * 2.0**55 < acc:
            return acc, None
        d = bisect_right(offsets, t) - 1
        if digits is not None:
            digits.append(d)
        acc += offsets[d] * prod
        prod *= scales[d]
        t = (t - offsets[d]) / scales[d]
    return acc, None


def unwalk_into(t: float, offsets, scales, values, ratios, depth: int, stop: float, digits=None):
    """The one descent of x: greedy digits of ``t`` under ``(offsets, scales)``, composed under ``(values, ratios)``.

    Each step takes a digit as ``unwalk`` does, appends it to the list
    ``digits`` when one is given, and composes its map ``u -> values[d] +
    ratios[d] * u``.  It walks at most ``depth`` digits and stops early,
    before the next digit, once ``|prod| <= stop`` (a negative ``stop``
    never fires).  Returns ``(acc, prod, period)``: the composed value, the
    scale left on the unknown tail, and the period that closed the digits,
    or None when they are truncated (their ``prod`` can underflow to 0.0
    too).  A close leaves ``prod = 0.0``: a residue of 0 closes with ``(0,)``
    and keeps ``acc`` (the tail adds a signed zero), one of 1 closes with
    ``(s-1,)`` and gives ``acc_r + prod_r``, the state before the trailing
    run of high digits with the all-high tail, which is worth 1.  So
    ``(acc, prod)`` are the bits ``selfaffine.evaluate`` gives ``encode(t,
    ..., n)``, with ``prod`` times the span as its bound.
    """
    t, depth = _descent_start(t, depth)
    hi = len(offsets) - 1
    acc, prod = 0.0, 1.0
    acc_r, prod_r = acc, prod  # the state before the trailing run of hi digits
    for _ in range(depth):
        if t == 0.0:
            return acc, 0.0, (0,)
        if t == 1.0:
            return acc_r + prod_r, 0.0, (hi,)
        if abs(prod) <= stop:
            return acc, prod, None
        d = bisect_right(offsets, t) - 1
        if digits is not None:
            digits.append(d)
        acc += values[d] * prod
        prod *= ratios[d]
        t = (t - offsets[d]) / scales[d]
        if t > 1.0:  # offsets[-1] + scales[-1] can fall short of 1
            t = 1.0
        if d != hi:
            acc_r, prod_r = acc, prod
    return acc, prod, None


def _descent_start(t: float, depth: int) -> tuple[float, int]:
    depth = check_count(depth, "depth", 1)
    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise OutOfDomain(f"value {t!r} outside [0, 1]")
    return t, depth


def string_sum(prefix, period, offsets, scales) -> tuple[float, float]:
    """``(acc, prod)`` of ``prefix`` then ``period`` (None: truncated) under (offsets, scales).

    A truncated string gives ``walk`` of its prefix.  A period adds its
    value ``v = P / (1 - prod(scales over period))`` in closed form and
    leaves ``prod = 0.0``; the periods ``(0,)`` and ``(s-1,)`` are pinned to
    exactly 0 and 1, off which the quotient would drift by an ulp.
    """
    acc, prod = walk(prefix, offsets, scales)
    if period is None:
        return acc, prod
    if period == (0,):
        tail = 0.0
    elif period == (len(offsets) - 1,):
        tail = 1.0
    else:
        pacc, pprod = walk(period, offsets, scales)
        tail = pacc / (1.0 - pprod)
    return acc + prod * tail, 0.0


def decode(d: DigitString, Q: StochasticVector) -> float:
    """Sum the expansion of ``d`` under ``Q`` with ``string_sum``, clamped to at most 1.

    Periodic tails are summed in closed form.  For a truncated string the
    partial sum (the left endpoint of its cylinder) is returned; the caller's
    error is at most the cylinder length, i.e. the product of the consumed
    weights (see ``cylinder_bounds``).  The sum never falls below 0: every
    offset, weight and periodic tail is non-negative.  It can round above 1.
    """
    check_alphabet(d, Q.s)
    acc = string_sum(d.prefix, d.period, Q.beta, Q.q)[0]
    return 1.0 if acc > 1.0 else acc


def encode(x: float, Q: StochasticVector, depth: int) -> DigitString:
    """Up to ``depth`` digits of ``x``: those ``unwalk_into`` takes under ``(beta, q)``.

    At each step the digit ``i`` with ``beta_i <= t < beta_{i+1}`` is chosen;
    a tie at an exact boundary takes the larger digit, so terminating points
    come out in their low, ``(0,)``-tail form.  When the residue hits exactly
    0 or 1 the string is closed with the matching period and is exact;
    otherwise the truncated prefix is returned and ``decode`` of the result
    is within ``prod q_{a_j}`` of ``x``.
    """
    digits: list[int] = []
    period = unwalk_into(x, Q.beta, Q.q, Q.beta, Q.q, depth, -1.0, digits)[2]
    return DigitString._from_checked(tuple(digits), period, Q.s)


def twin_representation(d: DigitString) -> DigitString | None:
    """The other expansion of the same point, when one exists.

    A string ending in period ``(0,)`` with last prefix digit ``a`` rewrites
    to ``...[a-1]`` followed by the all-high period, and conversely.  Points
    with any other period, as well as 0 and 1 themselves, have a unique
    expansion and yield ``None``.  Truncated strings yield ``None``: the
    continuation is unknown.
    """
    low, high = (0,), (d.s - 1,)
    if not d.prefix or d.period not in (low, high):
        return None  # truncated, an interior period, or the points 0 and 1
    up = d.period == high
    last = d.prefix[-1] + (1 if up else -1)
    return DigitString._from_checked(d.prefix[:-1] + (last,), low if up else high, d.s)


def cylinder_bounds(base, Q: StochasticVector) -> tuple[float, float, float]:
    """(left, right, length) of the cylinder of all points whose expansion starts with ``base``.

    ``base`` goes through ``check_digits``.  ``left`` is the value of the
    base followed by zeros, ``length`` the product of the base weights, and
    ``right = left + length`` equals the value of the base followed by high
    digits.
    """
    base = check_digits(base, Q.s)
    left, prod = walk(base, Q.beta, Q.q)
    return left, left + prod, prod


def digit_frequencies(d: DigitString, n: int | None = None) -> FrequencyVector:
    """Digit frequencies over the first ``n`` digits, or the exact limit.

    With ``n=None`` the string must be exact and the limiting frequencies are
    computed from one primitive period (the prefix contributes nothing to the
    limit); the result is flagged ``exact``.
    """
    if n is None:
        if d.period is None:
            raise InsufficientDepth("limit frequencies need an exact (periodic) string")
        digits, n, exact = d.period, len(d.period), True
    else:
        n = check_count(n, "frequency prefix length", 1)
        digits, exact = d.head(n), False
    return FrequencyVector(tuple(digits.count(i) / n for i in range(d.s)), n=n, exact=exact)

