import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import brentq

from qsaffine import (
    CantorSpec,
    CertificationError,
    ConditionsNotMet,
    DigitString,
    InvalidDigit,
    OutOfDomain,
    PreconditionViolated,
    SelfAffineSystem,
    StochasticVector,
    ValidationError,
    cantor_construction,
    closed_form_max,
    closed_form_min,
    closed_form_regime,
    derived_levels,
    evaluate,
    level_set,
    level_witness,
    maxima_set,
    membership,
    moran_dimension,
    non_invariance_certificate,
    preimage_digits,
    preimage_residual_bound,
)
from qsaffine import extrema
from qsaffine.codec import unwalk, walk
from qsaffine.config import SystemConfig, load_config
from helpers import (
    CANTOR_MAX,
    DEEP_MIN_S3,
    FIGURE_CONFIGS,
    IDENTITY_S3,
    LEVEL_SETS,
    ROUGH_S3,
    SINGULAR_S3,
    TIGHT_CONFIG,
    closing,
    random_regime_system,
    random_weights,
    reference_level_rows,
    reference_moran,
    reference_preimage,
    system as make_system,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
TIGHT = TIGHT_CONFIG.system()
# max(g[:k]) = 0.99: the witness products barely shrink, so the descent runs
# to its full depth.
NEAR_CRITICAL = SystemConfig(("1/3", "1/3", "1/3"), ("99/100", "3/10", "-29/100"), "near").system()
# Float delta_4 = 1.0000000000000002, so the system counts as in the regime,
# but in the stored doubles the seam between the images of maps 2 and 3
# leaves a gap: the covering of [0, L] fails.
SEAM = SystemConfig(("1/6",) * 6, ("1/13", "6/13", "3/13", "3/13", "-3/13", "3/13"), "seam").system()
# ROADMAP item 8b's false regime: delta_3 = 1 exactly in rationals, yet the
# stored doubles of g sum to 1 + 9/2**57, which makes L > 1 and the seams close.
FALSE_REGIME = SystemConfig(("1/5",) * 5, ("6/30", "23/30", "1/30", "-22/30", "22/30"), "8b").system()
# Seam 1 of each rounds its offset up (e_1 < 0), and the correctly rounded L - 1
# equals the correctly rounded -e_1 / g_1: only exact arithmetic tells that the
# first closes and the second leaves a gap.
TIE_CLOSED, TIE_OPEN = (
    make_system(closing([1 / 5] * 5), closing((*head, -0.25, 1.0)))
    for head in (
        (0.7893212821351178, 0.2106787178648821, 2.427659161360611e-16),
        (0.7666131799297081, 0.23338682007029174, 2.2994750829577327e-16),
    )
)
# g_0 = 9/16 + 3*2**-53 and g_2 = 1/4 - 2**-52, with g_1 = (1 - g_2)/4: seam 1
# rounds its offset up by e_1 = -2**-54 and its overlap g_1 (L - 1) + e_1 is
# exactly 0.  The images touch, so the covering holds, and the rounded L - 1
# and -e_1 / g_1 tie: only the ints decide.
TOUCH = make_system(
    closing([1 / 5] * 5), closing((0.5625000000000003, 0.18750000000000006, 0.24999999999999978, -0.25, 1.0))
)


def stepwise_moran(weights, lo_c, hi_c):
    """``extrema._moran_root``'s loop on the window ``(lo_c, hi_c)``, from the bracket (0, 1)
    one halving at a time; and the midpoints it sums."""
    lo, hi, mids = 0.0, 1.0, []
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo > extrema.MORAN_XTOL and not lo_c < mid < hi_c:
            h = 1.0 if mid <= lo_c else -1.0
        else:
            mids.append(mid)
            h = math.fsum(w**mid for w in weights) - 1.0
            if (hi - lo <= extrema.MORAN_XTOL and abs(h) <= extrema.MORAN_RESIDUAL) or not lo < mid < hi:
                return mid, mids
        if h > 0.0:
            lo = mid
        else:
            hi = mid


# Window ends for the bracket jump: anywhere around [0, 1], dyadic points
# j / 2**m up to m = 60, and the ends of [0, 1] and of its outer 2**-47 bins.
WINDOW_ENDS = st.one_of(
    st.floats(-0.5, 1.5),
    st.builds(lambda m, j: math.ldexp(j % (2**m + 1), -m), st.integers(0, 60), st.integers(0, 2**60)),
    st.sampled_from((0.0, 1.0, -5e-324, 1.0 + 2**-52, 2.0**-47, 1.0 - 2.0**-47, 0.5 + 2.0**-47)),
)
WINDOWS = st.one_of(
    st.tuples(WINDOW_ENDS, WINDOW_ENDS).map(sorted),
    # narrower than 2**-47, down to one ulp
    st.builds(lambda lo, e: (lo, lo + math.ldexp(1.0, -e)), WINDOW_ENDS, st.integers(47, 60)),
    st.just((0.0, 1.0)),  # _moran_window's fallback: plain bisection
).map(tuple).filter(lambda w: w[0] < w[1])
# A near tie: delta_1 / (1 - g_1) exceeds delta_2 / (1 - g_2) = 1 by 2e-12, so the
# LEVEL_TOL grouping takes k = 2 into V(M) and the closed forms fail their check
# "k not in V".  The functions that read only k never run those checks.
NEAR_TIE_CONFIG = SystemConfig(("2/5", "2/5", "1/5"), ("1/2", "0.500000000001", "-1e-12"), "near-tie")


def count_builds(monkeypatch) -> list:
    """Patch a counting spy onto the construction of ``extrema._closed_forms``' record."""
    builds = []
    real = extrema._ClosedForms

    def spy(*fields):
        builds.append(fields)
        return real(*fields)

    monkeypatch.setattr(extrema, "_ClosedForms", spy)
    return builds


def covering_reference(system, k):
    """The covering of ``[0, L]`` by the digit maps below k, decided in ``Fraction``s.

    Map a sends ``[0, L]`` onto ``[delta_a, delta_a + g_a L]``, ``L =
    delta_{k-1} / (1 - g_{k-1})``: the union covers ``[0, L]`` when
    ``L >= 1`` and each image reaches the next one's left end.
    """
    g = [Fraction(v) for v in system.G.g[:k]]
    delta = [Fraction(v) for v in system.G.delta[:k]]
    L = delta[-1] / (1 - g[-1])
    return L >= 1 and all(delta[a] + g[a] * L >= delta[a + 1] for a in range(k - 1)), L - 1


class TestRegime:
    def test_distinguished_digit(self):
        assert closed_form_regime(CANTOR_MAX) == 3
        assert closed_form_regime(ROUGH_S3) == 2
        assert closed_form_regime(SINGULAR_S3) == 2
        assert closed_form_regime(DEEP_MIN_S3) == 2

    def test_rejections(self):
        assert closed_form_regime(IDENTITY_S3) is None
        # one negative ratio but its offset stays below 1
        assert closed_form_regime(LEVEL_SETS) is None

    @given(
        s=st.integers(3, 7),
        sign=st.sampled_from((1.0, -1.0)),
        eps=st.floats(2.0**-53, 2.0**-10),
        g1=st.floats(-0.99, 0.99).filter(lambda v: abs(v) > 1e-3),
    )
    def test_digit_is_at_least_two_with_g0_near_one(self, s, sign, eps, g1):
        # delta_1 = g_0 stays below 1 however close |g_0| comes to it.
        g0 = sign * (1.0 - eps)
        rest = (1.0 - g0 - g1) / (s - 2)
        assume(1e-3 < abs(rest) < 1.0)
        system = make_system((1.0 / s,) * s, (g0, g1) + (rest,) * (s - 2))
        k = closed_form_regime(system)
        assert k is None or 2 <= k < s


class TestClosedForms:
    def test_maximum_values(self):
        M, V = closed_form_max(CANTOR_MAX)
        assert M == pytest.approx(2.0, abs=1e-12)
        assert V == frozenset({1, 2})
        M, V = closed_form_max(DEEP_MIN_S3)
        assert M == pytest.approx(6.0, abs=1e-12)
        assert V == frozenset({1})
        M, V = closed_form_max(ROUGH_S3)
        assert M == pytest.approx(2.0, abs=1e-12)
        assert V == frozenset({1})

    def test_minimum_values(self):
        assert closed_form_min(CANTOR_MAX) == 0.0
        assert closed_form_min(DEEP_MIN_S3) == pytest.approx(-1.5, abs=1e-12)
        assert closed_form_min(SINGULAR_S3) == 0.0

    def test_outside_regime(self):
        for system in (IDENTITY_S3, LEVEL_SETS):
            with pytest.raises(ConditionsNotMet):
                closed_form_max(system)
            with pytest.raises(ConditionsNotMet):
                closed_form_min(system)

    def test_randomized_oracle_agreement(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            system, k = random_regime_system(rng)
            M, V = closed_form_max(system)
            m = closed_form_min(system)
            b = system.bounds
            assert abs(M - b.M) <= 1e-10
            assert abs(m - b.m) <= 1e-10
            assert abs(m) < M
            assert 0 not in V and k not in V
            d, g = system.G.delta, system.G.g
            assert d[k - 1] / (1 - g[k - 1]) > d[k] / (1 - g[k])


class TestDecisionRecord:
    def test_every_function_reads_one_record(self, monkeypatch):
        calls = (
            closed_form_regime,
            closed_form_max,
            closed_form_min,
            maxima_set,
            lambda system: level_set(system, 2.0),
            lambda system: preimage_digits(system, 0.5, 64),
            lambda system: preimage_residual_bound(system, 64),
            non_invariance_certificate,
        )
        want = [call(CANTOR_MAX) for call in calls]
        builds = count_builds(monkeypatch)
        system = SelfAffineSystem(CANTOR_MAX.Q, CANTOR_MAX.G)  # equal to CANTOR_MAX, nothing cached
        assert [call(system) for call in calls] == want
        assert len(builds) == 1 and want[0] == 3

    def test_outside_the_regime_one_record_and_conditions_not_met(self, monkeypatch):
        builds = count_builds(monkeypatch)
        system = SelfAffineSystem(LEVEL_SETS.Q, LEVEL_SETS.G)
        assert closed_form_regime(system) is None
        for fn in (closed_form_max, closed_form_min, maxima_set, non_invariance_certificate):
            with pytest.raises(ConditionsNotMet):
                fn(system)
        with pytest.raises(ConditionsNotMet):
            preimage_digits(system, 0.5, 8)
        with pytest.raises(ConditionsNotMet):
            preimage_residual_bound(system, 8)
        assert sorted(level_set(system, 0.625).V) == [1, 3]
        assert len(builds) == 1 and builds[0][1:] == (None, None, None, None)

    def test_build_analysis_decides_the_regime_once(self, monkeypatch):
        # The regime is decided only where the record is built.
        from qsaffine.cli import build_analysis

        builds = count_builds(monkeypatch)
        config = load_config(CONFIG_DIR / "cantor_max.cfg")
        report = build_analysis(config, extrema.LEVEL_TOL, None)
        assert report["predicates"]["closed_form_regime"] == 3
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "field, change, message",
        [
            ("M", lambda forms: forms.M + 1e-9, "closed-form maximum"),
            ("V", lambda forms: forms.V | {0}, "cannot be maximum digits"),
            ("m", lambda forms: -forms.M, r"\|m\| < M violated"),
            ("m", lambda forms: forms.m - 1e-9, "closed-form minimum"),
        ],
    )
    def test_checks_read_the_record(self, field, change, message):
        # The checks run on whatever record the system holds: each planted fault
        # trips its own check in the three functions that return closed forms,
        # and the certificate, which reads only k, does not run them.
        system = SelfAffineSystem(CANTOR_MAX.Q, CANTOR_MAX.G)
        forms = extrema._closed_forms(system)
        system.__dict__["_closed_forms"] = forms._replace(**{field: change(forms)})
        for fn in (closed_form_max, closed_form_min, maxima_set):
            with pytest.raises(CertificationError, match=message):
                fn(system)
        assert non_invariance_certificate(system) == non_invariance_certificate(CANTOR_MAX)

    def test_exact_agreement_passes_at_zero_tolerance(self, monkeypatch):
        # Both tolerances are inclusive.  On the bundled regime systems M and m equal
        # the solver's bit for bit, and the maximum digits' quotients equal M, so
        # with ORACLE_TOL and LEVEL_TOL at 0 every check passes and V(M) is whole.
        monkeypatch.setattr(extrema, "ORACLE_TOL", 0.0)
        monkeypatch.setattr(extrema, "LEVEL_TOL", 0.0)
        for system, V in ((CANTOR_MAX, {1, 2}), (DEEP_MIN_S3, {1}), (ROUGH_S3, {1}), (SINGULAR_S3, {1})):
            system = SelfAffineSystem(system.Q, system.G)  # its record is built at LEVEL_TOL 0
            M, got = closed_form_max(system)
            assert got == V and (M, closed_form_min(system)) == (system.bounds.M, system.bounds.m)

    def test_near_tie_reads_k_unchecked(self):
        system = NEAR_TIE_CONFIG.system()
        assert closed_form_regime(system) == 2
        assert "bounds" not in system.__dict__  # deciding the regime needs no solver
        assert preimage_digits(system, 0.5, 8).to_text() == "1,(0)"
        assert non_invariance_certificate(system).covering_proved


class TestLevelSets:
    def test_continuum_level(self):
        desc = level_set(LEVEL_SETS, 0.625)
        assert desc.V == frozenset({1, 3})
        assert desc.continuum

    def test_zero_level_is_thin(self):
        for system in (CANTOR_MAX, LEVEL_SETS, IDENTITY_S3):
            desc = level_set(system, 0.0)
            assert desc.V == frozenset({0})
            assert not desc.continuum

    def test_digit_in_level_set_of_its_own_value(self):
        # level_sets puts digits 1 and 3 at 0.625; digit 3's quotient rounds
        # to 0.6249999999999999, which must still hold digit 3 at tolerance 0.
        for system in (CANTOR_MAX, LEVEL_SETS, SINGULAR_S3, ROUGH_S3, DEEP_MIN_S3, IDENTITY_S3):
            g, delta = system.G.g, system.G.delta
            for i in range(system.s):
                assert i in level_set(system, delta[i] / (1.0 - g[i]), 0.0).V

    def test_tolerance_is_measured_on_the_value(self):
        # Membership is |delta_i / (1 - g_i) - y| <= tol, whatever the ratio:
        # the residual delta_i - (1 - g_i) y would scale the tolerance by
        # 1 / (1 - g_i), 1000 times looser at g_i = 0.999 and 1.5 times
        # stricter at g_i = -0.5.  Digit 1 sits at 0.5 in both systems.
        near_critical = make_system((0.25, 0.5, 0.25), (0.0005, 0.999, 0.0005))
        negative = make_system((0.25, 0.5, 0.25), (0.75, -0.5, 0.75))
        for case in (near_critical, negative):
            g, delta = case.G.g, case.G.delta
            y1 = delta[1] / (1.0 - g[1])
            assert y1 == pytest.approx(0.5, abs=1e-15)
            assert level_set(case, y1 + 0.75e-10).V == frozenset({1})
            assert level_set(case, y1 + 2e-10).V == frozenset()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            level_set(LEVEL_SETS, 0.625, -1.0)

    def test_maximum_level(self):
        desc = level_set(CANTOR_MAX, 2.0)
        assert desc.V == frozenset({1, 2})
        assert desc.continuum

    def test_every_string_over_v_hits_the_level(self):
        rng = np.random.default_rng(21)
        for system, y in ((LEVEL_SETS, 0.625), (CANTOR_MAX, 2.0)):
            V = sorted(level_set(system, y).V)
            for _ in range(50):
                prefix = tuple(rng.choice(V, size=rng.integers(0, 5)))
                period = tuple(rng.choice(V, size=rng.integers(1, 5)))
                d = DigitString(prefix, period, system.s)
                assert evaluate(system, d).value == pytest.approx(y, abs=1e-10)


TOL = extrema.LEVEL_TOL


@st.composite
def near_tie_quotients(draw):
    """Quotient tuples of 2 to 9 digits in clusters: exact ties, and values one ulp
    either side of ``fl(v - y) = tol`` from an anchor y, at tolerance 0 or ``LEVEL_TOL``."""
    tol = draw(st.sampled_from((0.0, TOL)))
    anchor = st.one_of(st.sampled_from((0.625, 2.0)), st.floats(-3.0, 3.0))
    anchors = [0.0, -0.0, *draw(st.lists(anchor, min_size=1, max_size=3))]  # ties of 0.0 and -0.0
    quotients = []
    for _ in range(draw(st.integers(2, 9))):
        v, offset = draw(st.sampled_from(anchors)), draw(st.sampled_from((0.0, tol, -tol, 2 * tol)))
        if offset:  # -0.0 + 0.0 would be 0.0
            v += offset
        ulp = draw(st.sampled_from((0, 1, -1)))
        quotients.append(math.nextafter(v, ulp * math.inf) if ulp else v)
    return tuple(quotients), tol


class TestLevelRows:
    @given(case=near_tie_quotients())
    @example(case=((0.625, 0.6249999999999999, 0.625, 0.0), 0.0))
    @example(case=((1.0, 1.0 + TOL, 1.0, math.nextafter(1.0 + TOL, 2.0), -0.0, 0.0), TOL))
    def test_rows_match_the_reference(self, case):
        # repr tells -0.0 from 0.0: rows, their order and the digits in each match exactly
        quotients, tol = case
        assert repr(extrema._level_rows(quotients, tol)) == repr(reference_level_rows(quotients, tol))


class TestDerivedLevels:
    def test_geometric_cascade(self):
        got = derived_levels(LEVEL_SETS, 0.625, 2)
        assert got == pytest.approx([0.3125, 0.15625], abs=1e-14)

    def test_empty_for_zero_count(self):
        assert derived_levels(LEVEL_SETS, 0.625, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            derived_levels(LEVEL_SETS, 0.625, -1)

    def test_non_integral_count_rejected(self):
        # range() would raise a bare TypeError
        with pytest.raises(ValidationError, match="level count must be an integer; got 2.5"):
            derived_levels(LEVEL_SETS, 0.625, 2.5)
        assert derived_levels(LEVEL_SETS, 0.625, np.int64(1)) == derived_levels(LEVEL_SETS, 0.625, 1)

    def test_negative_leading_zeros_rejected(self):
        # (0,) * -3 is (), which gave the unshifted witness (1,2)
        with pytest.raises(ValidationError, match="leading zero count must be non-negative; got -3"):
            level_witness(LEVEL_SETS, {1, 2}, leading_zeros=-3)

    def test_non_integral_leading_zeros_rejected(self):
        with pytest.raises(ValidationError, match="leading zero count must be an integer; got 1.5"):
            level_witness(LEVEL_SETS, {1, 2}, leading_zeros=1.5)
        assert level_witness(LEVEL_SETS, {1, 2}, leading_zeros=np.int64(2)) == DigitString((0, 0), (1, 2), 5)

    def test_witness_rejects_non_integral_digits(self):
        # the class a digit outside the alphabet raises, from the DigitString built
        with pytest.raises(InvalidDigit):
            level_witness(LEVEL_SETS, (1.5, 3.9))
        with pytest.raises(InvalidDigit):
            level_witness(LEVEL_SETS, (1, 5))
        assert level_witness(LEVEL_SETS, (np.int64(3), True)) == DigitString((), (1, 3), 5)

    def test_witness_rejects_an_empty_digit_set(self):
        with pytest.raises(ValidationError, match="witness needs a non-empty digit set"):
            level_witness(LEVEL_SETS, [])

    def test_witness_identity(self):
        w = level_witness(LEVEL_SETS, (1, 3), leading_zeros=1)
        assert w == DigitString((0,), (1, 3), 5)
        got = evaluate(LEVEL_SETS, w).value
        assert got == pytest.approx(LEVEL_SETS.G.g[0] * 0.625, abs=1e-12)

    def test_requires_continuum_level(self):
        with pytest.raises(PreconditionViolated):
            derived_levels(LEVEL_SETS, 0.3, 2)

    def test_witness_off_by_more_than_tol_is_certification_error(self, monkeypatch):
        # Each derived level is certified by its witness's value; one that misses
        # y_n by twice the tolerance is a failed cross-check, not a level.
        real = extrema.evaluate

        def off(system, d):
            got = real(system, d)
            return got._replace(value=got.value + 2 * extrema.LEVEL_TOL)

        monkeypatch.setattr(extrema, "evaluate", off)
        with pytest.raises(CertificationError, match="witness for derived level 0.3125 evaluated to 0.3125000002"):
            derived_levels(LEVEL_SETS, 0.625, 2)

    def test_requires_a_positive_zero_digit_ratio(self):
        # y = 0 is a continuum level, V = {0, 2}, but g_0 < 0 cannot shift it.
        system = SelfAffineSystem.from_values((0.25,) * 4, (-0.5, 0.5, 0.5, 0.5))
        assert level_set(system, 0.0).V == {0, 2}
        with pytest.raises(PreconditionViolated, match="zero-digit ratio must be positive"):
            derived_levels(system, 0.0, 1)


class TestMoran:
    def test_full_alphabet_dimension_one(self):
        assert moran_dimension(CANTOR_MAX.Q, range(4)) == 1.0

    def test_singleton_dimension_zero(self):
        assert moran_dimension(CANTOR_MAX.Q, {1}) == 0.0

    def test_matches_independent_root_finder(self):
        q = CANTOR_MAX.Q
        for allowed in ({1, 2}, {0, 1, 2}, {0, 3}, {1, 2, 3}):
            weights = [q.q[i] for i in allowed]
            oracle = brentq(
                lambda x: math.fsum(w**x for w in weights) - 1.0, 1e-12, 1.0, xtol=1e-15
            )
            assert moran_dimension(q, allowed) == pytest.approx(oracle, abs=1e-12)

    def test_non_integral_digits_rejected(self):
        with pytest.raises(ValidationError):
            moran_dimension(CANTOR_MAX.Q, {1.5, 2.9})
        with pytest.raises(ValidationError):
            moran_dimension(CANTOR_MAX.Q, {1, 4})
        assert moran_dimension(CANTOR_MAX.Q, {np.int64(2), True}) == moran_dimension(CANTOR_MAX.Q, {1, 2})

    def test_objective_strictly_decreasing(self):
        weights = [CANTOR_MAX.Q.q[i] for i in (1, 2)]
        values = [math.fsum(w**x for w in weights) for x in np.linspace(0, 1, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(
        raw=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=5),
        tiny=st.lists(st.sampled_from((1e-300, 5e-324)), max_size=3),
        data=st.data(),
    )
    def test_root_exact_at_the_ends_and_solves_moran_inside(self, raw, tiny, data):
        # Weights near the underflow threshold make the slope of the Moran sum
        # reach about 745, so 1e-14 in x alone leaves a residual up to 2.4e-12.
        total = math.fsum(raw)
        big = [w / total for w in raw[:-1]]
        weights = data.draw(st.permutations([*big, 1.0 - math.fsum(big), *tiny]))
        Q = StochasticVector(weights)
        allowed = data.draw(st.sets(st.integers(0, Q.s - 1), min_size=1))
        x = moran_dimension(Q, allowed)
        if len(allowed) == Q.s:
            assert x == 1.0
        elif len(allowed) == 1:
            assert x == 0.0
        else:
            assert 0.0 < x < 1.0
            assert abs(math.fsum(Q.q[i] ** x for i in allowed) - 1.0) <= extrema.MORAN_RESIDUAL

    @given(
        s=st.integers(2, 8),
        kind=st.sampled_from(("plain", "tiny", "near_one")),
        data=st.data(),
    )
    def test_same_bits_as_plain_bisection(self, s, kind, data):
        # The certified window only skips sums whose sign it has proved, so
        # the root is bit for bit the one that sums every midpoint.
        if kind == "near_one":
            # one weight within 1e-9 of 1, the others sharing the rest
            rest = data.draw(st.floats(1e-15, 1e-9))
            raw = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=s - 1, max_size=s - 1))
            weights = closing([*(rest * w / math.fsum(raw) for w in raw), 1.0])
        else:
            big = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=s))
            room = s - len(big) if kind == "tiny" else 0
            tiny = data.draw(st.lists(st.sampled_from((5e-324, 1e-300)), max_size=room))
            weights = [*closing([w / math.fsum(big) for w in big]), *tiny]
            weights = data.draw(st.permutations(weights))
        Q = StochasticVector(weights)
        allowed = data.draw(st.sets(st.integers(0, Q.s - 1), min_size=1, max_size=Q.s - 1))
        assert moran_dimension(Q, allowed) == reference_moran(Q, allowed)

    @pytest.mark.parametrize("name", ("cantor_max", "deep_min_s3", "rough_s3", "singular_s3", "uniform_3998"))
    def test_regime_roots_same_bits_in_few_sums(self, name, monkeypatch):
        # The bundled regime configs' two Moran sets, V(M) and {0, ..., k-1},
        # and 3998 of 4000 equal weights (the s = 4000 regime system).  Plain
        # bisection sums 48 midpoints at least; at most 16 sums per root
        # (6 to 13 here) fails a window that falls back to it unnoticed.
        if name == "uniform_3998":
            Q, sets = StochasticVector(closing([1 / 4000] * 4000)), [range(3998)]
        else:
            system = load_config(CONFIG_DIR / f"{name}.cfg").system()
            Q, sets = system.Q, [range(closed_form_regime(system)), maxima_set(system).allowed]
            sets = [V for V in sets if len(V) > 1]  # a singleton returns 0.0 unsummed
        wants = [reference_moran(Q, allowed) for allowed in sets]
        real_fsum, sums = math.fsum, []

        def counting_fsum(values):
            sums[-1] += 1
            return real_fsum(values)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        for allowed, want in zip(sets, wants):
            sums.append(0)
            assert moran_dimension(Q, allowed) == want
        assert all(0 < n <= 16 for n in sums), sums

    @given(window=WINDOWS)
    @example(window=(-0.25, 0.3))  # lo_c <= 0
    @example(window=(0.7, 1.2))  # hi_c >= 1
    @example(window=(0.0, 1.0))
    @example(window=(0.3, 0.3 + 2.0**-50))  # inside one 2**-47 bin
    @example(window=(0.25, 0.375))  # dyadic ends
    @example(window=(0.5 - 2.0**-47, 0.5 + 2.0**-47))
    def test_bracket_jump_is_the_stepwise_halving(self, window):
        # _moran_root takes the unsummed halvings in one integer step; on any window
        # lo_c < hi_c, certified or not, it sums the midpoints the stepwise loop sums.
        Q, V = CANTOR_MAX.Q, frozenset({1, 2})
        want = stepwise_moran([Q.q[i] for i in sorted(V)], *window)
        mids = []

        def recording_repeat(x):
            mids.append(x)
            return itertools.repeat(x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extrema, "_moran_window", lambda weights: window)
            patch.setattr(extrema, "repeat", recording_repeat)
            got = extrema._moran_root(Q, V)
        assert (got, mids) == want

    @pytest.mark.parametrize(
        "expm1, settles",
        [(lambda v: math.nan, False), (lambda v, real=math.expm1: 0.5 * real(v), True)],
        ids=["newton-not-settled", "checks-fail-after-widening"],
    )
    def test_window_fallbacks_keep_the_bits(self, monkeypatch, expm1, settles):
        # Both (0, 1) fallbacks of _moran_window, with math.expm1 (the gap 1 - w_t^x)
        # patched for the length of the window's call only: a NaN gap keeps Newton
        # from settling in its 10 steps; a halved gap lets it settle, but off the
        # root, so the checks at both ends fail through every widening.  The root
        # then bisects (0, 1), bit for bit plain bisection.
        real_window, windows, steps = extrema._moran_window, [], []

        def patched_window(weights):
            steps.append(0)

            def counting_expm1(v):
                steps[-1] += 1
                return expm1(v)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(math, "expm1", counting_expm1)
                windows.append(real_window(weights))
            return windows[-1]

        monkeypatch.setattr(extrema, "_moran_window", patched_window)
        roots = [(CANTOR_MAX.Q, {0, 1, 2}), (LEVEL_SETS.Q, {1, 3}), (SINGULAR_S3.Q, {0, 1})]
        for Q, allowed in roots:
            assert moran_dimension(Q, allowed) == reference_moran(Q, allowed)
        assert windows == [(0.0, 1.0)] * len(roots)
        assert all(0 < n < 10 if settles else n == 10 for n in steps), steps

    @staticmethod
    def count_sums(monkeypatch, root, Q, allowed):
        """``root(Q, allowed)`` and the ``math.fsum`` calls it made."""
        real_fsum, sums = math.fsum, [0]

        def counting_fsum(values):
            sums[0] += 1
            return real_fsum(values)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        try:
            return root(Q, allowed), sums[0]
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("eps", (1e-6, 1e-7, 1e-8, 1e-9, 1e-12, 1e-15))
    def test_crawling_newton_costs_no_more_sums_than_bisection(self, eps, monkeypatch):
        # Weights (1 - eps, eps/2) over digits {0, 1}: from the Jensen start the
        # Moran sum behaves like one exponential, so Newton on ln sum w^x would
        # crawl by a constant step.  F = ln w_1^x - ln(1 - w_0^x) is near linear
        # here, and the window's Newton on it settles in a few steps (40 sums in
        # all at eps = 1e-9).  From about eps = 1.5e-10 down, no sum is spent on
        # a window at all.
        Q, allowed = StochasticVector((1.0 - eps, eps / 2, eps / 2)), {0, 1}
        want, plain = self.count_sums(monkeypatch, reference_moran, Q, allowed)
        got, ours = self.count_sums(monkeypatch, moran_dimension, Q, allowed)
        assert got == want
        assert plain == 48 and 0 < ours <= (48 if eps < 1.5e-10 else 42), ours

    def test_no_root_costs_more_sums_than_bisection(self, monkeypatch):
        # Seeded weight vectors of five kinds: moderate, spread over 6 or 320
        # decades, one weight near 1 beside tiny ones, and picks from 5e-324 to 1.
        rng = np.random.default_rng(27)
        picks = (5e-324, 1e-300, 1e-12, 1e-3, 0.3, 1.0)
        for i in range(400):
            s = int(rng.integers(2, 9))
            kind = i % 5
            if kind == 0:
                raw = rng.random(s) + 0.01
            elif kind in (1, 2):
                raw = 10.0 ** rng.uniform(-6 if kind == 1 else -320, 0, s)
            elif kind == 3:
                raw = 10.0 ** rng.uniform(-16, 0, s)
                raw[0] = 1.0
            else:
                raw = rng.choice(picks, s)
            raw = [float(v) for v in raw]
            weights = closing([v / math.fsum(raw) for v in raw])
            if not all(0.0 < w < 1.0 for w in weights):
                continue
            Q = StochasticVector(weights)
            allowed = {int(d) for d in rng.choice(s, int(rng.integers(2, s + 1)), replace=False)}
            if len(allowed) == s:
                allowed.pop()
            if len(allowed) < 2:
                continue
            want, plain = self.count_sums(monkeypatch, reference_moran, Q, allowed)
            got, ours = self.count_sums(monkeypatch, moran_dimension, Q, allowed)
            assert got == want and ours <= plain, (weights, allowed, ours, plain)

    def test_sweep_roots_same_bits_in_few_sums(self, monkeypatch):
        # The Moran roots `analyze` solves on the benchmark's analysis-sweep systems
        # of gen seeds 1 to 3 (657 roots): {0, ..., k-1} for each regime system, and
        # V(M) where it has two digits or more.  perfbench/gen.py is reached through
        # scripts/analysis_digest.py, as TestAnalyze::test_reports_keep_their_bytes
        # does.  A window that quietly fell back to plain bisection (48 sums a root
        # at least) fails the mean.
        spec = importlib.util.spec_from_file_location("analysis_digest", ROOT / "scripts" / "analysis_digest.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        roots = []
        for seed in script.SEEDS:
            for system_spec in script.gen.sweep_systems(random.Random(seed)):
                system = SystemConfig(system_spec.q_text, system_spec.g_text, system_spec.label).system()
                forms = extrema._closed_forms(system)
                if forms.k is not None:
                    roots += [(system.Q, V) for V in (range(forms.k), forms.V) if len(V) > 1]
        assert len(roots) == 657
        costs = []
        for Q, allowed in roots:
            want, plain = self.count_sums(monkeypatch, reference_moran, Q, allowed)
            got, ours = self.count_sums(monkeypatch, moran_dimension, Q, allowed)
            assert got == want and ours <= plain, (Q.q, sorted(allowed), ours, plain)
            costs.append(ours)
        assert sum(costs) / len(costs) <= 12.5, sum(costs) / len(costs)


class TestMaximaSet:
    def test_cantor_type_set(self):
        spec = maxima_set(CANTOR_MAX)
        assert sorted(spec.allowed) == [1, 2]
        assert not spec.singleton
        assert spec.dimension == pytest.approx(0.564, abs=1e-3)
        oracle = brentq(lambda x: 0.4**x + 0.2**x - 1.0, 1e-12, 1.0, xtol=1e-15)
        assert spec.dimension == pytest.approx(oracle, abs=1e-12)

    def test_three_letter_regime_is_singleton(self):
        # with s = 3 the maximum point is unique: the digit-1 fixed point
        for system in (SINGULAR_S3, ROUGH_S3, DEEP_MIN_S3):
            spec = maxima_set(system)
            assert spec.singleton and sorted(spec.allowed) == [1]
            assert spec.dimension == 0.0
            M, _ = closed_form_max(system)
            fixed = evaluate(system, DigitString((), (1,), 3)).value
            assert fixed == pytest.approx(M, abs=1e-12)

    @pytest.mark.parametrize("t", (1e-300, 5e-324))
    def test_tiny_weights_solve_moran(self, t):
        # Two maximum digits of weight t each: the root of 2 t^x = 1 sits
        # near 0.001, where the old 1e-14 stop left a residual of 1.4e-12
        # and 2.4e-12.  One such digit beside a weight of 1/4 never did.
        for q, V in (((0.5, t, t, 0.5), {1, 2}), ((0.5 - t, t, 0.25, 0.25), {1, 2})):
            spec = maxima_set(make_system(q, (0.4, 0.8, 0.4, -0.6)))
            assert spec.allowed == V and 0.0 < spec.dimension < 0.01
            residual = abs(math.fsum(spec.Q.q[i] ** spec.dimension for i in V) - 1.0)
            assert residual <= extrema.MORAN_RESIDUAL

    def test_wrong_root_is_certification_error(self, monkeypatch):
        # The spec works out its own dimension, so a root that misses the
        # Moran equation is a fault of the library, not of the input.
        root = extrema._moran_root  # the kernel behind moran_dimension
        monkeypatch.setattr(extrema, "_moran_root", lambda Q, V: root(Q, V) + 1e-6)
        with pytest.raises(CertificationError, match="Moran equation"):
            maxima_set(CANTOR_MAX)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            CantorSpec(CANTOR_MAX.Q, frozenset())

    def test_spec_rejects_non_integral_digits(self):
        with pytest.raises(ValidationError):
            CantorSpec(CANTOR_MAX.Q, frozenset({1.5, 2.9}))
        with pytest.raises(ValidationError):
            CantorSpec(CANTOR_MAX.Q, frozenset({1, 4}))
        assert CantorSpec(CANTOR_MAX.Q, frozenset({np.int64(2), True})).allowed == {1, 2}


class TestCantorConstruction:
    def test_first_stage(self):
        spec = maxima_set(CANTOR_MAX)
        stages = cantor_construction(spec, 1)
        (a, b), (c, d) = stages[0]
        assert (a, b) == (pytest.approx(0.2, abs=1e-12), pytest.approx(0.6, abs=1e-12))
        assert (c, d) == (pytest.approx(0.6, abs=1e-12), pytest.approx(0.8, abs=1e-12))
        merged = cantor_construction(spec, 1, merged=True)
        assert merged[0] == [(pytest.approx(0.2), pytest.approx(0.8))]

    def test_counts_and_measure(self):
        spec = maxima_set(CANTOR_MAX)
        stages = cantor_construction(spec, 6)
        keep = 0.4 + 0.2
        for t, intervals in enumerate(stages, start=1):
            assert len(intervals) == 2**t
            total = math.fsum(hi - lo for lo, hi in intervals)
            assert total == pytest.approx(keep**t, abs=1e-12)
            assert intervals == sorted(intervals)

    def test_singleton_nests(self):
        spec = CantorSpec(CANTOR_MAX.Q, frozenset({0}))
        stages = cantor_construction(spec, 4)
        for t, intervals in enumerate(stages, start=1):
            assert intervals == [(0.0, pytest.approx(0.2**t, rel=1e-12))]

    def test_interval_cap_rejects_before_construction(self):
        # |V| = 2: 19 steps keep 2**20 - 2 intervals in all, 20 steps 2**21 - 2.
        assert extrema.CANTOR_INTERVAL_CAP == 2**20
        spec = maxima_set(CANTOR_MAX)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"more than {2**20} intervals"):
                cantor_construction(spec, 20)
            with pytest.raises(ValidationError, match="intervals"):
                cantor_construction(spec, 10**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_interval_cap_counts_every_stage(self, monkeypatch):
        monkeypatch.setattr(extrema, "CANTOR_INTERVAL_CAP", 2**6)
        stages = cantor_construction(maxima_set(CANTOR_MAX), 5)
        assert sum(map(len, stages)) == 62
        with pytest.raises(ValidationError, match="6 construction steps need more than 64 intervals"):
            cantor_construction(maxima_set(CANTOR_MAX), 6)
        # A singleton keeps one interval per stage: the cap binds at cap + 1 steps.
        singleton = CantorSpec(CANTOR_MAX.Q, {1})
        assert len(cantor_construction(singleton, 64)) == 64
        with pytest.raises(ValidationError, match="65 construction steps"):
            cantor_construction(singleton, 65)


class TestMembership:
    def test_direct(self):
        spec = maxima_set(CANTOR_MAX)
        assert membership(spec, DigitString((), (1,), 4))
        assert membership(spec, DigitString((2, 1), (2, 1), 4))
        assert not membership(spec, DigitString((3,), (1,), 4))

    def test_twin_qualifies(self):
        spec = CantorSpec(CANTOR_MAX.Q, frozenset({0, 3}))
        # 1,(0) rewrites to 0,(3): the twin is inside the digit set
        assert membership(spec, DigitString((1,), (0,), 4))
        assert not membership(spec, DigitString((2,), (0,), 4))

    def test_members_attain_maximum(self):
        spec = maxima_set(CANTOR_MAX)
        rng = np.random.default_rng(4)
        for _ in range(50):
            period = tuple(rng.choice((1, 2), size=rng.integers(1, 6)))
            d = DigitString((), period, 4)
            assert membership(spec, d)
            assert evaluate(CANTOR_MAX, d).value == pytest.approx(2.0, abs=1e-12)

    def test_truncated_rejected(self):
        spec = maxima_set(CANTOR_MAX)
        with pytest.raises(PreconditionViolated):
            membership(spec, DigitString((1, 2), None, 4))


class TestPreimage:
    def test_zero_target(self):
        assert preimage_digits(CANTOR_MAX, 0.0, 16) == DigitString((), (0,), 4)

    def test_offset_targets_terminate(self):
        for system in (CANTOR_MAX, SINGULAR_S3, DEEP_MIN_S3):
            k = closed_form_regime(system)
            for j in range(1, k):
                y = system.G.delta[j]
                if y > 1.0:  # offsets past 1 are not valid targets
                    continue
                d = preimage_digits(system, y, 16)
                assert d == DigitString((j,), (0,), system.s)

    def test_digits_stay_below_k(self):
        rng = np.random.default_rng(8)
        k = closed_form_regime(CANTOR_MAX)
        for y in rng.random(50):
            d = preimage_digits(CANTOR_MAX, float(y), 40)
            assert all(dig < k for dig in (*d.prefix, *(d.period or ())))

    def test_descent_matches_clamped_reference(self):
        # unwalk keeps no clamp: each offset is the rounded running sum of the
        # ratios and the top map ends past 1, so no residue passes 1.  Its digits
        # are those of a descent that clamps, and its value is evaluate's.
        rng = np.random.default_rng(30)
        systems = [random_regime_system(rng)[0] for _ in range(40)]
        systems += [TIE_CLOSED, TIE_OPEN, SEAM, FALSE_REGIME, NEAR_CRITICAL, NEAR_TIE_CONFIG.system()]
        for system in systems:
            k = closed_form_regime(system)
            delta, g = system.G.delta, system.G.g
            ys = [0.0, 1.0, *map(float, rng.random(5))]
            for d in delta[:k]:
                if d <= 1.0:
                    below = math.nextafter(d, 0.0)
                    ys += [d, below, math.nextafter(below, 0.0)]
            for y in ys:
                want = preimage_digits(system, y, 64)
                assert want == reference_preimage(system, y, 64)
                assert unwalk(y, delta[:k], g, 64)[0] == evaluate(system, want).value

    def test_residual_bound(self):
        bound = preimage_residual_bound(CANTOR_MAX, 64)
        # (M - m) g_*^64 plus the rounding allowance 8 eps max(1, max|delta|) / (1 - g_*)^2
        rounding = 8.0 * sys.float_info.epsilon * 1.6 / (1.0 - 0.8) ** 2
        assert bound == pytest.approx(2.0 * 0.8**64 + rounding, rel=1e-12)
        d = preimage_digits(CANTOR_MAX, math.pi / 4, 64)
        residual = abs(evaluate(CANTOR_MAX, d).value - math.pi / 4)
        assert residual <= 3.0 * 0.8**64
        assert residual <= bound

    def test_domain_checked(self):
        with pytest.raises(OutOfDomain):
            preimage_digits(CANTOR_MAX, 1.2, 8)
        with pytest.raises(ConditionsNotMet):
            preimage_digits(LEVEL_SETS, 0.5, 8)


class TestNonInvariance:
    def test_dimension_only_report(self):
        rep = non_invariance_certificate(CANTOR_MAX)
        assert sorted(rep.restricted_digits) == [0, 1, 2]
        oracle = brentq(lambda x: 2 * 0.2**x + 0.4**x - 1.0, 1e-12, 1.0, xtol=1e-15)
        assert rep.dimension == pytest.approx(oracle, abs=1e-12)
        assert rep.dimension < 1.0
        # L = delta_2 / (1 - g_2) = 1.2 / 0.6 = 2 up to the rounding of the stored doubles
        assert rep.covering_proved and rep.covering_margin == pytest.approx(1.0, abs=1e-15)

    def test_witnesses_certified(self):
        bundled = [load_config(CONFIG_DIR / f"{name}.cfg").system() for name in FIGURE_CONFIGS]
        rng = np.random.default_rng(6)
        systems = [s for s in bundled if closed_form_regime(s) is not None]
        assert len(systems) == 4
        systems += [random_regime_system(rng)[0] for _ in range(8)] + [TIGHT, NEAR_CRITICAL, SEAM]
        for system in systems:
            for depth in (1, 16, 64, 200):
                rep = non_invariance_certificate(system, depth=depth)
                witness = preimage_digits(system, 1.0, depth)
                assert rep.max_residual == abs(evaluate(system, witness).value - 1.0)
                assert rep.max_residual <= rep.residual_bound == preimage_residual_bound(system, depth)
                assert rep.depth == depth

    def test_deterministic(self):
        assert non_invariance_certificate(CANTOR_MAX) == non_invariance_certificate(CANTOR_MAX)

    def test_dimension_of_one_is_certification_error(self, monkeypatch):
        # "Below 1" is strict: a root of exactly 1.0 fails, one ulp below it passes.
        monkeypatch.setattr(extrema, "_moran_root", lambda Q, V: 1.0)
        with pytest.raises(CertificationError, match="restricted digit set must have dimension below 1"):
            non_invariance_certificate(CANTOR_MAX)
        below = math.nextafter(1.0, 0.0)
        monkeypatch.setattr(extrema, "_moran_root", lambda Q, V: below)
        assert non_invariance_certificate(CANTOR_MAX).dimension == below

    def test_witness_residual_above_its_bound_is_certification_error(self, monkeypatch):
        # The residual check is inclusive: a bound equal to rough_s3's real
        # residual (3e-12 at depth 64) passes, one ulp below it fails.
        system = load_config(CONFIG_DIR / "rough_s3.cfg").system()
        residual = non_invariance_certificate(system).max_residual
        assert residual > 0.0
        monkeypatch.setattr(extrema, "preimage_residual_bound", lambda system, depth: residual)
        report = non_invariance_certificate(system)
        assert report.residual_bound == report.max_residual == residual
        below = math.nextafter(residual, 0.0)
        monkeypatch.setattr(extrema, "preimage_residual_bound", lambda system, depth: below)
        with pytest.raises(CertificationError, match=f"witness residual {residual!r} exceeds the guaranteed bound"):
            non_invariance_certificate(system)

    def test_outside_regime(self):
        with pytest.raises(ConditionsNotMet):
            non_invariance_certificate(IDENTITY_S3)

    def test_covering_matches_fraction_reference(self):
        bundled = [load_config(CONFIG_DIR / f"{name}.cfg").system() for name in FIGURE_CONFIGS]
        systems = [s for s in bundled if closed_form_regime(s) is not None]
        assert len(systems) == 4
        rng = np.random.default_rng(21)
        systems += [random_regime_system(rng)[0] for _ in range(240)]
        systems += [TIGHT, NEAR_CRITICAL, SEAM, FALSE_REGIME, TOUCH, NEAR_TIE_CONFIG.system()]
        for system in systems:
            k = closed_form_regime(system)
            proved, margin = covering_reference(system, k)
            rep = non_invariance_certificate(system)
            assert rep.covering_proved == proved
            assert rep.covering_margin == float(margin)  # the exact L - 1, rounded once

    def test_covering_at_the_rounding_edge(self):
        # g_0 + ... + g_{k-1} = 1 within two ulps: the float delta_k decides
        # the regime, and in it L - 1 and the seam margins are a few ulps, so
        # the covering goes either way and only exact arithmetic can tell.
        rng = np.random.default_rng(3)
        outcomes = []
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            head = list(closing(rng.dirichlet(np.ones(k))))
            head[-1] += float(rng.integers(-2, 3)) * 2.0**-53
            b = float(rng.uniform(0.05, 0.5))
            system = make_system(random_weights(rng, k + 2), closing((*head, -b, b)))
            if closed_form_regime(system) != k:
                continue
            proved, margin = covering_reference(system, k)
            rep = non_invariance_certificate(system)
            assert (rep.covering_proved, rep.covering_margin) == (proved, float(margin))
            outcomes.append(proved)
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 20

    @given(
        ratios=st.lists(
            st.one_of(
                st.floats(0.02, 0.98),
                st.sampled_from((5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-17)),  # subnormal to tiny
                st.sampled_from((1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-12, 0.999)),  # near 1
            ),
            min_size=1,
            max_size=4,
        ),
        at=st.integers(0, 4),
        t=st.floats(0.01, 0.99),
        share=st.floats(0.01, 0.99),
    )
    @example(ratios=[5e-324, 0.6], at=1, t=0.5, share=0.5)
    @example(ratios=[0.3, 1.0 - 2.0**-53], at=0, t=0.5, share=0.5)
    def test_covering_filter_matches_fraction_reference(self, ratios, at, t, share):
        # Regime systems whose ratios below k run from 5e-324 to one ulp below 1: the
        # float seam test with its exact fallback decides as Fractions do, and the
        # margin is the exact L - 1 rounded once (about 2**53 where 1 - g_{k-1} is one ulp).
        rest = math.fsum(ratios)
        assume(rest < 2.0)
        # One more ratio, inserted at `at`, brings the sum below k to 1 + f with f in (0, 1).
        f_lo, f_hi = max(0.0, rest - 1.0), min(1.0, rest)
        head = ratios[:at] + [1.0 + f_lo + t * (f_hi - f_lo) - rest] + ratios[at:]
        k, total = len(head), math.fsum(head)
        b = (total - 1.0) + share * (min(1.0, total) - (total - 1.0))  # g_k = -b, the last ratio 1 - total + b
        g = closing((*head, -b, 1.0))  # closing sets the last to 1 - fsum(the others)
        assume(0.0 < min(head) and max(head) < 1.0 and 0.0 < b < 1.0 and 0.0 < g[-1] < 1.0)
        system = make_system(closing([1.0 / (k + 2)] * (k + 2)), g)
        assume(closed_form_regime(system) == k)
        proved, margin = covering_reference(system, k)
        assert extrema._covering(system, k) == (proved, float(margin))

    def test_seams_are_decided_by_their_offsets_rounding(self):
        # A seam closes by L - 1 >= -e_a / g_a, e_a = delta_a + g_a - delta_{a+1} the
        # rounding error of the stored offset.  SEAM's seam 2 rounded up and its
        # correctly rounded L - 1 falls below -e_2 / g_2, so the ints decide it: open.
        # FALSE_REGIME's seam 0 has e_0 = 0 and closes with nothing to compare.
        for system, a, closes in ((SEAM, 2, False), (FALSE_REGIME, 0, True)):
            k = closed_form_regime(system)
            g, delta = system.G.g, system.G.delta
            e = Fraction(delta[a]) + Fraction(g[a]) - Fraction(delta[a + 1])
            proved, margin = covering_reference(system, k)
            if closes:
                assert e == 0
            else:
                assert e < 0 and float(margin) < float(-e / Fraction(g[a]))
            assert (Fraction(g[a]) * margin + e >= 0) == closes
            assert extrema._covering(system, k) == (proved, float(margin)) and proved == closes

    def test_seams_tied_in_floats_are_decided_exactly(self):
        # Reading the tie from the rounded values, either way round, gets one wrong;
        # an overlap of exactly 0 (TOUCH) closes the seam.
        for system, overlap_sign in ((TIE_CLOSED, 1), (TOUCH, 0), (TIE_OPEN, -1)):
            k = closed_form_regime(system)
            g, delta = system.G.g, system.G.delta
            e = Fraction(delta[1]) + Fraction(g[1]) - Fraction(delta[2])
            proved, margin = covering_reference(system, k)
            assert k == 3 and e < 0 and float(margin) == float(-e / Fraction(g[1]))
            overlap = Fraction(g[1]) * margin + e
            assert (overlap > 0) - (overlap < 0) == overlap_sign
            closes = overlap_sign >= 0
            assert proved == closes
            assert extrema._covering(system, k) == (proved, float(margin))
            assert non_invariance_certificate(system).covering_proved == closes

    def test_seam_gap_is_not_proved(self):
        assert SEAM.G.delta[4] == 1.0000000000000002 and closed_form_regime(SEAM) == 4
        rep = non_invariance_certificate(SEAM)
        assert not rep.covering_proved
        assert rep.covering_margin > 0.0  # L >= 1 holds; a seam fails
        delta, g = (tuple(map(Fraction, v)) for v in (SEAM.G.delta, SEAM.G.g))
        L = delta[3] / (1 - g[3])
        assert delta[2] + g[2] * L < delta[3]

    def test_false_regime_of_item_8b_is_proved(self):
        assert sum(map(Fraction, FALSE_REGIME.G.g)) == 1 + Fraction(9, 2**57)
        rep = non_invariance_certificate(FALSE_REGIME)
        assert closed_form_regime(FALSE_REGIME) == 3
        assert rep.covering_proved and rep.covering_margin > 0.0

    def test_witness_value_at_closing_targets(self):
        # At y = delta_a the walk closes with period (0,) after digit a (at
        # y = delta_0 = 0 before any digit): the forward walk of the digits
        # then equals evaluate of the canonical string, whose trailing zeros
        # are dropped.
        for system in (CANTOR_MAX, ROUGH_S3, DEEP_MIN_S3, TIGHT):
            k = closed_form_regime(system)
            delta, g = system.G.delta, system.G.g
            for y in [d for d in delta[:k] if d <= 1.0]:
                digits: list[int] = []
                acc, period = unwalk(y, delta[:k], g, 64, digits)
                assert period == (0,)
                want = evaluate(system, preimage_digits(system, y, 64)).value
                assert walk(digits, delta, g)[0] == acc == want

    @given(seed=st.integers(0, 2**32 - 1), y=st.floats(0.0, 1.0), depth=st.integers(1, 200))
    def test_witness_digits_stay_below_k(self, seed, y, depth):
        # The certificate keeps no restricted-digit check: unwalk bisects over
        # delta[:k] from delta_0 = 0, so no digit it returns can reach k.
        system, k = random_regime_system(np.random.default_rng(seed))
        delta, g = system.G.delta, system.G.g
        for t in (y, 0.0, 1.0, *(d for d in delta[:k] if d <= 1.0)):
            digits: list[int] = []
            unwalk(t, delta[:k], g, depth, digits)
            assert all(d < k for d in digits)

    @given(
        seed=st.integers(0, 2**32 - 1),
        y=st.just(1.0) | st.floats(0.0, 1.0),
        depth=st.sampled_from((1, 2, 5, 64, 200)),
    )
    def test_fused_witness_value_is_evaluate_of_its_digits(self, seed, y, depth):
        # unwalk composes the value in the descent that picks the digits; without
        # a digits list it may stop once no later term can change it.
        system, k = random_regime_system(np.random.default_rng(seed))
        delta, g = system.G.delta, system.G.g
        want = evaluate(system, preimage_digits(system, y, depth)).value
        digits: list[int] = []
        assert unwalk(y, delta[:k], g, depth, digits)[0] == want
        assert unwalk(y, delta[:k], g, depth)[0] == want
        assert walk(digits, delta, g)[0] == want
        if y == 1.0:
            rep = non_invariance_certificate(system, depth=depth)
            assert rep.max_residual == abs(want - 1.0)

    def test_early_stop_saves_digits_only_where_no_term_counts(self, monkeypatch):
        # TIGHT's low-digit ratios are at most 0.48, so the value of the y = 1
        # witness settles well before 64 digits; NEAR_CRITICAL's 0.99 never does.
        from qsaffine import codec

        for system, stops in ((TIGHT, True), (NEAR_CRITICAL, False)):
            k = closed_form_regime(system)
            delta, g = system.G.delta, system.G.g
            walked = []

            def counting_bisect(a, x, _real=codec.bisect_right):
                walked.append(x)
                return _real(a, x)

            monkeypatch.setattr(codec, "bisect_right", counting_bisect)
            value = unwalk(1.0, delta[:k], g, 64)[0]
            monkeypatch.undo()
            assert value == evaluate(system, preimage_digits(system, 1.0, 64)).value
            assert (len(walked) < 64) == stops, len(walked)

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValidationError, match="depth must be at least 1"):
            preimage_residual_bound(CANTOR_MAX, 0)
        with pytest.raises(ValidationError, match="depth must be at least 1"):
            non_invariance_certificate(CANTOR_MAX, depth=0)
        with pytest.raises(ValidationError, match="depth must be at least 1"):
            non_invariance_certificate(CANTOR_MAX, depth=-3)
