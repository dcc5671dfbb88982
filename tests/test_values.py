"""The contract of the value types: fields fixed at construction, compared by value.

Every type builds its fields once, validates them, and then refuses
assignment and deletion; equal fields mean equal values with equal hashes; ``repr`` names
the class.  ``SystemConfig`` compares its spellings and label only, not the
doubles parsed from them, and ``SelfAffineSystem`` caches its bounds and
its closed-form decision record in its instance ``__dict__``.
"""

import math

import pytest

from qsaffine import (
    AffineCoefficients,
    BoundsPair,
    CantorSpec,
    DigitString,
    FrequencyVector,
    HolderReport,
    LevelSetDescriptor,
    NonInvarianceReport,
    SelfAffineSystem,
    StochasticVector,
    SystemConfig,
    ValidationError,
)
from qsaffine import extrema, selfaffine
from qsaffine.codec import Frozen, cached

CANTOR_Q = (0.2, 0.4, 0.2, 0.2)
CANTOR_G = (0.4, 0.8, 0.4, -0.6)

# Each factory builds a fresh value from scratch; the name is a field it holds.
VALUES = {
    "StochasticVector": (lambda: StochasticVector(CANTOR_Q), "q"),
    "AffineCoefficients": (lambda: AffineCoefficients(CANTOR_G), "g"),
    "DigitString": (lambda: DigitString((1, 0), (0, 2), 3), "prefix"),
    "FrequencyVector": (lambda: FrequencyVector((0.25, 0.75), n=4, exact=True), "nu"),
    "BoundsPair": (lambda: BoundsPair(m=-0.25, M=2.0, iterations=1, residual=1e-15), "m"),
    "SelfAffineSystem": (lambda: SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G), "Q"),
    "SystemConfig": (
        lambda: SystemConfig(("1/5", "2/5", "1/5", "1/5"), ("2/5", "4/5", "2/5", "-3/5"), "cantor"),
        "q_text",
    ),
    "LevelSetDescriptor": (lambda: LevelSetDescriptor(y=0.625, V=frozenset({1, 3})), "y"),
    "CantorSpec": (
        lambda: CantorSpec(StochasticVector(CANTOR_Q), frozenset({1, 2})),
        "allowed",
    ),
    "NonInvarianceReport": (
        lambda: NonInvarianceReport(0.5, frozenset({0, 1}), True, 1.0, 64, 1e-12, 3e-13), "covering_proved"
    ),
    "HolderReport": (lambda: HolderReport(0.5, "global"), "exponent"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestEveryType:
    def test_equal_values_compare_and_hash_equal(self, name):
        make, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_assigning_a_field_raises(self, name):
        make, field = VALUES[name]
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        message = f"^cannot delete field {field!r} of a {name}$" if isinstance(value, Frozen) else None
        with pytest.raises(AttributeError, match=message):
            delattr(value, field)
        assert getattr(value, field) is before

    def test_repr_names_the_class(self, name):
        value = VALUES[name][0]()
        assert type(value).__name__ == name
        assert repr(value).startswith(name + "(")


class TestEquality:
    def test_types_with_equal_fields_differ(self):
        # a weight vector is not a ratio vector, although both hold (0.5, 0.5)
        assert StochasticVector((0.5, 0.5)) != AffineCoefficients((0.5, 0.5))

    def test_a_different_field_is_unequal(self):
        assert DigitString((1,), (0,), 3) != DigitString((1,), (0,), 4)
        assert HolderReport(0.5, "global") != HolderReport(0.5, "local_binary")
        assert BoundsPair(0.0, 1.0, 0, 0.0) != BoundsPair(0.0, 1.0, 1, 0.0)
        assert SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G) != SelfAffineSystem.from_values(
            (0.5, 0.5), (0.5, 0.5)
        )

    def test_positional_and_keyword_construction_agree(self):
        assert DigitString(prefix=(1, 0), period=(0, 2), s=3) == DigitString((1, 0), (0, 2), 3)
        assert HolderReport(exponent=0.5, kind="global") == HolderReport(
            0.5, "global", None, None, HolderReport(0.5, "global").note
        )
        assert BoundsPair(-0.25, 2.0, 1, 0.0) == BoundsPair(m=-0.25, M=2.0, iterations=1, residual=0.0)
        assert SystemConfig(q_text=("1/2", "1/2"), g_text=("1/2", "1/2"), label="x") == SystemConfig(
            ("1/2", "1/2"), ("1/2", "1/2"), "x"
        )


class TestSystemConfig:
    def test_equality_reads_spellings_and_label_only(self):
        a = SystemConfig(("1/2", "1/2"), ("1/2", "1/2"), "x")
        b = SystemConfig(("1/2", "1/2"), ("1/2", "1/2"), "x")
        object.__setattr__(b, "q", (0.25, 0.75))  # the parsed doubles take no part
        object.__setattr__(b, "g", (0.25, 0.75))
        assert a == b and hash(a) == hash(b)
        # the same doubles under other spellings, or another label, are another config
        assert a != SystemConfig(("0.5", "0.5"), ("1/2", "1/2"), "x")
        assert a != SystemConfig(("1/2", "1/2"), ("0.5", "0.5"), "x")
        assert a != SystemConfig(("1/2", "1/2"), ("1/2", "1/2"), "y")

    def test_repr_leaves_out_the_parsed_doubles(self):
        c = SystemConfig(("1/2", "1/2"), ("1/2", "1/2"), "x")
        assert c.q == (0.5, 0.5)
        assert repr(c) == "SystemConfig(q_text=('1/2', '1/2'), g_text=('1/2', '1/2'), label='x')"


class TestSelfAffineSystem:
    def test_bounds_are_cached_in_the_instance_dict(self):
        system = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        assert "bounds" not in system.__dict__
        first = system.bounds
        assert "bounds" in system.__dict__
        assert system.bounds is first
        # a computed cache changes neither equality nor hash
        fresh = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        assert system == fresh and hash(system) == hash(fresh)

    def test_decision_record_is_cached_in_the_instance_dict(self):
        system = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        assert extrema.closed_form_regime(system) == 3
        record = system.__dict__["_closed_forms"]
        assert extrema._closed_forms(system) is record and "bounds" not in system.__dict__
        # a computed record changes neither equality, hash nor repr
        fresh = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        assert system == fresh and hash(system) == hash(fresh) and repr(system) == repr(fresh)

    def test_logs_and_depth_are_cached(self):
        system = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        assert system.logs is system.logs
        assert system.default_depth == system.__dict__["default_depth"]

    @pytest.mark.parametrize("name", ["bounds", "logs", "default_depth"])
    def test_each_cached_value_is_computed_once(self, monkeypatch, name):
        calls = {"solver": 0, name: 0}
        solve = selfaffine._fixed_point_bounds
        compute = SelfAffineSystem.__dict__[name].func

        def counted_solve(system):
            calls["solver"] += 1
            return solve(system)

        def counted_compute(system):
            calls[name] += 1
            return compute(system)

        monkeypatch.setattr(selfaffine, "_fixed_point_bounds", counted_solve)
        monkeypatch.setattr(SelfAffineSystem.__dict__[name], "func", counted_compute)
        system = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        first = getattr(system, name)
        assert system.__dict__[name] is first
        for _ in range(3):
            assert getattr(system, name) is first
        system.default_depth, system.bounds  # the depth reads the bounds
        assert calls == {"solver": 1, name: 1}
        # a second instance computes its own
        assert getattr(SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G), name) == first
        assert calls == {"solver": 1 + (name != "logs"), name: 2}

    def test_cached_values_are_not_fields(self):
        system = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        fresh = SelfAffineSystem.from_values(CANTOR_Q, CANTOR_G)
        system.bounds, system.logs, system.default_depth
        assert {"bounds", "logs", "default_depth"} <= system.__dict__.keys()
        assert system == fresh and hash(system) == hash(fresh) and repr(system) == repr(fresh)
        assert "bounds" not in repr(system) and SelfAffineSystem._fields == ("Q", "G")
        with pytest.raises(AttributeError, match="cannot assign to field 'bounds'"):
            system.bounds = None

    def test_cached_values_keep_their_docstrings(self):
        for name, phrase in (
            ("bounds", "_fixed_point_bounds"), ("logs", "ln q_i"), ("default_depth", "DEPTH_TARGET")
        ):
            descriptor = getattr(SelfAffineSystem, name)
            assert isinstance(descriptor, cached) and phrase in descriptor.__doc__
            assert descriptor.__doc__ == descriptor.func.__doc__


class TestChecks:
    @pytest.mark.parametrize("m, M", [(0.1, 2.0), (-0.5, 0.5), (math.nan, 2.0), (0.0, math.nan)])
    def test_bounds_must_bracket_zero_and_one(self, m, M):
        with pytest.raises(ValidationError, match="bounds must bracket the attained values"):
            BoundsPair(m=m, M=M, iterations=0, residual=0.0)

    def test_bounds_at_the_attained_values_pass(self):
        b = BoundsPair(0.0, 1.0, 0, 0.0)
        assert b.span == 1.0

    def test_holder_kind_checked(self):
        with pytest.raises(ValidationError, match="unknown report kind 'local'"):
            HolderReport(0.5, "local")
        for kind in ("global", "local_unary", "local_binary", "almost_everywhere", "empirical"):
            assert HolderReport(0.5, kind).kind == kind

    @pytest.mark.parametrize("exponent", [-1e-300, -0.5, math.nan, -math.inf])
    def test_holder_exponent_non_negative(self, exponent):
        with pytest.raises(ValidationError, match="exponent must be non-negative"):
            HolderReport(exponent, "global")

    def test_holder_exponent_zero_and_defaults(self):
        r = HolderReport(0.0, "empirical")
        assert (r.frequencies_used, r.regression_points) == (None, None)
        assert r.note.startswith("certified below the exponent")

    def test_vectors_are_stored_normalized(self):
        Q = StochasticVector([0.25, 0.75])
        assert Q.q == (0.25, 0.75) and Q.beta == (0.0, 0.25) and Q.s == 2
        assert type(Q.q) is tuple
        assert FrequencyVector([0, 1], 2, False).nu == (0.0, 1.0)

    def test_cantor_spec_stores_a_frozenset(self):
        Q = StochasticVector(CANTOR_Q)
        spec = CantorSpec(Q, [2, 1])
        assert spec.allowed == frozenset({1, 2}) and type(spec.allowed) is frozenset
