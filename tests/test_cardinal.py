"""Cardinal arithmetic: exact finite values, absorption rules, templates."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from machalg import (
    Beth,
    CardinalOverflowError,
    FINITE_MAX,
    Finite,
    MachineTemplate,
    ParseError,
    UndefinedFormError,
    build_universality_report,
    card_add,
    card_mul,
    card_pow,
    evaluate_expression,
    state_cardinality,
    transition_space_cardinality,
)
from machalg import cardinal
from oracles import reference_evaluate_expression

finites = st.integers(min_value=0, max_value=10**6).map(Finite)
beths = st.integers(min_value=0, max_value=12).map(Beth)
cardinals = st.one_of(finites, beths)


class TestConstructorChecks:
    @pytest.mark.parametrize("cls, value, error, message", [
        (Finite, 1.0, TypeError, "Finite value must be an int, got 1.0"),
        (Finite, True, TypeError, "Finite value must be an int, got True"),
        (Finite, -1, ValueError, "Finite value must be non-negative, got -1"),
        (Beth, "0", TypeError, "Beth index must be an int, got '0'"),
        (Beth, False, TypeError, "Beth index must be an int, got False"),
        (Beth, -2, ValueError, "Beth index must be non-negative, got -2"),
    ])
    def test_bad_value_refused(self, cls, value, error, message):
        with pytest.raises(error) as e:
            cls(value)
        assert type(e.value) is error and str(e.value) == message


class TestFiniteArithmetic:
    def test_spot_values(self):
        assert card_add(Finite(2), Finite(3)) == Finite(5)
        assert card_mul(Finite(6), Finite(7)) == Finite(42)
        assert card_pow(Finite(2), Finite(10)) == Finite(1024)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_add_matches_ints(self, a, b):
        assert card_add(Finite(a), Finite(b)) == Finite(a + b)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_mul_matches_ints(self, a, b):
        assert card_mul(Finite(a), Finite(b)) == Finite(a * b)

    @given(st.integers(0, 30), st.integers(0, 12))
    def test_pow_matches_ints(self, a, b):
        if a == 0 and b == 0:
            return
        assert card_pow(Finite(a), Finite(b)) == Finite(a**b)

    def test_zero_pow_zero_undefined(self):
        with pytest.raises(UndefinedFormError):
            card_pow(Finite(0), Finite(0))

    def test_pow_identities(self):
        assert card_pow(Finite(0), Finite(5)) == Finite(0)
        assert card_pow(Finite(7), Finite(0)) == Finite(1)
        assert card_pow(Finite(1), Finite(999)) == Finite(1)

    def test_overflow_add(self):
        with pytest.raises(CardinalOverflowError):
            card_add(Finite(FINITE_MAX), Finite(1))

    def test_overflow_mul(self):
        with pytest.raises(CardinalOverflowError):
            card_mul(Finite(2**32), Finite(2**32))

    def test_overflow_pow(self):
        with pytest.raises(CardinalOverflowError):
            card_pow(Finite(2), Finite(63))
        assert card_pow(Finite(2), Finite(62)) == Finite(2**62)

    def test_huge_exponent_guarded(self):
        # must refuse without attempting the multiplication chain
        with pytest.raises(CardinalOverflowError):
            card_pow(Finite(3), Finite(10**15))


class TestInfiniteArithmetic:
    def test_absorption(self):
        assert card_add(Finite(5), Beth(0)) == Beth(0)
        assert card_add(Beth(2), Beth(1)) == Beth(2)
        assert card_mul(Finite(5), Beth(1)) == Beth(1)
        assert card_mul(Beth(0), Beth(3)) == Beth(3)

    def test_zero_annihilates(self):
        assert card_mul(Finite(0), Beth(5)) == Finite(0)
        assert card_mul(Beth(5), Finite(0)) == Finite(0)

    def test_power_ladder(self):
        assert card_pow(Finite(2), Beth(0)) == Beth(1)
        assert card_pow(Finite(10), Beth(3)) == Beth(4)
        assert card_pow(Beth(1), Beth(0)) == Beth(1)
        assert card_pow(Beth(1), Beth(1)) == Beth(2)
        assert card_pow(Beth(0), Beth(2)) == Beth(3)

    def test_finite_exponent_fixed(self):
        assert card_pow(Beth(1), Finite(1)) == Beth(1)
        assert card_pow(Beth(2), Finite(50)) == Beth(2)
        assert card_pow(Beth(0), Finite(0)) == Finite(1)

    def test_one_base_infinite_exponent(self):
        assert card_pow(Finite(1), Beth(4)) == Finite(1)

    def test_zero_base_infinite_exponent(self):
        assert card_pow(Finite(0), Beth(1)) == Finite(0)

    def test_ordering(self):
        assert Finite(10**18) < Beth(0) < Beth(1) < Beth(2)
        assert max(Finite(3), Beth(0)) == Beth(0)

    @given(cardinals, cardinals)
    def test_add_commutes(self, a, b):
        assert card_add(a, b) == card_add(b, a)

    @given(cardinals, cardinals)
    def test_mul_commutes(self, a, b):
        assert card_mul(a, b) == card_mul(b, a)

    @given(cardinals, cardinals, cardinals)
    def test_add_associates(self, a, b, c):
        assert card_add(card_add(a, b), c) == card_add(a, card_add(b, c))

    @given(st.one_of(finites, beths), beths)
    def test_infinite_operand_absorbs(self, a, b):
        assert card_add(a, b) == max(a, b)
        if a != Finite(0):
            assert card_mul(a, b) == max(a, b)


class TestTemplates:
    def test_finite_turing_spot(self):
        t = MachineTemplate("finite-turing", k=3, m=2, n=4)
        assert state_cardinality(t) == Finite(192)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5))
    def test_finite_turing_formula(self, k, m, n):
        t = MachineTemplate("finite-turing", k=k, m=m, n=n)
        assert state_cardinality(t) == Finite(k * m**n * n)

    def test_infinite_tape_turing(self):
        t = MachineTemplate("infinite-tape-turing", k=5, m=2)
        assert state_cardinality(t) == Beth(1)

    def test_infinite_tape_needs_two_symbols(self):
        with pytest.raises(ValueError):
            MachineTemplate("infinite-tape-turing", k=2, m=1)

    @given(st.integers(1, 10))
    def test_umm_any_width(self, n):
        assert state_cardinality(MachineTemplate("umm", n=n)) == Beth(1)

    def test_lsm(self):
        assert state_cardinality(MachineTemplate("lsm")) == Beth(1)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_quantum(self, m, n):
        assert state_cardinality(MachineTemplate("quantum", m=m, n=n)) == Beth(1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MachineTemplate("finite-turing", k=3, m=2)
        with pytest.raises(ValueError):
            MachineTemplate("lsm", n=2)
        with pytest.raises(ValueError):
            MachineTemplate("nonsense")
        with pytest.raises(ValueError):
            MachineTemplate("umm", n=0)

    def test_full_set_flag(self):
        assert MachineTemplate("umm", n=1).has_full_transition_set
        assert not MachineTemplate("lsm").has_full_transition_set
        assert not MachineTemplate("quantum", m=2, n=2).has_full_transition_set

    def test_trace_records_rules(self):
        trace = []
        state_cardinality(MachineTemplate("quantum", m=2, n=2), trace)
        rules = [s.rule for s in trace]
        assert "quotient-note" in rules
        assert any("pow" in r for r in rules)


class TestTransitionSpace:
    def test_infinite(self):
        assert transition_space_cardinality(Beth(1)) == Beth(2)
        assert transition_space_cardinality(Beth(0)) == Beth(1)

    def test_finite(self):
        assert transition_space_cardinality(Finite(2)) == Finite(4)
        assert transition_space_cardinality(Finite(3)) == Finite(27)
        assert transition_space_cardinality(Finite(1)) == Finite(1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            transition_space_cardinality(Finite(0))


class TestUniversalityVerdicts:
    """The two "not shown" verdicts, which no default template reaches."""

    COMPLETE = "|T| = Beth(1) <= |S| = Beth(1) and the simulator's transition set is full"

    def test_simulator_without_the_full_transition_set(self, monkeypatch):
        monkeypatch.setattr(MachineTemplate, "has_full_transition_set", property(lambda self: False))
        report = build_universality_report()
        reason = "the simulator lacks the full transition set"
        assert report.verdicts == (
            ("infinite-tape-turing(k=2, m=2)", "not shown", reason),
            ("lsm", "not shown", reason),
            ("quantum(m=2, n=2)", "not shown", reason),
        )
        assert report.all_complete is False

    def test_target_larger_than_the_simulator(self, monkeypatch):
        real = cardinal.state_cardinality
        monkeypatch.setattr(
            cardinal, "state_cardinality",
            lambda t, trace=None: Beth(2) if t.kind == "lsm" else real(t, trace),
        )
        report = build_universality_report()
        assert report.verdicts == (
            ("infinite-tape-turing(k=2, m=2)", "UMM-complete", self.COMPLETE),
            ("lsm", "not shown", "|T| = Beth(2) > |S| = Beth(1)"),
            ("quantum(m=2, n=2)", "UMM-complete", self.COMPLETE),
        )
        assert report.all_complete is False


class TestExpressions:
    def test_basic(self):
        assert evaluate_expression("2 ^ beth(0)") == Beth(1)
        assert evaluate_expression("(2 + 2) ^ 3") == Finite(64)
        assert evaluate_expression("beth(1) * beth(0) + 7") == Beth(1)
        assert evaluate_expression("2^2^2") == Finite(16)

    def test_precedence(self):
        assert evaluate_expression("2 + 3 * 4") == Finite(14)
        assert evaluate_expression("2 * 3 ^ 2") == Finite(18)

    def test_right_associative_power(self):
        assert evaluate_expression("2 ^ 3 ^ 2") == Finite(512)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            evaluate_expression("2 + ")
        assert e.value.line == 1
        with pytest.raises(ParseError):
            evaluate_expression("beth(-1)")
        with pytest.raises(ParseError):
            evaluate_expression("frob(2)")
        with pytest.raises(ParseError):
            evaluate_expression("(2 + 3")

    def test_undefined_form_propagates(self):
        with pytest.raises(UndefinedFormError):
            evaluate_expression("0 ^ 0")

    @pytest.mark.parametrize("text, column", [("\u00b2", 1), ("1 + \u0663", 5), ("beth(\uff11)", 6)])
    def test_only_ascii_digits_are_digits(self, text, column):
        with pytest.raises(ParseError) as e:
            evaluate_expression(text)
        assert (e.value.column, e.value.message) == (
            column, f"unexpected character {text[column - 1]!r}"
        )
        assert _outcome(evaluate_expression, text) == _outcome(reference_evaluate_expression, text)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    def test_literal_longer_than_int_converts(self):
        text = "2 + " + "9" * 5000
        with pytest.raises(ParseError) as e:
            evaluate_expression(text)
        assert (e.value.line, e.value.column) == (1, 5)
        assert e.value.message == "5000-digit number is too long"
        assert _outcome(evaluate_expression, text) == _outcome(reference_evaluate_expression, text)


# Pieces of expression text: literals at and past the 64-bit bound, beth
# with and without its argument, operators and spaces, then stray characters
# (a superscript digit passes str.isdigit() but is no digit to either evaluator).
_PIECES = (
    "0", "1", "2", "3", "7", "10", "63", "64", "4294967296", "9223372036854775808",
    "beth", "beth(0)", "beth(1)", "beth(12)", "(", ")", "+", "*", "^", " ", "\t",
)
_STRAYS = ("x", "-", "b", ",", "\u00b2")


def _outcome(evaluate, text):
    trace = []
    try:
        value = evaluate(text, trace)
    except Exception as e:  # the exception itself is the outcome under test
        return type(e), str(e), trace
    return value, trace


def _well_formed(rng, budget):
    """A random valid expression with at most ``budget`` operators."""
    if budget == 0 or rng.random() < 0.3:
        return rng.choice(("0", "1", "2", "3", "5", "63", "beth(0)", "beth(2)", "beth( 7 )"))
    op = rng.choice("+*^")
    split = rng.randint(0, budget - 1)
    text = f"{_well_formed(rng, split)} {op} {_well_formed(rng, budget - 1 - split)}"
    return f"({text})" if rng.random() < 0.4 else text


def _piece(rng):
    return rng.choice(_STRAYS if rng.random() < 0.02 else _PIECES)


def _expression_corpus(seed, count):
    """``count`` distinct strings: token soup, and valid expressions with
    and without one random edit."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        roll = rng.random()
        if roll < 0.35:
            text = "".join(_piece(rng) for _ in range(rng.randint(0, 16)))
        else:
            text = _well_formed(rng, rng.randint(0, 10))
            if roll < 0.7:
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice(("", _piece(rng))) + text[i + rng.randint(0, 2) :]
        if text not in seen:
            seen.add(text)
            yield text


class TestExpressionOracle:
    """The iterative evaluator against the recursive-descent reference:
    equal value, equal trace, or equal exception type and message."""

    def test_seeded_corpus(self):
        for text in _expression_corpus(seed=20171222, count=100_000):
            assert _outcome(evaluate_expression, text) == _outcome(
                reference_evaluate_expression, text
            ), text

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(_PIECES + _STRAYS), max_size=20).map("".join))
    def test_property(self, text):
        assert _outcome(evaluate_expression, text) == _outcome(
            reference_evaluate_expression, text
        )
