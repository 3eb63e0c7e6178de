"""Symbolic cardinal arithmetic over finite cardinals and Beth numbers.

Values are either ``Finite(n)`` with ``n`` a checked non-negative 64-bit
integer, or ``Beth(alpha)`` with a natural-number index: ``Beth(0)`` is the
cardinality of the naturals and ``Beth(alpha+1) = 2**Beth(alpha)``.  The
rewrite rules implemented here are the standard ones:

* ``mu + kappa = mu * kappa = max(mu, kappa)`` once either operand is
  infinite (with ``Finite(0)`` still annihilating products),
* ``mu ** Beth(a) = Beth(a+1)`` for ``2 <= mu <= Beth(a+1)``,
* ``Beth(a) ** kappa = Beth(a)`` for finite ``kappa >= 1``,
* and the closure ``Beth(b) ** Beth(a) = Beth(max(b, a+1))``, which the two
  rules above force by monotonicity (they agree on the overlap ``b = a+1``).

Every operation optionally appends ``TraceStep`` records to a caller-owned
list, so the CLI can print the derivation that produced a value.
``build_universality_report`` compares the templates' state cardinalities
with the full-transition-set simulator's.

``evaluate_expression`` reads integers, ``beth(i)``, ``+``, ``*``, ``^`` and
parentheses (``^`` tightest and right-associative).  It tokenises the whole
text, then one loop over a value stack and an operator stack applies each
operator as soon as precedence allows, so the trace and the first error
follow the order of the text and nesting depth is limited only by memory.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Optional, Union

from .errors import CardinalOverflowError, ParseError, UndefinedFormError, _Value

# Checked bound for Finite values: non-negative signed-64-bit range.
FINITE_MAX = 2**63 - 1


@total_ordering
class _Ordered:
    """What Finite and Beth share: one natural-number field, checked alike,
    and one order, in which every Finite sorts below every Beth."""

    def _store_natural(self, value, what: str) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{what} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{what} must be non-negative, got {value}")
        self._store(value)

    def __lt__(self, other):
        if not isinstance(other, _Ordered):
            return NotImplemented
        return _order_key(self) < _order_key(other)


class Finite(_Ordered, _Value):
    n: int

    def __init__(self, n):
        self._store_natural(n, "Finite value")
        if n > FINITE_MAX:
            raise CardinalOverflowError(f"Finite({n}) exceeds the checked 64-bit range")

    def __repr__(self):
        return f"Finite({self.n})"


class Beth(_Ordered, _Value):
    alpha: int

    def __init__(self, alpha):
        self._store_natural(alpha, "Beth index")

    def __repr__(self):
        return f"Beth({self.alpha})"


Cardinal = Union[Finite, Beth]


def _order_key(c: Cardinal) -> tuple[int, int]:
    # Every Finite sorts below every Beth; within a variant the value decides.
    if isinstance(c, Finite):
        return (0, c.n)
    return (1, c.alpha)


class TraceStep(_Value):
    """One rewrite applied during a cardinal computation."""

    rule: str
    text: str

    def __init__(self, rule, text):
        self._store(rule, text)

    def __str__(self):
        return f"[{self.rule}] {self.text}"


Trace = list  # list[TraceStep]; caller-owned accumulator


def _note(trace: Optional[Trace], rule: str, text: str) -> None:
    if trace is not None:
        trace.append(TraceStep(rule, text))


def _checked_finite(value: int, what: str) -> Finite:
    if value > FINITE_MAX:
        raise CardinalOverflowError(f"{what} = {value} exceeds the checked 64-bit range")
    return Finite(value)


def _absorb(a: Cardinal, b: Cardinal, op: str, rule: str, trace: Optional[Trace]) -> Cardinal:
    # Once either operand is infinite, the larger absorbs the other under + and *.
    result = max(a, b, key=_order_key)
    text = f"mu {op} kappa = max(mu, kappa) when either is infinite"
    _note(trace, rule, f"{a!r} {op} {b!r} = {result!r} ({text})")
    return result


def card_add(a: Cardinal, b: Cardinal, trace: Optional[Trace] = None) -> Cardinal:
    """Cardinal sum: exact on finites, max once either operand is infinite."""
    if isinstance(a, Finite) and isinstance(b, Finite):
        result = _checked_finite(a.n + b.n, f"{a!r} + {b!r}")
        _note(trace, "finite-add", f"{a!r} + {b!r} = {result!r} (exact integer sum)")
        return result
    return _absorb(a, b, "+", "infinite-max-add", trace)


def card_mul(a: Cardinal, b: Cardinal, trace: Optional[Trace] = None) -> Cardinal:
    """Cardinal product: exact on finites, max once either operand is infinite.

    ``Finite(0)`` annihilates even against infinite factors.
    """
    if a == Finite(0) or b == Finite(0):
        _note(trace, "annihilate", f"{a!r} * {b!r} = Finite(0) (zero annihilates any product)")
        return Finite(0)
    if isinstance(a, Finite) and isinstance(b, Finite):
        result = _checked_finite(a.n * b.n, f"{a!r} * {b!r}")
        _note(trace, "finite-mul", f"{a!r} * {b!r} = {result!r} (exact integer product)")
        return result
    return _absorb(a, b, "*", "infinite-max-mul", trace)


def card_pow(base: Cardinal, exp: Cardinal, trace: Optional[Trace] = None) -> Cardinal:
    """Cardinal exponentiation.

    Raises UndefinedFormError on ``0 ** 0`` and CardinalOverflowError when a
    finite-by-finite power leaves the checked range.
    """
    if base == Finite(0) and exp == Finite(0):
        raise UndefinedFormError("Finite(0) ** Finite(0) has no defined value")
    if exp == Finite(0):
        _note(trace, "pow-zero-exp", f"{base!r} ** Finite(0) = Finite(1) (empty product)")
        return Finite(1)
    if base == Finite(1):
        _note(trace, "pow-base-one", f"Finite(1) ** {exp!r} = Finite(1)")
        return Finite(1)
    if base == Finite(0):
        # exp >= Finite(1) here; no map from a non-empty set into the empty set.
        _note(trace, "pow-base-zero", f"Finite(0) ** {exp!r} = Finite(0)")
        return Finite(0)
    if isinstance(exp, Finite):
        if isinstance(base, Finite):
            # Guard before computing: 2**64 already overflows, so any base >= 2
            # with exponent above 63 is out of range.
            if exp.n > 63:
                raise CardinalOverflowError(
                    f"{base!r} ** {exp!r} exceeds the checked 64-bit range"
                )
            result = _checked_finite(base.n**exp.n, f"{base!r} ** {exp!r}")
            _note(trace, "finite-pow", f"{base!r} ** {exp!r} = {result!r} (exact integer power)")
            return result
        result = Beth(base.alpha)
        _note(
            trace,
            "beth-finite-pow",
            f"{base!r} ** {exp!r} = {result!r} (beth_a ** k = beth_a for finite k >= 1)",
        )
        return result
    # exp is Beth(alpha)
    if isinstance(base, Finite):
        result = Beth(exp.alpha + 1)
        _note(
            trace,
            "finite-beth-pow",
            f"{base!r} ** {exp!r} = {result!r} (mu ** beth_a = beth_(a+1) for 2 <= mu <= beth_(a+1))",
        )
        return result
    result = Beth(max(base.alpha, exp.alpha + 1))
    _note(
        trace,
        "beth-beth-pow",
        f"{base!r} ** {exp!r} = {result!r} (beth_b ** beth_a = beth_(max(b, a+1)))",
    )
    return result


# ---------------------------------------------------------------------------
# Machine-size templates
# ---------------------------------------------------------------------------

# Which parameters each kind requires.
_TEMPLATE_PARAMS = {
    "finite-turing": ("k", "m", "n"),
    "infinite-tape-turing": ("k", "m"),
    "umm": ("n",),
    "lsm": (),
    "quantum": ("m", "n"),
}
TEMPLATE_KINDS = tuple(_TEMPLATE_PARAMS)


class MachineTemplate(_Value):
    """A named machine family whose state-set size is computed symbolically.

    ``finite-turing(k, m, n)``: k control registers, m tape symbols, n tape
    cells.  ``infinite-tape-turing(k, m)``: countably many cells (m >= 2 so
    the written-tape component is a genuine power of the continuum).
    ``umm(n)``: n cells each holding a continuum of values.  ``lsm``: a
    reservoir of continuum-valued units.  ``quantum(m, n)``: n qudits with m
    basis states each.
    """

    kind: str
    k: Optional[int]
    m: Optional[int]
    n: Optional[int]

    def __init__(self, kind, k=None, m=None, n=None):
        self._store(kind, k, m, n)
        if self.kind not in TEMPLATE_KINDS:
            raise ValueError(f"unknown template kind {self.kind!r}; expected one of {TEMPLATE_KINDS}")
        required = _TEMPLATE_PARAMS[self.kind]
        for name in ("k", "m", "n"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValueError(f"template {self.kind!r} requires parameter {name}")
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"template parameter {name} must be a positive integer, got {value!r}")
            elif value is not None:
                raise ValueError(f"template {self.kind!r} does not take parameter {name}")
        if self.kind == "infinite-tape-turing" and self.m < 2:
            # With a single tape symbol the tape component collapses to one
            # state and the machine is only countable.
            raise ValueError("infinite-tape-turing requires m >= 2 tape symbols")

    @property
    def has_full_transition_set(self) -> bool:
        """True when the family supports every self-map of its state set."""
        return self.kind == "umm"

    def describe(self) -> str:
        params = ", ".join(
            f"{name}={getattr(self, name)}" for name in _TEMPLATE_PARAMS[self.kind]
        )
        return f"{self.kind}({params})" if params else self.kind


def _continuum(trace: Optional[Trace]) -> Cardinal:
    # |R| = 2 ** |N|, computed rather than asserted.
    return card_pow(Finite(2), Beth(0), trace)


def state_cardinality(t: MachineTemplate, trace: Optional[Trace] = None) -> Cardinal:
    """Size of the internal-state set of a template machine.

    Each case is computed through its defining chain of products and powers,
    never returned as a hard-coded constant.
    """
    if t.kind == "finite-turing":
        _note(trace, "state-product", f"|S| = k * m^n * n with k={t.k}, m={t.m}, n={t.n}")
        tape = card_pow(Finite(t.m), Finite(t.n), trace)
        return card_mul(card_mul(Finite(t.k), tape, trace), Finite(t.n), trace)
    if t.kind == "infinite-tape-turing":
        _note(trace, "state-product", f"|S| = k * m^beth_0 * beth_0 with k={t.k}, m={t.m}")
        tape = card_pow(Finite(t.m), Beth(0), trace)
        return card_mul(card_mul(Finite(t.k), tape, trace), Beth(0), trace)
    if t.kind == "umm":
        _note(trace, "state-power", f"|S| = |R|^n with n={t.n} continuum-valued cells")
        return card_pow(_continuum(trace), Finite(t.n), trace)
    if t.kind == "lsm":
        _note(trace, "state-continuum", "|S| = |R|: unconstrained continuum-valued units")
        return _continuum(trace)
    if t.kind == "quantum":
        basis = card_pow(Finite(t.m), Finite(t.n), trace)
        assert isinstance(basis, Finite)
        _note(trace, "state-power", f"|S| = |C|^(m^n) with m^n = {basis.n} basis amplitudes")
        reals = _continuum(trace)
        complexes = card_mul(reals, reals, trace)
        result = card_pow(complexes, basis, trace)
        _note(
            trace,
            "quotient-note",
            "normalization and global-phase quotients leave the cardinality unchanged (absorbed)",
        )
        return result
    raise AssertionError(f"unhandled template kind {t.kind!r}")


def transition_space_cardinality(state_card: Cardinal, trace: Optional[Trace] = None) -> Cardinal:
    """Number of self-maps on a state set of the given size: |S| ** |S|."""
    if state_card < Finite(1):
        raise ValueError("transition_space_cardinality requires at least one state")
    _note(trace, "self-map-count", f"|Phi| = |S| ** |S| with |S| = {state_card!r}")
    return card_pow(state_card, state_card, trace)


# ---------------------------------------------------------------------------
# Universality report
# ---------------------------------------------------------------------------


class UniversalityRow(_Value):
    template: MachineTemplate
    states: Cardinal
    transitions: Cardinal
    trace: tuple[TraceStep, ...]

    def __init__(self, template, states, transitions, trace):
        self._store(template, states, transitions, trace)


class UniversalityReport(_Value):
    """Cardinality table plus simulate-everything verdicts.

    A target is marked "UMM-complete" exactly when its state cardinality is
    at most the simulator's and the simulator carries the full transition
    set; both facts are computed, never assumed.
    """

    simulator: UniversalityRow
    targets: tuple[UniversalityRow, ...]
    verdicts: tuple[tuple[str, str, str], ...]

    def __init__(self, simulator, targets, verdicts):
        self._store(simulator, targets, verdicts)

    @property
    def all_complete(self) -> bool:
        return all(v == "UMM-complete" for _, v, _ in self.verdicts)


def _universality_row(t: MachineTemplate) -> UniversalityRow:
    trace: list[TraceStep] = []
    card = state_cardinality(t, trace)
    phi = transition_space_cardinality(card, trace)
    return UniversalityRow(t, card, phi, tuple(trace))


def build_universality_report(k: int = 2, m: int = 2, n: int = 2) -> UniversalityReport:
    simulator = _universality_row(MachineTemplate("umm", n=n))
    targets = (
        _universality_row(MachineTemplate("infinite-tape-turing", k=k, m=m)),
        _universality_row(MachineTemplate("lsm")),
        _universality_row(MachineTemplate("quantum", m=m, n=n)),
    )
    verdicts = []
    for row in targets:
        small_enough = row.states <= simulator.states
        full_set = simulator.template.has_full_transition_set
        if small_enough and full_set:
            verdict = "UMM-complete"
            reason = (
                f"|T| = {row.states!r} <= |S| = {simulator.states!r} "
                "and the simulator's transition set is full"
            )
        elif not full_set:
            verdict = "not shown"
            reason = "the simulator lacks the full transition set"
        else:
            verdict = "not shown"
            reason = f"|T| = {row.states!r} > |S| = {simulator.states!r}"
        verdicts.append((row.template.describe(), verdict, reason))
    return UniversalityReport(simulator, targets, tuple(verdicts))


# ---------------------------------------------------------------------------
# Expression grammar: integers, beth(alpha), + * ^, parentheses
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Split ``text`` into ``(kind, value, position)`` tokens ending in ``end``."""
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise _expr_error(f"{j - i}-digit number is too long", i) from None
            i = j
        elif text.startswith("beth", i):
            tokens.append(("beth", None, i))
            i += 4
        elif ch in "+*^()":
            tokens.append((ch, None, i))
            i += 1
        else:
            raise _expr_error(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _expr_error(message: str, column: int) -> ParseError:
    return ParseError(message, line=1, column=column + 1)


def evaluate_expression(text: str, trace: Optional[Trace] = None) -> Cardinal:
    """Evaluate a cardinal arithmetic expression like ``2 ^ beth(0) + 5``."""
    tokens = _tokenize(text)
    apply = {"+": card_add, "*": card_mul, "^": card_pow}
    values: list[Cardinal] = []
    ops: list[str] = []  # pending operators and "(" markers
    i = 0
    while True:
        # Operand position: any number of "(", then one value.
        kind, value, pos = tokens[i]
        i += 1
        if kind == "(":
            ops.append(kind)
            continue
        if kind == "int":
            values.append(Finite(value))
        elif kind == "beth":
            k, _, p = tokens[i]
            if k != "(":
                raise _expr_error("expected '(' after beth", p)
            k, index, p = tokens[i + 1]
            if k != "int":
                raise _expr_error("expected a non-negative integer index in beth(...)", p)
            k, _, p = tokens[i + 2]
            if k != ")":
                raise _expr_error("expected ')' closing beth(...)", p)
            values.append(Beth(index))
            i += 3
        else:
            raise _expr_error(f"expected a value, got {kind!r}", pos)
        # Operator position: apply the pending operators above the innermost
        # "(" that bind at least as tightly as the next token (all of them if
        # it is not an operator, none if it is the right-associative "^").
        while True:
            kind, _, pos = tokens[i]
            i += 1
            rank = "+*^".find(kind)
            while kind != "^" and ops and ops[-1] != "(" and "+*^".find(ops[-1]) >= rank:
                values[-2:] = [apply[ops.pop()](*values[-2:], trace)]
            if rank >= 0:
                ops.append(kind)
                break
            if not ops:
                if kind == "end":
                    return values[0]
                raise _expr_error(f"unexpected token {kind!r}", pos)
            if kind != ")":
                raise _expr_error("expected ')'", pos)
            ops.pop()  # the ")" closes the innermost "("
