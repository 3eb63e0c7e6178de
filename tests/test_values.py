"""The frozen value classes: one contract, checked on one instance of each."""

import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest

import machalg
from machalg import (
    Beth,
    Finite,
    LemmaViolation,
    MachineTemplate,
    TuringSpec,
    build_universality_report,
    card_pow,
    compile_mem,
    compile_tm,
    find_isomorphism,
    fn_from_map,
    is_complete,
    make_machine,
    parse_certificate,
    parse_turing,
    run_lemma_suite,
    run_to_fixpoint,
    simulate_tm,
    state_reduction,
    states,
    tm_to_mem,
    verify_lockstep,
)
from machalg.errors import _Value

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def instances() -> list:
    """One instance of each value class, built by library calls."""
    ss = states("a", "b")
    swap = fn_from_map(ss, {"a": "b", "b": "a"}, "swap")
    const = fn_from_map(ss, {"a": "b", "b": "b"}, "const")
    m = make_machine(ss, [swap, const], name="demo")
    sub = state_reduction(m, ["b"])
    trace = []
    card_pow(Finite(2), Beth(0), trace)
    report = build_universality_report()
    t = parse_turing((SAMPLES / "bitflip.tm").read_text())
    p = tm_to_mem(t)
    return [
        Finite(3), Beth(1), trace[0], MachineTemplate("quantum", m=2, n=2), report.simulator,
        report, find_isomorphism(m, m), is_complete(m, sub.result), LemmaViolation(2, "law"),
        run_lemma_suite(seed=1, iterations=3), ss, swap, m, run_to_fixpoint(const, "a", 5),
        run_to_fixpoint(swap, "a", 5), run_to_fixpoint(const, "a", 0), t.initial, t,
        simulate_tm(t, 5), compile_tm(t)[1], p.functions[0][0], p.initial_state, p,
        compile_mem(p)[1], verify_lockstep(t, p, 5), sub,
        parse_certificate("certificate iso\ng 1 0\nh 0\n"),
    ]


VALUES = instances()
IDS = [type(x).__name__ for x in VALUES]
MACHINE_REPR = (
    "Machine(states=StateSet(labels=('a', 'b')), tables=((1, 0), (1, 1)), "
    "function_names=('swap', 'const'), name='demo')"
)
# The dataclass repr of each, as the dataclass-built classes wrote it.
REPRS = {
    "Morphism": "Morphism(g=(0, 1), h=(0, 1))",
    "StateSet": "StateSet(labels=('a', 'b'))",
    "Machine": MACHINE_REPR,
    "Reduction": (
        f"Reduction(kind='state', source={MACHINE_REPR}, result=Machine(states=StateSet("
        "labels=('b',)), tables=((0,),), function_names=('const',), name='demo'), "
        "kept_functions=(), kept_states=('b',))"
    ),
    "Certificate": "Certificate(kind='iso', g=(1, 0), h=(0,), kept_functions=(), kept_states=())",
    "TmConfiguration": "TmConfiguration(register='q0', tape=('0',), head=0)",
}


def test_every_value_class_is_covered():
    public = {getattr(machalg, name) for name in machalg.__all__}
    value_classes = {c for c in public if isinstance(c, type) and issubclass(c, _Value)}
    assert len(value_classes) == 27
    assert {type(x) for x in VALUES} == value_classes


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_fields_are_the_init_parameters(x):
    params = list(inspect.signature(type(x).__init__).parameters)
    assert list(x._fields) == params[1:]


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_replace_and_pickle_give_an_equal_copy(x):
    for copy in (dataclasses.replace(x), pickle.loads(pickle.dumps(x))):
        assert type(copy) is type(x) and copy == x and repr(copy) == repr(x)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError):
        dataclasses.replace(Finite(1), n=-1)


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(x):
    for name in (x._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_hash_is_the_dataclass_hash(x):
    compared = tuple(getattr(x, f) for f in x._fields if f not in ("name", "function_names"))
    if isinstance(x, TuringSpec):  # its rules dict hashes as the set of its items
        rules = x._fields.index("rules")
        compared = (*compared[:rules], frozenset(x.rules.items()), *compared[rules + 1:])
        equal_copy = dataclasses.replace(x, rules=dict(reversed(x.rules.items())))
        assert equal_copy.rules is not x.rules and len({x, equal_copy}) == 1
    assert hash(x) == hash(compared)


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_another_type_is_never_equal(x):
    assert x.__eq__(object()) is NotImplemented
    assert (x == object()) is False
    assert (x != object()) is True


@pytest.mark.parametrize("x", [x for x in VALUES if type(x).__name__ in REPRS],
                         ids=[i for i in IDS if i in REPRS])
def test_repr_is_the_dataclass_repr(x):
    assert repr(x) == REPRS[type(x).__name__]
