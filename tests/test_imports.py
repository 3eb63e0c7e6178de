"""What ``import machalg`` binds and loads, and what each command line call loads."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import machalg
from machalg import cardinal, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLES = ROOT / "samples"

# Every public name of the package, under the submodule that defines it.
PUBLIC = {
    "cardinal": (
        "Beth", "Cardinal", "FINITE_MAX", "Finite", "MachineTemplate", "TEMPLATE_KINDS",
        "TraceStep", "UniversalityReport", "UniversalityRow", "build_universality_report",
        "card_add", "card_mul", "card_pow", "evaluate_expression", "state_cardinality",
        "transition_space_cardinality",
    ),
    "errors": (
        "CardinalOverflowError", "DomainMismatchError", "EmptyReductionError",
        "EnumerationTooLargeError", "IncompatibleShapesError", "InvalidMachineError",
        "InvalidReductionError", "MachalgError", "ParseError", "SearchBudgetExceededError",
        "TotalityViolationError", "UndefinedFormError",
    ),
    "isomorphism": (
        "CompletenessWitness", "Morphism", "find_isomorphism", "is_complete", "verify",
        "verify_completeness", "verify_morphism",
    ),
    "lemmas": ("LemmaRunReport", "LemmaViolation", "random_machine", "run_lemma_suite"),
    "machine": (
        "Cycled", "DEFAULT_ENUMERATION_CAP", "Halted", "Machine", "RunResult", "StateSet",
        "StepLimit", "TransitionFunction", "fn_from_map", "full_bijection_machine",
        "full_machine", "identity_fn", "make_machine", "run_to_fixpoint", "states",
    ),
    "models": (
        "BoundaryPolicy", "ERROR_LABEL", "LockstepReport", "MemEntry", "MemProgram", "MemState",
        "MemStateCodec", "Move", "TmConfiguration", "TmStateCodec", "TmTrace", "TuringSpec",
        "compile_mem", "compile_tm", "mem_is_final", "mem_step", "simulate_tm",
        "tm_to_mem", "verify_lockstep",
    ),
    "reductions": (
        "Reduction", "functional_reduction", "is_sub_machine", "state_reduction", "sub_machine",
    ),
    "textio": (
        "Certificate", "parse_certificate", "parse_machine", "parse_mem", "parse_turing",
        "render_certificate", "render_machine", "render_mem", "render_turing",
    ),
}
NAMES = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` with src/ first on sys.path in an interpreter started with
    -I -S, so no site module or PYTHON* variable loads anything first; it
    prints one JSON object, returned here."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + code,
         *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPublicApi:
    def test_all_is_pinned(self):
        assert len(NAMES) == 95
        assert sorted(machalg.__all__) == NAMES
        assert "cli" not in machalg.__all__

    def test_each_name_is_its_home_modules(self):
        for home, names in PUBLIC.items():
            module = importlib.import_module("machalg." + home)
            assert getattr(machalg, home) is module
            for name in names:
                assert getattr(machalg, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from machalg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(machalg))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError) as err:
            machalg.no_such_name
        assert str(err.value) == "module 'machalg' has no attribute 'no_such_name'"

    def test_import_loads_no_submodule(self):
        loaded = fresh(
            "import json, machalg\n"
            "before = sorted(m for m in sys.modules if m.startswith('machalg.'))\n"
            "from machalg import *\n"
            "after = sorted(m for m in sys.modules if m.startswith('machalg.'))\n"
            "print(json.dumps([before, after]))\n"
        )
        assert loaded == [[], sorted(f"machalg.{home}" for home in PUBLIC)]

    def test_cli_template_list_is_cardinals(self):
        assert cli._TEMPLATE_KINDS == cardinal.TEMPLATE_KINDS


# The exit code, the machalg modules loaded, and which of the standard
# library's heavy introspection modules were loaded (-I -S: nothing loads
# them before the call).
CALL = """
import contextlib, io, json
from machalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("machalg.")),
                  sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""

UNUSED_BY_CARD = {"machine", "models", "textio", "reductions", "isomorphism", "lemmas"}
UNUSED_BY_SEARCH = {"cardinal", "models", "lemmas"}
UNUSED_BY_MODELS = {"cardinal", "isomorphism", "lemmas"}
UNUSED_BY_LEMMAS = {"cardinal", "models", "textio", "isomorphism"}


FOOTPRINT_CASES = [
    (["card", "quantum", "--m", "2", "--n", "2", "--transition-space"], UNUSED_BY_CARD),
    (["universality", "--no-trace", "--expect", "yes"], UNUSED_BY_CARD),
    (["iso", "const0.mx", "const1.mx", "--expect", "yes"], UNUSED_BY_SEARCH),
    (["complete", "switch.mx", "const0.mx", "--format", "certificate"], UNUSED_BY_SEARCH),
    (["submachine", "switch.mx", "switch.mx", "--expect", "yes"], UNUSED_BY_SEARCH),
    (["verify", "CERT", "const0.mx", "const1.mx", "--expect", "yes"], UNUSED_BY_SEARCH),
    (["reduce", "switch.mx", "--keep-fns", "hold"], UNUSED_BY_SEARCH),
    (["compile-tm", "bitflip.tm", "--summary"], UNUSED_BY_MODELS),
    (["compile-mem", "toggle.mem", "--summary"], UNUSED_BY_MODELS),
    (["tm2mem", "bitflip.tm"], UNUSED_BY_MODELS),
    (["lockstep", "--tm", "bitflip.tm", "--expect", "yes"], UNUSED_BY_MODELS),
    (["check-lemmas", "--seed", "1", "--iters", "20"], UNUSED_BY_LEMMAS),
]


@pytest.mark.parametrize("argv, unused", FOOTPRINT_CASES, ids=[c[0][0] for c in FOOTPRINT_CASES])
def test_each_call_loads_only_its_own_modules(tmp_path, argv, unused):
    cert = tmp_path / "iso.cert"
    cert.write_text("certificate iso\ng 1 0\nh 0\n", encoding="utf-8")
    files = {p.name: str(p) for p in SAMPLES.iterdir()} | {"CERT": str(cert)}
    code, loaded, heavy = fresh(CALL, *(files.get(a, a) for a in argv))
    assert code == 0
    assert "machalg.cli" in loaded
    assert not {f"machalg.{name}" for name in unused} & set(loaded), loaded
    assert heavy == [], heavy
