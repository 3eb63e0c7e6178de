"""Algebra of finite machines built from total self-maps on a state set.

Submodules: ``cardinal`` (symbolic state-set sizes), ``machine`` (states,
transition functions, fixpoint runs), ``reductions`` (keeping fewer
functions or states), ``isomorphism`` (witness search, completeness and
embeddings, the certificate checker), ``models`` (tape machines and
memory-cell programs compiled down to machines), ``textio`` (file formats
and certificates), ``lemmas`` (randomized law checks), ``cli`` (command line).

``import machalg`` loads no submodule.  Each public name below loads the
submodule that defines it on first access (PEP 562), so a caller pays only
for the submodules it uses.
"""

_EXPORTS = {
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
        "ERROR_LABEL", "BoundaryPolicy", "LockstepReport", "MemEntry", "MemProgram", "MemState",
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    import importlib

    # ``cli`` loads on first access too, and stays out of __all__ as before.
    # Nothing here imports it: once it is in sys.modules, ``python -m
    # machalg.cli`` warns as it runs the module again as __main__.
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later lookups are plain attribute reads
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))
