"""Algebra of finite machines built from total self-maps on a state set.

Submodules: ``cardinal`` (symbolic state-set sizes), ``machine`` (states,
transition functions, fixpoint runs), ``reductions`` (keeping fewer
functions or states), ``isomorphism`` (witness search, completeness and
embeddings, the certificate checker), ``models`` (tape machines and
memory-cell programs compiled down to machines), ``textio`` (file formats
and certificates), ``lemmas`` (randomized law checks), ``cli`` (command line).
"""

from .cardinal import (
    Beth,
    Cardinal,
    FINITE_MAX,
    Finite,
    MachineTemplate,
    TEMPLATE_KINDS,
    TraceStep,
    UniversalityReport,
    UniversalityRow,
    build_universality_report,
    card_add,
    card_mul,
    card_pow,
    evaluate_expression,
    state_cardinality,
    transition_space_cardinality,
)
from .errors import (
    CardinalOverflowError,
    DomainMismatchError,
    EmptyReductionError,
    EnumerationTooLargeError,
    IncompatibleShapesError,
    InvalidMachineError,
    InvalidReductionError,
    MachalgError,
    ParseError,
    SearchBudgetExceededError,
    TotalityViolationError,
    UndefinedFormError,
)
from .isomorphism import (
    CompletenessWitness,
    Morphism,
    find_isomorphism,
    is_complete,
    verify,
    verify_completeness,
    verify_morphism,
)
from .lemmas import (
    LemmaRunReport,
    LemmaViolation,
    random_machine,
    run_lemma_suite,
)
from .machine import (
    Cycled,
    DEFAULT_ENUMERATION_CAP,
    Halted,
    Machine,
    RunResult,
    StateSet,
    StepLimit,
    TransitionFunction,
    fn_from_map,
    full_bijection_machine,
    full_machine,
    identity_fn,
    make_machine,
    run_to_fixpoint,
    states,
)
from .models import (
    ERROR_LABEL,
    BoundaryPolicy,
    LockstepReport,
    MemEntry,
    MemProgram,
    MemState,
    MemStateCodec,
    Move,
    TmConfiguration,
    TmStateCodec,
    TmTrace,
    TuringSpec,
    compile_mem,
    compile_tm,
    mem_is_final,
    mem_run,
    mem_step,
    simulate_tm,
    tm_to_mem,
    verify_lockstep,
)
from .reductions import (
    Reduction,
    functional_reduction,
    is_sub_machine,
    state_reduction,
    sub_machine,
)
from .textio import (
    Certificate,
    parse_certificate,
    parse_machine,
    parse_mem,
    parse_turing,
    render_certificate,
    render_machine,
    render_mem,
    render_turing,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def __getattr__(name):
    # The command line loads on first use: imported here, it would already be
    # in sys.modules when ``python -m machalg.cli`` runs it as __main__.
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
