"""Command-line front end.

One process, one subcommand, deterministic output.  Exit codes: 0 for any
definite answer that matches ``--expect`` (or any definite answer when
``--expect`` is not given), 1 for a definite answer contradicting
``--expect``, 2 for errors and inconclusive searches.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .errors import MachalgError

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_STEPS = 50
# cardinal.TEMPLATE_KINDS, written out so that the command table loads no library module
_TEMPLATE_KINDS = ("finite-turing", "infinite-tape-turing", "umm", "lsm", "quantum")


# ---------------------------------------------------------------------------
# Universality report
# ---------------------------------------------------------------------------


def _render_universality(report, show_trace: bool) -> list[str]:
    out = ["universality report"]
    rows = [("simulator", report.simulator)] + [("target", r) for r in report.targets]
    for role, row in rows:
        full = " (full transition set)" if row.template.has_full_transition_set else ""
        out.append(
            f"{role} {row.template.describe()}: |S| = {row.states!r}, "
            f"|Phi| = {row.transitions!r}{full}"
        )
        if show_trace:
            out.extend(f"  {step}" for step in row.trace)
    for name, verdict, reason in report.verdicts:
        out.append(f"verdict {name}: {verdict} ({reason})")
    return out


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _definite(answer: bool, expect: str | None) -> int:
    if expect is None:
        return 0
    return 0 if answer == (expect == "yes") else 1


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _morphism_lines(b, sub, mor) -> list[str]:
    from .textio import display_names

    b_names = display_names(b)
    sub_names = display_names(sub)
    out = []
    for i, label in enumerate(b.states.labels):
        out.append(f"g: {label} -> {sub.states.labels[mor.g[i]]}")
    for j, name in enumerate(b_names):
        out.append(f"h: {name} -> {sub_names[mor.h[j]]}")
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_card(args) -> int:
    from .cardinal import (
        MachineTemplate,
        evaluate_expression,
        state_cardinality,
        transition_space_cardinality,
    )

    out = []
    trace = []
    if args.what in _TEMPLATE_KINDS:
        t = MachineTemplate(args.what, k=args.k, m=args.m, n=args.n)
        card = state_cardinality(t, trace)
        out.append(t.describe())
        out.append(f"|S| = {card!r}")
        if args.transition_space:
            card_phi = transition_space_cardinality(card, trace)
            out.append(f"|Phi| = {card_phi!r}")
    else:
        for name in ("k", "m", "n"):
            if getattr(args, name) is not None:
                raise MachalgError(f"--{name} only applies to template names")
        value = evaluate_expression(args.what, trace)
        out.append(f"{args.what} = {value!r}")
    if not args.no_trace:
        out.extend(f"  {step}" for step in trace)
    _emit(out)
    return 0


def _cmd_universality(args) -> int:
    from .cardinal import build_universality_report

    report = build_universality_report(k=args.k, m=args.m, n=args.n)
    _emit(_render_universality(report, show_trace=not args.no_trace))
    return _definite(report.all_complete, args.expect)


def _answer(args, word: str, cert=None, morphism_lines=()) -> int:
    """Print one answer of ``iso``, ``complete`` or ``submachine``: a bare
    ``word`` when there is no certificate; else the certificate under
    ``--format certificate``, or ``word``, the certificate's ``keep-`` lines
    and ``morphism_lines``."""
    from .textio import render_certificate

    if cert is None:
        _emit([word])
        return _definite(False, args.expect)
    text = render_certificate(cert)
    if args.format == "certificate":
        sys.stdout.write(text)
    else:
        keeps = [line for line in text.splitlines() if line.startswith("keep-")]
        _emit([word, *keeps, *morphism_lines])
    return _definite(True, args.expect)


def _cmd_iso(args) -> int:
    from .isomorphism import find_isomorphism
    from .textio import Certificate, parse_machine

    a = parse_machine(_read(args.a))
    b = parse_machine(_read(args.b))
    mor = find_isomorphism(a, b, node_budget=args.node_budget)
    if mor is None:
        return _answer(args, "not isomorphic")
    cert = Certificate("iso", g=mor.g, h=mor.h)
    return _answer(args, "isomorphic", cert, _morphism_lines(a, b, mor))


def _cmd_complete(args) -> int:
    from .isomorphism import is_complete
    from .textio import Certificate, parse_machine

    a = parse_machine(_read(args.a))
    b = parse_machine(_read(args.b))
    w = is_complete(a, b, method=args.method, node_budget=args.node_budget)
    if w is None:
        return _answer(args, "not complete")
    fr, sr = w.reductions
    cert = Certificate(
        "complete",
        g=w.morphism.g,
        h=w.morphism.h,
        kept_functions=fr.kept_functions,
        kept_states=sr.kept_states,
    )
    return _answer(args, "complete", cert, _morphism_lines(b, sr.result, w.morphism))


def _cmd_submachine(args) -> int:
    from .reductions import is_sub_machine
    from .textio import Certificate, parse_machine

    witness = is_sub_machine(parse_machine(_read(args.a)), parse_machine(_read(args.b)))
    if witness is None:
        return _answer(args, "not a sub-machine")
    fr, sr = witness
    cert = Certificate("submachine", kept_functions=fr.kept_functions, kept_states=sr.kept_states)
    return _answer(args, "sub-machine", cert)


def _cmd_reduce(args) -> int:
    from .reductions import functional_reduction, state_reduction
    from .textio import parse_machine, render_machine, resolve_function

    m = parse_machine(_read(args.machine))
    if args.keep_fns is None and args.keep_states is None:
        raise MachalgError("nothing to do: pass --keep-fns and/or --keep-states")
    # Each reduction runs only when asked for, so keeping every function
    # never lists the functions of a full container.
    if args.keep_fns is not None:
        m = functional_reduction(m, [resolve_function(m, tok) for tok in args.keep_fns.split(",") if tok]).result
    if args.keep_states is not None:
        m = state_reduction(m, [tok for tok in args.keep_states.split(",") if tok]).result
    sys.stdout.write(render_machine(m))
    return 0


def _emit_compiled(args, machine, facts) -> int:
    """Print a compiled machine: under ``--summary`` its state count, its one
    function and ``facts``, else its text."""
    from .textio import render_machine

    if args.summary:
        _emit([f"states {machine.n_states}", "functions 1", *facts])
    else:
        sys.stdout.write(render_machine(machine))
    return 0


def _cmd_compile_tm(args) -> int:
    from .models import compile_tm
    from .textio import parse_turing

    t = parse_turing(_read(args.tm))
    machine, codec = compile_tm(t)
    facts = [f"initial {codec.encode(t.initial)}", f"boundary {t.boundary_policy.value}"]
    return _emit_compiled(args, machine, facts)


def _cmd_compile_mem(args) -> int:
    from .models import compile_mem
    from .textio import parse_mem

    p = parse_mem(_read(args.mem))
    machine, codec = compile_mem(p)
    return _emit_compiled(args, machine, [f"initial {codec.encode(p.initial_state)}"])


def _cmd_tm2mem(args) -> int:
    from .models import tm_to_mem
    from .textio import parse_turing, render_mem

    t = parse_turing(_read(args.tm))
    sys.stdout.write(render_mem(tm_to_mem(t)))
    return 0


def _cmd_lockstep(args) -> int:
    from .models import tm_to_mem, verify_lockstep
    from .textio import parse_mem, parse_turing

    t = parse_turing(_read(args.tm))
    p = parse_mem(_read(args.mem)) if args.mem else tm_to_mem(t)
    report = verify_lockstep(t, p, args.steps)
    line = f"verified {report.steps_verified} step(s), {report.tm_outcome}, "
    if report.ok:
        line += "no divergence"
    else:
        step, detail = report.divergence
        line += f"divergence at step {step}: {detail}"
    _emit([line])
    return _definite(report.ok, args.expect)


def _sniff(text: str) -> str:
    """The first word of the first significant line, read alone."""
    from .textio import _significant_lines

    return next((body.split(None, 1)[0] for _, _, body in _significant_lines(text)), "")


def _cmd_sim(args) -> int:
    text = _read(args.file)
    kind = _sniff(text)
    if kind in ("tm", "mem") and (args.fn is not None or getattr(args, "from") is not None):
        raise MachalgError("--fn and --from apply to machine files only")
    write = sys.stdout.write  # each line as it is made: memory stays flat however long the run
    if kind == "tm":
        from .models import _tm_run
        from .textio import parse_turing

        for i, c in enumerate(_tm_run(parse_turing(text), args.steps)):
            if isinstance(c, str):
                write(f"outcome: {c} after {i - 1} step(s)\n")
            else:
                write(f"step {i}: register={c.register} tape={' '.join(c.tape)} head={c.head}\n")
    elif kind == "mem":
        from .models import mem_is_final, mem_step
        from .textio import parse_mem

        p = parse_mem(text)
        if args.steps < 0:
            raise ValueError("max_steps must be non-negative")
        s, i = p.initial_state, 0
        while True:
            fin = mem_is_final(p, s)
            sel = ",".join(str(c) for c in s.selector)
            write(f"step {i}: cells={' '.join(s.cells)} selector={sel} fn={s.fn}"
                  f"{' (final)' if fin else ''}\n")
            if fin or i == args.steps:
                break
            s, i = mem_step(p, s), i + 1
        write(f"outcome: final condition met after {i} step(s)\n" if fin
              else f"outcome: step limit after {args.steps} step(s)\n")
    elif kind == "machine":
        from .machine import Cycled, Halted, run_to_fixpoint
        from .textio import parse_machine, resolve_function

        m = parse_machine(text)
        if args.fn is None or getattr(args, "from") is None:
            raise MachalgError("machine simulation needs --fn and --from")
        f = m.functions[resolve_function(m, args.fn)]
        result = run_to_fixpoint(f, getattr(args, "from"), args.steps, record_trajectory=True)
        write("trajectory: " + " -> ".join(result.trajectory) + "\n")
        if isinstance(result, Halted):
            write(f"outcome: halted at {result.state} after {result.steps} step(s)\n")
        elif isinstance(result, Cycled):
            write(f"outcome: cycled, length {result.cycle_length}, "
                  f"entered at step {result.entry_step}\n")
        else:
            write(f"outcome: step limit after {result.steps} step(s)\n")
    else:
        raise MachalgError(
            f"cannot tell what {args.file!r} contains; expected a machine, tm or mem block"
        )
    return 0


def _cmd_verify(args) -> int:
    from .isomorphism import verify
    from .textio import parse_certificate, parse_machine

    cert = parse_certificate(_read(args.certificate))
    a = parse_machine(_read(args.a))
    b = parse_machine(_read(args.b))
    ok, reason = verify(cert, a, b)
    _emit(["certificate verifies"] if ok else [f"certificate rejected: {reason}"])
    return _definite(ok, args.expect)


def _cmd_check_lemmas(args) -> int:
    from .lemmas import LEMMA_NAMES, run_lemma_suite

    report = run_lemma_suite(
        args.seed, args.iters, max_states=args.max_states, max_functions=args.max_fns
    )
    out = [f"seed {report.seed}, {report.iterations} iterations"]
    for lemma in (1, 2, 3):
        bad = report.violations_for(lemma)
        out.append(
            f"lemma {lemma} ({LEMMA_NAMES[lemma]}): "
            f"{report.checked_for(lemma)} checked, {len(bad)} violation(s)"
        )
    for v in report.violations[:3]:
        out.append(f"  lemma {v.lemma} counterexample: {v.description}")
    _emit(out)
    return _definite(report.ok, args.expect)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# A flag is (name, kind, default, help): kind is bool for a switch, int, str,
# or the tuple of its choices, and a default of ... marks a required flag.
_EXPECT = ("--expect", ("yes", "no"), None, "exit 1 unless the definite answer matches")
_FORMAT = ("--format", ("text", "certificate"), "text",
           "certificate emits the stable machine-readable witness")
_BUDGET = ("--node-budget", int, DEFAULT_NODE_BUDGET, f"search node cap (default {DEFAULT_NODE_BUDGET})")
_NO_TRACE = ("--no-trace", bool, False, "suppress derivation steps")
_SUMMARY = ("--summary", bool, False, "print counts instead of the machine")
_AB = (("a", None), ("b", None))

# The one grammar of the command line, read by _read_argv and by build_parser:
# subcommand -> (handler, help, positionals as (name, help), flags).
_COMMANDS = {
    "card": (_cmd_card, "state-set cardinality of a template, or evaluate an expression",
             (("what", f"template ({', '.join(_TEMPLATE_KINDS)}) or expression like '2 ^ beth(0)'"),),
             (("--k", int, None, "register count (templates)"),
              ("--m", int, None, "symbol count (templates)"),
              ("--n", int, None, "cell count (templates)"),
              ("--transition-space", bool, False, "also compute |S|^|S|"), _NO_TRACE)),
    "universality": (_cmd_universality, "cardinality table plus simulate-everything verdicts", (),
                     (("--k", int, 2, "registers for the tape target (default 2)"),
                      ("--m", int, 2, "symbols / basis size (default 2)"),
                      ("--n", int, 2, "cells / unit count (default 2)"), _NO_TRACE, _EXPECT)),
    "iso": (_cmd_iso, "find an isomorphism between two machines", _AB, (_BUDGET, _FORMAT, _EXPECT)),
    "complete": (_cmd_complete, "embed the second machine into a sub-machine of the first", _AB,
                 (("--method", ("auto", "construct", "search"), "auto", None),
                  _BUDGET, _FORMAT, _EXPECT)),
    "submachine": (_cmd_submachine, "is the second machine a reduction of the first, labels literal",
                   _AB, (_FORMAT, _EXPECT)),
    "reduce": (_cmd_reduce, "apply functional and/or state reductions", (("machine", None),),
               (("--keep-fns", str, None, "comma-separated function names to keep"),
                ("--keep-states", str, None, "comma-separated states to keep"))),
    "compile-tm": (_cmd_compile_tm, "expand a tape machine into a one-function machine",
                   (("tm", None),), (_SUMMARY,)),
    "compile-mem": (_cmd_compile_mem, "expand a memory-cell program into a one-function machine",
                    (("mem", None),), (_SUMMARY,)),
    "tm2mem": (_cmd_tm2mem, "rebuild a tape machine as a memory-cell program", (("tm", None),), ()),
    "lockstep": (_cmd_lockstep, "run a tape machine and a program side by side", (),
                 (("--tm", str, ..., None),
                  ("--mem", str, None, "program file (default: translate the tape machine)"),
                  ("--steps", int, DEFAULT_STEPS, f"transitions to follow (default {DEFAULT_STEPS})"),
                  _EXPECT)),
    "sim": (_cmd_sim, "print the step-by-step run of a machine, tape machine, or program",
            (("file", None),),
            (("--steps", int, DEFAULT_STEPS, f"step cap (default {DEFAULT_STEPS})"),
             ("--fn", str, None, "function to iterate (machine files)"),
             ("--from", str, None, "start state (machine files)"))),
    "verify": (_cmd_verify, "re-check a certificate against two machine files, no search",
               (("certificate", None), *_AB), (_EXPECT,)),
    "check-lemmas": (_cmd_check_lemmas, "randomized reduction-law suite", (),
                     (("--seed", int, 0, None), ("--iters", int, 1000, None),
                      ("--max-states", int, 4, None), ("--max-fns", int, 6, None), _EXPECT)),
}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read from _COMMANDS alone; None
    where argparse must answer: help, a refusal, an abbreviated flag, ``--``,
    a value that starts with ``-``, or a switch written ``--name=value``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, positionals, flags = _COMMANDS[argv[0]]
    known = {flag[0]: flag for flag in flags}
    values = {name: None if default is ... else default for name, _, default, _ in flags}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        name, eq, value = token.partition("=")
        flag = known.get(name if eq else token)
        if flag is None or flag[1] is bool and eq:
            return None
        name, kind = flag[:2]
        if kind is not bool and not eq and (value := next(tokens, "-"))[:1] == "-":
            return None
        try:  # each value is checked as argparse checks it, the last one kept
            values[name] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            return None
        if isinstance(kind, tuple) and value not in kind:
            return None
    if len(given) != len(positionals) or any(
        default is ... and values[name] is None for name, _, default, _ in flags
    ):
        return None
    return SimpleNamespace(command=argv[0], **dict(zip((name for name, _ in positionals), given)),
                           **{name[2:].replace("-", "_"): v for name, v in values.items()}, run=run)


@functools.cache  # one parser per process: only help and refusals need it
def build_parser():
    """The argparse parser of _COMMANDS, which prints help and refusals."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # one line, no usage text, even for an argument holding "\n"
            raise MachalgError(" ".join(message.splitlines()))

    parser = _Parser(
        prog="machalg",
        description="Workbench for finite machines as sets of self-maps: "
        "cardinal bookkeeping, isomorphism and completeness certificates, "
        "reductions, and compilers from tape and memory-cell models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, positionals, flags) in _COMMANDS.items():
        p = subs.add_parser(command, help=summary)
        for name, text in positionals:
            p.add_argument(name, help=text)
        for name, kind, default, text in flags:
            if kind is bool:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=int if kind is int else None, required=default is ...,
                               default=None if default is ... else default, help=text,
                               choices=kind if isinstance(kind, tuple) else None)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    try:
        try:
            argv = sys.argv[1:] if argv is None else argv
            args = _read_argv(argv) or build_parser().parse_args(argv)
            return args.run(args)
        finally:
            sys.stdout.flush()  # a late error follows the lines already written
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (MachalgError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in machalg itself: still one line, exit 2
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
