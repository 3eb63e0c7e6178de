"""Command-line front end.

One process, one subcommand, deterministic output.  Exit codes: 0 for any
definite answer that matches ``--expect`` (or any definite answer when
``--expect`` is not given), 1 for a definite answer contradicting
``--expect``, 2 for errors and inconclusive searches.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import MachalgError

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_STEPS = 50
# cardinal.TEMPLATE_KINDS, written out so that build_parser loads no library module
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
# Parser
# ---------------------------------------------------------------------------


def _add_expect(sub) -> None:
    sub.add_argument(
        "--expect",
        choices=("yes", "no"),
        default=None,
        help="exit 1 unless the definite answer matches",
    )


def _add_format(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("text", "certificate"),
        default="text",
        help="certificate emits the stable machine-readable witness",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage text, even for an argument holding "\n"
        raise MachalgError(" ".join(message.splitlines()))


@functools.cache  # one parser per process: each main() call reads it, none changes it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="machalg",
        description="Workbench for finite machines as sets of self-maps: "
        "cardinal bookkeeping, isomorphism and completeness certificates, "
        "reductions, and compilers from tape and memory-cell models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("card", help="state-set cardinality of a template, or evaluate an expression")
    p.add_argument("what", help=f"template ({', '.join(_TEMPLATE_KINDS)}) or expression like '2 ^ beth(0)'")
    p.add_argument("--k", type=int, default=None, help="register count (templates)")
    p.add_argument("--m", type=int, default=None, help="symbol count (templates)")
    p.add_argument("--n", type=int, default=None, help="cell count (templates)")
    p.add_argument("--transition-space", action="store_true", help="also compute |S|^|S|")
    p.add_argument("--no-trace", action="store_true", help="suppress derivation steps")
    p.set_defaults(run=_cmd_card)

    p = subs.add_parser("universality", help="cardinality table plus simulate-everything verdicts")
    p.add_argument("--k", type=int, default=2, help="registers for the tape target (default 2)")
    p.add_argument("--m", type=int, default=2, help="symbols / basis size (default 2)")
    p.add_argument("--n", type=int, default=2, help="cells / unit count (default 2)")
    p.add_argument("--no-trace", action="store_true", help="suppress derivation steps")
    _add_expect(p)
    p.set_defaults(run=_cmd_universality)

    p = subs.add_parser("iso", help="find an isomorphism between two machines")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"search node cap (default {DEFAULT_NODE_BUDGET})")
    _add_format(p)
    _add_expect(p)
    p.set_defaults(run=_cmd_iso)

    p = subs.add_parser("complete", help="embed the second machine into a sub-machine of the first")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--method", choices=("auto", "construct", "search"), default="auto")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"search node cap (default {DEFAULT_NODE_BUDGET})")
    _add_format(p)
    _add_expect(p)
    p.set_defaults(run=_cmd_complete)

    p = subs.add_parser("submachine", help="is the second machine a reduction of the first, labels literal")
    p.add_argument("a")
    p.add_argument("b")
    _add_format(p)
    _add_expect(p)
    p.set_defaults(run=_cmd_submachine)

    p = subs.add_parser("reduce", help="apply functional and/or state reductions")
    p.add_argument("machine")
    p.add_argument("--keep-fns", default=None, help="comma-separated function names to keep")
    p.add_argument("--keep-states", default=None, help="comma-separated states to keep")
    p.set_defaults(run=_cmd_reduce)

    p = subs.add_parser("compile-tm", help="expand a tape machine into a one-function machine")
    p.add_argument("tm")
    p.add_argument("--summary", action="store_true", help="print counts instead of the machine")
    p.set_defaults(run=_cmd_compile_tm)

    p = subs.add_parser("compile-mem", help="expand a memory-cell program into a one-function machine")
    p.add_argument("mem")
    p.add_argument("--summary", action="store_true", help="print counts instead of the machine")
    p.set_defaults(run=_cmd_compile_mem)

    p = subs.add_parser("tm2mem", help="rebuild a tape machine as a memory-cell program")
    p.add_argument("tm")
    p.set_defaults(run=_cmd_tm2mem)

    p = subs.add_parser("lockstep", help="run a tape machine and a program side by side")
    p.add_argument("--tm", required=True)
    p.add_argument("--mem", default=None, help="program file (default: translate the tape machine)")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help=f"transitions to follow (default {DEFAULT_STEPS})")
    _add_expect(p)
    p.set_defaults(run=_cmd_lockstep)

    p = subs.add_parser("sim", help="print the step-by-step run of a machine, tape machine, or program")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help=f"step cap (default {DEFAULT_STEPS})")
    p.add_argument("--fn", default=None, help="function to iterate (machine files)")
    p.add_argument("--from", default=None, help="start state (machine files)")
    p.set_defaults(run=_cmd_sim)

    p = subs.add_parser("verify", help="re-check a certificate against two machine files, no search")
    p.add_argument("certificate")
    p.add_argument("a")
    p.add_argument("b")
    _add_expect(p)
    p.set_defaults(run=_cmd_verify)

    p = subs.add_parser("check-lemmas", help="randomized reduction-law suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--max-fns", type=int, default=6)
    _add_expect(p)
    p.set_defaults(run=_cmd_check_lemmas)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
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
