"""cli: every subcommand as a user runs it, one process at a time.

This is the only workload that pays for process start, interpreter start
and ``import machalg`` on every request, and the only one that measures the
``cli`` and ``cardinal`` layers as a user feels them.  Inputs are the
checked-in ``samples/`` plus seeded files written at set-up.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time

import refs
from core import PYCACHE, ROOT, Calibration, GateError, Op, median

NAME = "cli"
NOMINAL_ROUND_S = 5.0
NODE_BUDGET = None  # the CLI's own default
SUBCOMMANDS = ("card", "universality", "iso", "complete", "submachine", "reduce", "compile-tm",
               "compile-mem", "tm2mem", "lockstep", "sim", "verify", "check-lemmas")
PROBE_CALLS = 10
CALL_TIMEOUT_S = 120


def command() -> tuple[list, dict]:
    """argv prefix and environment for one CLI call.  The interpreter is
    ``sys.executable`` itself: a version-manager shim would add a shell
    start to every call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return [sys.executable, "-m", "machalg.cli"], env


def warm_up() -> None:
    """One untimed CLI start, which leaves the bytecode of every module a
    child imports in the private cache."""
    prefix, env = command()
    subprocess.run([*prefix, "--help"], env=env, cwd=ROOT, capture_output=True,
                   timeout=CALL_TIMEOUT_S, check=True)


def _bare_start() -> int:
    """Nanoseconds to start and stop a bare interpreter."""
    prefix, env = command()
    t0 = time.perf_counter_ns()
    subprocess.run([prefix[0], "-c", "pass"], env=env, cwd=ROOT, capture_output=True,
                   timeout=CALL_TIMEOUT_S, check=True)
    return time.perf_counter_ns() - t0


# Every call here is a process start, whose speed the in-process loop does
# not track, so the calibration probe is a bare interpreter start.
CALIBRATION = Calibration(_bare_start, 70_000_000, 1_000_000_000)


def generate(pkg, seed: int, rounds: int, workdir) -> list:
    rng = random.Random(f"cli:{seed}")
    samples = ROOT / "samples"
    calls = []
    for rnd in range(rounds):
        d = workdir / f"r{rnd}"
        d.mkdir(parents=True, exist_ok=True)
        calls.extend(_round(rng, d, samples))
    return calls


def _write(path, text) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _round(rng, d, samples) -> list:
    """(subcommand, argv) pairs for one round; --expect carries the answer
    the generator knows, so a wrong answer also shows as exit code 1.  The
    slowest request, check-lemmas, runs five times, a fifth of the round, so
    that op_p90_ms falls inside that group rather than on its edge."""
    n = 8
    labels = [f"s{i}" for i in range(n)]
    a = refs.random_tables(rng, n, 2)
    p = list(range(n))
    rng.shuffle(p)
    b = sorted(refs.conjugate(t, p) for t in a)
    c = b
    while refs.profile(c) == refs.profile(a):
        c = [list(t) for t in b]
        j, s = rng.randrange(2), rng.randrange(n)
        c[j][s] = (c[j][s] + 1) % n
        c = sorted(set(tuple(t) for t in c))
    f_a = _write(d / "a.mx", refs.write_mx("a", labels, a))
    f_b = _write(d / "b.mx", refs.write_mx("b", [f"t{i}" for i in range(n)], b))
    f_c = _write(d / "c.mx", refs.write_mx("c", labels, c))
    h = [b.index(refs.conjugate(t, p)) for t in a]
    cert_iso = _write(d / "iso.cert", "certificate iso\ng " + " ".join(map(str, p))
                      + "\nh " + " ".join(map(str, h)) + "\n")

    # A literal sub-machine of a: a subset closed under some functions.
    start = rng.randrange(n)
    closed = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        j = a[0][i]
        if j not in closed:
            closed.add(j)
            frontier.append(j)
    keep = [labels[i] for i in sorted(closed)]
    preserving = [j for j, t in enumerate(a) if all(t[i] in closed for i in closed)]
    sub = refs.sub_tables(a, labels, preserving, keep)
    f_sub = _write(d / "sub.mx", refs.write_mx("sub", keep, sub))
    cert_sub = _write(d / "sub.cert", "certificate submachine\nkeep-fns "
                      + " ".join(map(str, preserving)) + "\nkeep-states " + " ".join(keep) + "\n")
    nosub_labels = keep + [lab for lab in labels if lab not in keep][:1]
    reversal = [tuple(range(len(nosub_labels)))[::-1]]
    f_nosub = _write(d / "nosub.mx", refs.write_mx("nosub", nosub_labels, reversal))
    nosub_truth = _literal_sub(a, labels, nosub_labels, reversal)

    f_full = _write(d / "full5.mx", refs.write_mx(
        "full5", [f"u{i}" for i in range(5)],
        [tuple((i // 5 ** (4 - k)) % 5 for k in range(5)) for i in range(5**5)]))
    t3 = refs.random_tables(rng, 3, 2)
    f_t3 = _write(d / "t3.mx", refs.write_mx("t3", ["x", "y", "z"], t3))
    a5 = refs.random_tables(rng, 5, 6)
    f_a5 = _write(d / "a5.mx", refs.write_mx("a5", [f"v{i}" for i in range(5)], a5))
    embeds = refs.embeds(a5, 5, t3, 3)

    spec = refs.random_spec(rng, "gen", 2, 2, 4, rng.choice(("clamp", "reject")))
    f_tm = _write(d / "gen.tm", refs.write_tm(spec))
    big = refs.random_spec(rng, "big", 4, 2, 6, "clamp")
    f_big = _write(d / "big.tm", refs.write_tm(big))
    vals = rng.randint(3, 6)
    f_mem = _write(d / "count.mem", _counter_mem(vals))

    expr, _ = refs.random_expression(rng)
    k, m, nn = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 5)
    keep_arg = ",".join(keep)

    def yes_no(flag):
        return ["--expect", "yes" if flag else "no"]

    return [
        ("card", ["card", expr]),
        ("card", ["card", "quantum", "--m", str(m), "--n", str(nn), "--transition-space"]),
        ("universality", ["universality", "--k", str(k), "--m", str(m), "--n", str(nn),
                          "--expect", "yes"]),
        ("iso", ["iso", f_a, f_b, "--format", "certificate", "--expect", "yes"]),
        ("iso", ["iso", f_a, f_c, "--expect", "no"]),
        ("iso", ["iso", str(samples / "const0.mx"), str(samples / "const1.mx"), "--expect", "yes"]),
        ("complete", ["complete", f_full, f_t3, "--format", "certificate", "--expect", "yes"]),
        ("complete", ["complete", f_a5, f_t3, "--method", "search"] + yes_no(embeds)),
        ("submachine", ["submachine", f_a, f_sub, "--format", "certificate", "--expect", "yes"]),
        ("submachine", ["submachine", f_a, f_nosub] + yes_no(nosub_truth)),
        ("reduce", ["reduce", f_a, "--keep-states", keep_arg]),
        ("compile-tm", ["compile-tm", f_big, "--summary"]),
        ("compile-tm", ["compile-tm", f_tm]),
        ("compile-mem", ["compile-mem", f_mem, "--summary"]),
        ("tm2mem", ["tm2mem", f_tm]),
        ("lockstep", ["lockstep", "--tm", f_tm, "--expect", "yes"]),
        ("lockstep", ["lockstep", "--tm", str(samples / "increment.tm"), "--expect", "yes"]),
        ("sim", ["sim", f_tm, "--steps", "40"]),
        ("sim", ["sim", f_mem]),
        ("sim", ["sim", f_a, "--fn", "f0", "--from", labels[start]]),
        ("verify", ["verify", cert_iso, f_a, f_b, "--expect", "yes"]),
        ("verify", ["verify", cert_sub, f_a, f_sub, "--expect", "yes"]),
    ] + [
        ("check-lemmas", ["check-lemmas", "--seed", str(rng.randrange(10**6)), "--iters", "150"])
        for _ in range(5)
    ]


def _literal_sub(a, labels, keep, tables) -> bool:
    """Is every table the restriction of some function of a preserving keep?"""
    have = refs.sub_tables(a, labels, range(len(a)), keep)
    return all(t in have for t in tables)


def _counter_mem(top: int) -> str:
    """One cell counting 0..top, final at top."""
    vals = [str(i) for i in range(top + 1)]
    lines = ["mem count", "alphabet " + " ".join(vals), "cell 0 = 0", "start read(0) fn 0", "fn 0"]
    for i in range(top + 1):
        lines.append(f"entry read(0)=({i}) -> write(0)=({min(i + 1, top)}) next read(0) fn 0")
    lines.append(f"final cell 0 = {top}")
    return "\n".join(lines) + "\n"


def make_pass(pkg, layers, calls) -> tuple[list, callable]:
    prefix, env = command()
    runners = {sub: layers.hook(f"cli.{sub}", _spawn) for sub in SUBCOMMANDS}
    ops = []
    for sub, argv in calls:
        ops.append(_call_op(pkg, runners[sub], prefix + argv, env, sub, argv))
    return ops, lambda: {}


def _spawn(argv, env, cwd):
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout


def in_process(pkg, argv) -> tuple[int, bytes]:
    """The same request answered by machalg.cli.main inside this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue().encode()


def _call_op(pkg, spawn, full_argv, env, sub, argv) -> Op:
    def run():
        return spawn(full_argv, env, ROOT)

    def check(out) -> bytes:
        code, stdout = out
        want_code, want_out = in_process(pkg, argv)
        if (code, stdout) != (want_code, want_out):
            raise GateError(f"machalg {' '.join(argv)}: exit {code}, in-process {want_code}; "
                            f"stdout {'matches' if stdout == want_out else 'differs'}")
        if code != 0:
            raise GateError(f"machalg {' '.join(argv)}: exit {code}")
        return f"{sub} {code}\n".encode() + stdout

    return Op("cli." + sub, run, check, {"sub": sub})


def probes() -> dict:
    """Median wall time of a bare interpreter and of importing the CLI."""
    prefix, env = command()

    def wall(args):
        times = []
        for _ in range(PROBE_CALLS):
            t0 = time.perf_counter()
            subprocess.run([prefix[0], *args], env=env, cwd=ROOT, capture_output=True,
                           timeout=CALL_TIMEOUT_S, check=True)
            times.append((time.perf_counter() - t0) * 1000)
        return median(times)

    bare = wall(["-c", "pass"])
    return {"cli.interpreter_ms": bare, "cli.import_ms": wall(["-c", "import machalg.cli"]) - bare}
