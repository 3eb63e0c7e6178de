"""The command line as users run it: ``python -m machalg`` and the example
scripts, each in its own process on this checkout.  Only a child process
shows the exit code, that stderr holds one line, that ``-m`` finds the
entry module, and what a run holds under an address-space cap."""

import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from machalg import StateSet, TransitionFunction, make_machine, parse_machine, render_machine
from conftest import FOUR_REGISTERS, clamp_tm, conjugated
from test_cli import BITFLIP, INCREMENT, ROOT, SAMPLES, SWITCH, TOGGLE, write_full

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def python(*args, stdin=None, code=0, out=None, err=None, timeout=60, address_space_kib=None):
    """Run ``python *args`` on ``stdin`` within ``timeout`` seconds; assert the
    exit code, stderr (empty, or the one line ``error: <err>``) and, when
    given, stdout.  Returns stdout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space_kib * 1024,) * 2)

    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          env=ENV, timeout=timeout, preexec_fn=address_space_kib and cap)
    assert (proc.returncode, proc.stderr) == (code, f"error: {err}\n" if err else "")
    assert out is None or proc.stdout == out
    return proc.stdout


def machalg(*argv, **kwargs):
    return python("-m", "machalg", *argv, **kwargs)


def certified(question, a, b, timeout=60):
    """``question a b --format certificate | verify /dev/stdin a b --expect
    yes``, both within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    cert = machalg(question, a, b, "--format", "certificate", timeout=timeout)
    machalg("verify", "/dev/stdin", a, b, "--expect", "yes", stdin=cert,
            out="certificate verifies\n", timeout=deadline - time.monotonic())


def write(path, text):
    path.write_text(text)
    return str(path)


class TestScripts:
    def test_demo(self):
        python(str(ROOT / "scripts" / "demo_machine_algebra.py"))

    def test_census_lists_every_default_cell(self):
        assert "k=3: 2925/509" in python(str(ROOT / "scripts" / "census_small_machines.py"))

    def test_bench_ab_finds_the_working_tree_within_bound_of_head(self):
        if not (ROOT / ".git").exists():
            pytest.skip("compares against HEAD, so it needs a git checkout")
        start = time.monotonic()
        out = python(str(ROOT / "scripts" / "bench_ab.py"), "--against", "HEAD", "--workload", "census",
                     "--pairs", "1", "--seconds", "1", timeout=60)
        verdicts = {line.split()[0]: line.split("  ")[-1] for line in out.splitlines()[2:] if "/1  " in line}
        names = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "decided_ratio"]
        assert verdicts == dict.fromkeys(names, "within bound"), out
        assert out.endswith("digests: equal in every pair\n")
        assert time.monotonic() - start < 20

    def test_cli_module_raises_no_runtime_warning(self):
        python("-W", "error::RuntimeWarning", "-m", "machalg.cli", "universality", "--no-trace")

    def test_check_lemmas(self):
        machalg("check-lemmas", "--max-states", "15", "--iters", "20", "--seed", "1")


@pytest.mark.parametrize("question", ["iso", "complete", "complete --method search", "submachine"])
def test_a_question_past_the_cap_is_refused_at_once(tmp_path, question):
    full8 = write_full(tmp_path, 8)  # 16.7M functions
    command, *flags = question.split()
    machalg(command, full8, full8, *flags, code=2, timeout=10,
            err="full transition set would enumerate 16777216 items, above the cap of 1000000")


class TestRendererRoundTrips:
    """What each renderer writes, read back through ``/dev/stdin``."""

    def test_translation_compiles_and_runs(self):
        mem = machalg("tm2mem", BITFLIP)
        machalg("compile-mem", "/dev/stdin", "--summary", stdin=mem)
        machalg("sim", "/dev/stdin", "--steps", "3", stdin=mem)

    def test_reduce_keeping_everything_gives_the_machine_back(self):
        want = render_machine(parse_machine(Path(SWITCH).read_text()))
        machalg("reduce", SWITCH, "--keep-fns", "hold,flip", out=want)

    def test_compiled_machine_runs_and_answers(self, tmp_path):
        bitflip = machalg("compile-tm", BITFLIP)
        machalg("sim", "/dev/stdin", "--fn", "step", "--from", "q0|0|0", stdin=bitflip)
        inc = write(tmp_path / "increment.mx", machalg("compile-tm", INCREMENT))
        machalg("iso", inc, inc, "--format", "certificate", "--expect", "yes")

    def test_a_trajectory_of_2688_states_is_a_sub_machine(self, tmp_path):
        # each state's successor is among the kept ones: the bulk .mx reader
        # and the witness, both ways
        compiled = machalg("compile-tm", write(tmp_path / "clamp7.tm", clamp_tm(7)), timeout=20)
        clamp7 = write(tmp_path / "clamp7.mx", compiled)
        out = machalg("sim", clamp7, "--fn", "step", "--from", "a|0.0.0.0.0.0.0|0", "--steps", "3000",
                      timeout=20)
        walk = next(line for line in out.splitlines() if line.startswith("trajectory: "))
        walk = ",".join(dict.fromkeys(walk[len("trajectory: "):].split(" -> ")))
        assert walk
        walk7 = write(tmp_path / "walk7.mx", machalg("reduce", clamp7, "--keep-states", walk, timeout=20))
        certified("submachine", clamp7, walk7, timeout=20)

    def test_summaries_list_no_labels(self):
        # 917,504 tape states, and 177,147 aggregate states from a 3-cell tape
        machalg("compile-tm", "/dev/stdin", "--summary", stdin=clamp_tm(14, FOUR_REGISTERS), timeout=20)
        mem = machalg("tm2mem", "/dev/stdin", stdin=clamp_tm(3, FOUR_REGISTERS))
        machalg("compile-mem", "/dev/stdin", "--summary", stdin=mem, timeout=20)


HEADERS = {".mx": ("machine", ["reduce", "/dev/stdin", "--keep-states", "x"]),
           ".tm": ("tm", ["compile-tm", "/dev/stdin", "--summary"]),
           ".mem": ("mem", ["compile-mem", "/dev/stdin", "--summary"])}


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.iterdir()))
def test_headerless_sample_is_refused_at_its_first_line(sample):
    kind, argv = HEADERS[Path(sample).suffix]
    lines = (SAMPLES / sample).read_text().splitlines(keepends=True)
    body = [line for line in lines if not line.startswith(kind + " ")]
    assert len(lines) - len(body) == 1
    n = next(i for i, line in enumerate(body, 1) if line.strip() and not line.lstrip().startswith("#"))
    machalg(*argv, stdin="".join(body), code=2, out="",
            err=f"line {n}, column 1: '{kind} <name>' must come first")


@pytest.mark.parametrize("kind, n, key", [("iso", 4, "h"), ("complete", 6, "h"),
                                          ("submachine", 4, "keep-states")])
def test_certificate_without_its_header_or_with_a_repeat(kind, n, key):
    lines = machalg(kind, SWITCH, SWITCH, "--format", "certificate").splitlines(keepends=True)
    verify = ("verify", "/dev/stdin", SWITCH, SWITCH)
    headerless = "".join(line for line in lines if not line.startswith("certificate "))
    machalg(*verify, stdin=headerless, code=2, err="line 1, column 1: 'certificate <kind>' must come first")
    machalg(*verify, stdin="".join(lines + lines[-1:]), code=2,
            err=f"line {n}, column 1: second '{key}' line")


class TestIsomorphismAtScale:
    def test_one_function_on_30720_states(self, tmp_path):
        compiled = machalg("compile-tm", write(tmp_path / "big.tm", clamp_tm(10)), timeout=20)
        big = write(tmp_path / "big.mx", compiled)
        words = next(line.split()[1:] for line in compiled.splitlines() if line.startswith("states "))
        assert len(words) == 30720
        machalg("iso", big, big, "--format", "certificate", "--expect", "yes", timeout=20)
        # a relabelled copy: its states line reversed, so the witness is no identity
        rev = write(tmp_path / "rev.mx", compiled.replace(" ".join(words), " ".join(reversed(words)), 1))
        cert = machalg("iso", big, rev, "--format", "certificate", timeout=20)
        machalg("verify", "/dev/stdin", big, rev, "--expect", "yes", stdin=cert, timeout=20)

    def test_two_functions_with_colour_rounds_at_the_root(self, tmp_path):
        # a random 2-function machine on 3000 states, and a path on 2000 states with the
        # identity added (the rounds stop at their cap there), each with a relabelled copy
        rng = random.Random(33)
        rand = [tuple(rng.randrange(3000) for _ in range(3000)) for _ in range(2)]
        path = [tuple(min(s + 1, 1999) for s in range(2000)), tuple(range(2000))]
        pairs = []
        for name, tables in (("rand", rand), ("path", path)):
            ss = StateSet(tuple(f"s{i}" for i in range(len(tables[0]))))
            m = make_machine(ss, [TransitionFunction(ss, t) for t in tables])
            perm = list(range(m.n_states))
            rng.shuffle(perm)
            pairs.append((write(tmp_path / f"{name}.mx", render_machine(m)),
                          write(tmp_path / f"{name}_copy.mx", render_machine(conjugated(m, perm)))))
        certified("iso", *pairs[0], timeout=30)
        machalg("iso", *pairs[1], "--expect", "yes", timeout=30)


class TestLockstep:
    """A tape machine and its cell program, side by side."""

    @pytest.mark.parametrize("tm", [BITFLIP, INCREMENT], ids=["bitflip", "increment"])
    def test_under_the_other_boundary_policy(self, tmp_path, tm):
        text = Path(tm).read_text()
        policies = ("boundary clamp\n", "boundary reject\n")
        other = text.replace(*policies) if policies[0] in text else text.replace(*reversed(policies))
        assert other != text
        machalg("lockstep", "--tm", write(tmp_path / "other.tm", other), "--expect", "yes", timeout=20)

    def test_a_full_tape_is_rejected_on_both_sides(self, tmp_path):
        # the counter walks off its right edge, and the program mirrors the rejection
        text = Path(INCREMENT).read_text().replace("init tape 1 1 0 0 head", "init tape 1 1 1 1 head")
        machalg("lockstep", "--tm", write(tmp_path / "full.tm", text), timeout=20,
                out="verified 4 step(s), boundary-error, no divergence\n")

    def test_a_missing_entry_is_a_divergence_not_an_error(self, tmp_path):
        # the translation without its default and without the entry that fires first
        lines = machalg("tm2mem", BITFLIP).splitlines(keepends=True)
        gap = [line for line in lines if line != "default halt\n"
               and not line.startswith("entry read(1,2,0)=(reg.q0,pos.0,sym.0) ")]
        assert len(lines) - len(gap) == 2
        assert any("read(1,2,0)=(reg.q0,pos.0,sym.1) ->" in line for line in gap)
        gap_mem = write(tmp_path / "gap.mem", "".join(gap))
        machalg("lockstep", "--tm", BITFLIP, "--mem", gap_mem, "--expect", "no", timeout=20)

    def test_a_million_steps_under_a_150_mb_cap(self, tmp_path):
        # a one-cell machine that loops forever: the check holds one configuration
        # of each side, sim writes each step as it is made, and sim stops a
        # program once it is final
        loop = write(tmp_path / "loop.tm", "tm loop\nsymbols 0\nregisters a\ncells 1\nboundary clamp\n"
                                           "rule a 0 -> a 0 S\ninit tape 0 head 0 register a\n")
        mem = write(tmp_path / "loop.mem", machalg("tm2mem", loop))
        capped = dict(timeout=60, address_space_kib=150000)
        machalg("lockstep", "--tm", loop, "--steps", "1000000", **capped,
                out="verified 1000000 step(s), step-limit, no divergence\n")
        machalg("lockstep", "--tm", loop, "--mem", TOGGLE, "--steps", "2000000", "--expect", "no", **capped)
        out = machalg("sim", TOGGLE, "--steps", "30000000", timeout=5, address_space_kib=150000)
        assert out.endswith("\noutcome: final condition met after 2 step(s)\n")
        for path, last in ((loop, "outcome: step-limit after 1000000 step(s)"),
                           (mem, "outcome: step limit after 1000000 step(s)")):
            assert machalg("sim", path, "--steps", "1000000", **capped).endswith(f"\n{last}\n")
