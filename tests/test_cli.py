"""End-to-end command tests driving main() with in-process argv."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from machalg import (
    Beth,
    MachineTemplate,
    StateSet,
    full_machine,
    parse_certificate,
    parse_machine,
    parse_mem,
    parse_turing,
    render_machine,
    render_mem,
    tm_to_mem,
)
from machalg import cardinal, cli, models
from machalg.cli import main
from conftest import clamp_tm
from mutants import check_cli_corpus

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"

SWITCH = str(SAMPLES / "switch.mx")
CONST0 = str(SAMPLES / "const0.mx")
CONST1 = str(SAMPLES / "const1.mx")
BITFLIP = str(SAMPLES / "bitflip.tm")
INCREMENT = str(SAMPLES / "increment.tm")
TOGGLE = str(SAMPLES / "toggle.mem")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCard:
    def test_template(self, capsys):
        rc, out, _ = run(
            capsys, "card", "finite-turing", "--k", "2", "--m", "2", "--n", "2"
        )
        assert rc == 0
        assert "|S| = Finite(16)" in out
        assert "[" in out  # derivation steps present

    def test_template_transition_space(self, capsys):
        rc, out, _ = run(
            capsys,
            "card", "finite-turing", "--k", "1", "--m", "2", "--n", "1",
            "--transition-space",
        )
        assert rc == 0
        assert "|S| = Finite(2)" in out
        assert "|Phi| = Finite(4)" in out

    def test_transition_space_overflow_is_error(self, capsys):
        rc, _, err = run(
            capsys,
            "card", "finite-turing", "--k", "2", "--m", "2", "--n", "2",
            "--transition-space",
        )
        assert rc == 2
        assert "error:" in err

    def test_expression(self, capsys):
        rc, out, _ = run(capsys, "card", "2 ^ beth(0)")
        assert rc == 0
        assert "= Beth(1)" in out

    def test_no_trace(self, capsys):
        rc, out, _ = run(capsys, "card", "2 ^ beth(0)", "--no-trace")
        assert rc == 0
        assert "[" not in out

    def test_param_on_expression_is_error(self, capsys):
        rc, _, err = run(capsys, "card", "2 + 2", "--k", "3")
        assert rc == 2
        assert "only applies" in err

    def test_parse_error_names_position(self, capsys):
        rc, _, err = run(capsys, "card", "2 ^^ 3")
        assert rc == 2
        assert "column" in err


class TestUniversality:
    def test_default_report(self, capsys):
        rc, out, _ = run(capsys, "universality")
        assert rc == 0
        assert out.count("UMM-complete") == 3
        assert "simulator umm" in out

    def test_expect_yes(self, capsys):
        rc, _, _ = run(capsys, "universality", "--expect", "yes")
        assert rc == 0

    def test_expect_no_contradicted(self, capsys):
        rc, _, _ = run(capsys, "universality", "--expect", "no")
        assert rc == 1

    def test_no_trace_drops_steps(self, capsys):
        _, with_trace, _ = run(capsys, "universality")
        _, without, _ = run(capsys, "universality", "--no-trace")
        assert len(without) < len(with_trace)
        assert "verdict" in without

    def test_expect_yes_contradicted_without_the_full_transition_set(self, capsys, monkeypatch):
        monkeypatch.setattr(MachineTemplate, "has_full_transition_set", property(lambda self: False))
        rc, out, _ = run(capsys, "universality", "--expect", "yes")
        assert rc == 1
        assert out.count("not shown") == 3

    def test_expect_yes_contradicted_by_a_larger_target(self, capsys, monkeypatch):
        real = cardinal.state_cardinality
        monkeypatch.setattr(
            cardinal, "state_cardinality",
            lambda t, trace=None: Beth(2) if t.kind == "lsm" else real(t, trace),
        )
        rc, out, _ = run(capsys, "universality", "--expect", "yes")
        assert rc == 1
        assert out.count("not shown") == 1 and "|T| = Beth(2) > |S| = Beth(1)" in out


class TestIso:
    def test_self_iso(self, capsys):
        rc, out, _ = run(capsys, "iso", SWITCH, SWITCH)
        assert rc == 0
        assert out.startswith("isomorphic")
        assert "g: off -> off" in out
        assert "h: flip -> flip" in out

    def test_negative_is_exit_zero_without_expect(self, capsys):
        rc, out, _ = run(capsys, "iso", SWITCH, CONST0)
        assert rc == 0
        assert "not isomorphic" in out

    def test_expect_gates(self, capsys):
        rc, _, _ = run(capsys, "iso", SWITCH, SWITCH, "--expect", "no")
        assert rc == 1
        rc, _, _ = run(capsys, "iso", SWITCH, CONST0, "--expect", "yes")
        assert rc == 1
        rc, _, _ = run(capsys, "iso", SWITCH, CONST0, "--expect", "no")
        assert rc == 0

    def test_isomorphic_pair(self, capsys):
        rc, out, _ = run(capsys, "iso", CONST0, CONST1)
        assert rc == 0
        assert out.startswith("isomorphic")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "iso", CONST0, CONST1)
        _, second, _ = run(capsys, "iso", CONST0, CONST1)
        assert first == second

    def test_certificate_round_trip(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "iso", SWITCH, SWITCH, "--format", "certificate")
        assert rc == 0
        cert = parse_certificate(out)
        assert cert.kind == "iso"
        path = tmp_path / "iso.cert"
        path.write_text(out)
        rc, out2, _ = run(capsys, "verify", str(path), SWITCH, SWITCH)
        assert rc == 0
        assert "certificate verifies" in out2

    def test_budget_exhaustion_names_cap(self, capsys, tmp_path):
        big = tmp_path / "full3.mx"
        big.write_text(render_machine(full_machine(StateSet(("a", "b", "c")))))
        twin = tmp_path / "full3b.mx"
        twin.write_text(render_machine(full_machine(StateSet(("d", "e", "f")))))
        rc, _, err = run(capsys, "iso", str(big), str(twin), "--node-budget", "1")
        assert rc == 2
        assert "budget of 1" in err
        assert "inconclusive" in err


class TestComplete:
    @pytest.fixture
    def full2(self, tmp_path):
        path = tmp_path / "full2.mx"
        path.write_text(render_machine(full_machine(StateSet(("x", "y")))))
        return str(path)

    def test_embed_into_full(self, capsys, full2):
        rc, out, _ = run(capsys, "complete", full2, CONST0)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "complete"
        assert lines[1].startswith("keep-fns ")
        assert lines[2].startswith("keep-states ")
        assert any(line.startswith("g: ") for line in lines)
        assert any(line.startswith("h: ") for line in lines)

    def test_certificate_verifies(self, capsys, tmp_path, full2):
        rc, out, _ = run(
            capsys, "complete", full2, CONST0, "--format", "certificate"
        )
        assert rc == 0
        path = tmp_path / "complete.cert"
        path.write_text(out)
        rc, out2, _ = run(capsys, "verify", str(path), full2, CONST0)
        assert rc == 0
        assert "certificate verifies" in out2

    def test_tampered_morphism_rejected(self, capsys, tmp_path, full2):
        # The replayed reductions still check out; only the maps are wrong.
        rc, out, _ = run(capsys, "complete", full2, CONST0, "--format", "certificate")
        assert rc == 0 and "g 0 1\n" in out
        path = tmp_path / "tampered.cert"
        path.write_text(out.replace("g 0 1\n", "g 1 0\n"))
        rc, out2, _ = run(capsys, "verify", str(path), full2, CONST0, "--expect", "yes")
        assert rc == 1
        assert out2 == "certificate rejected: the reductions or the morphism do not check out\n"

    def test_methods_agree(self, capsys, full2):
        rc1, out1, _ = run(capsys, "complete", full2, CONST0, "--method", "construct")
        rc2, out2, _ = run(capsys, "complete", full2, CONST0, "--method", "search")
        assert rc1 == rc2 == 0
        assert out1.splitlines()[0] == out2.splitlines()[0] == "complete"

    def test_negative(self, capsys):
        rc, out, _ = run(capsys, "complete", SWITCH, CONST0)
        assert rc == 0
        assert "not complete" in out
        rc, _, _ = run(capsys, "complete", SWITCH, CONST0, "--expect", "yes")
        assert rc == 1

    def test_construct_on_thin_container_is_error(self, capsys):
        rc, _, err = run(capsys, "complete", SWITCH, CONST0, "--method", "construct")
        assert rc == 2
        assert "full function set" in err

    def test_tape_machine_into_the_full_machine_on_its_states(self, capsys, tmp_path):
        tm = tmp_path / "clamp.tm"
        tm.write_text(CLAMP_TM)
        rc, compiled, _ = run(capsys, "compile-tm", str(tm))
        assert rc == 0 and compiled.startswith("machine clamp\nstates ")
        target = tmp_path / "clamp.mx"
        target.write_text(compiled)
        full = write_full(tmp_path, 1152)
        rc, cert, err = run(capsys, "complete", full, str(target), "--format", "certificate")
        assert (rc, err) == (0, "")
        path = tmp_path / "complete.cert"
        path.write_text(cert)
        rc, out, _ = run(capsys, "verify", str(path), full, str(target), "--expect", "yes")
        assert (rc, out) == (0, "certificate verifies\n")

    @pytest.mark.parametrize("command", ["complete", "submachine"])
    def test_a_target_past_the_cap_is_refused(self, capsys, tmp_path, command):
        full = write_full(tmp_path, 8)
        rc, out, err = run(capsys, command, full, full, "--format", "certificate")
        assert (rc, out) == (2, "")
        assert err == f"error: full transition set would enumerate {8**8} items, above the cap of 1000000\n"

    def test_keep_fns_past_the_digit_limit(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text conversion is unlimited here")
        n = 1500  # const0's one table, extended by the identity, read in base n
        index = sum(j * n ** (n - 1 - s) for s, j in enumerate((0, 0, *range(2, n))))
        digits = next(d for d in itertools.count(1) if index < 10**d)
        assert digits > limit
        rc, out, err = run(capsys, "complete", write_full(tmp_path, n), CONST0)
        assert (rc, out) == (2, "")
        assert err == (
            f"error: keep-fns entry has {digits} digits, above Python's limit of {limit} "
            "for writing an integer as text\n"
        )


# 3 registers, 2 symbols and 6 cells, clamped: 3 * 2**6 * 6 = 1152 states.
CLAMP_TM = clamp_tm(6)


def write_full(tmp_path, n) -> str:
    """Write the full machine on n states as a ``functions all`` container."""
    path = tmp_path / f"full{n}.mx"
    path.write_text(render_machine(full_machine(StateSet(tuple(f"s{i}" for i in range(n))))))
    assert path.read_text().endswith(f" s{n - 1}\nfunctions all\n")
    return str(path)


class TestSubmachineAndReduce:
    def test_reduce_emits_parseable_machine(self, capsys):
        rc, out, _ = run(capsys, "reduce", SWITCH, "--keep-fns", "hold")
        assert rc == 0
        m = parse_machine(out)
        assert m.n_functions == 1
        assert m.n_states == 2

    def test_reduce_states(self, capsys):
        rc, out, _ = run(capsys, "reduce", CONST0, "--keep-states", "0")
        assert rc == 0
        m = parse_machine(out)
        assert m.states.labels == ("0",)

    def test_reduce_without_work_is_error(self, capsys):
        rc, _, err = run(capsys, "reduce", SWITCH)
        assert rc == 2
        assert "nothing to do" in err

    def test_reduce_unknown_function_is_error(self, capsys):
        rc, _, err = run(capsys, "reduce", SWITCH, "--keep-fns", "zzz")
        assert rc == 2
        assert "unknown function" in err

    def test_submachine_positive(self, capsys, tmp_path):
        rc, reduced, _ = run(capsys, "reduce", SWITCH, "--keep-fns", "hold")
        assert rc == 0
        path = tmp_path / "hold.mx"
        path.write_text(reduced)
        rc, out, _ = run(capsys, "submachine", SWITCH, str(path))
        assert rc == 0
        assert out.splitlines()[0] == "sub-machine"

    def test_submachine_negative(self, capsys):
        rc, out, _ = run(capsys, "submachine", CONST0, SWITCH)
        assert rc == 0
        assert "not a sub-machine" in out

    def test_submachine_certificate(self, capsys, tmp_path):
        rc, reduced, _ = run(
            capsys, "reduce", SWITCH, "--keep-fns", "hold", "--keep-states", "off"
        )
        assert rc == 0
        target = tmp_path / "sub.mx"
        target.write_text(reduced)
        rc, cert_text, _ = run(
            capsys, "submachine", SWITCH, str(target), "--format", "certificate"
        )
        assert rc == 0
        cert = parse_certificate(cert_text)
        assert cert.kind == "submachine"
        cert_path = tmp_path / "sub.cert"
        cert_path.write_text(cert_text)
        rc, out, _ = run(capsys, "verify", str(cert_path), SWITCH, str(target))
        assert rc == 0
        assert "certificate verifies" in out

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        rc, cert_text, _ = run(
            capsys, "iso", CONST0, CONST1, "--format", "certificate"
        )
        assert rc == 0
        tampered = cert_text.replace("g 1 0", "g 0 1")
        assert tampered != cert_text
        path = tmp_path / "bad.cert"
        path.write_text(tampered)
        rc, out, _ = run(capsys, "verify", str(path), CONST0, CONST1)
        assert rc == 0  # definite negative, no expectation set
        assert "certificate rejected" in out
        rc, _, _ = run(
            capsys, "verify", str(path), CONST0, CONST1, "--expect", "yes"
        )
        assert rc == 1

    def test_certificate_index_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "oob.cert"
        path.write_text("certificate submachine\nkeep-fns 9\nkeep-states 0\n")
        rc, out, _ = run(capsys, "verify", str(path), SWITCH, CONST0)
        assert rc == 0
        assert "out of range" in out


class TestImplicitContainerNames:
    """--fn and --keep-fns read f<i> and <i> on a ``functions all`` file at
    any size, without listing its names."""

    def test_eight_states(self, capsys, tmp_path):
        full = write_full(tmp_path, 8)  # 16.7M functions, past the enumeration cap
        rc, out, err = run(capsys, "reduce", full, "--keep-fns", "f5")
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "fn f5: " + ", ".join(
            f"s{i}->s{j}" for i, j in enumerate((0, 0, 0, 0, 0, 0, 0, 5))
        )
        rc, out, err = run(capsys, "sim", full, "--fn", "5", "--from", "s7")
        assert (rc, err) == (0, "")
        assert out == "trajectory: s7 -> s5 -> s0\noutcome: halted at s0 after 2 step(s)\n"
        assert run(capsys, "reduce", full, "--keep-fns", "f05") == (
            2, "", "error: unknown function 'f05'; known names: f0 to f16777215\n"
        )

    def test_past_the_digit_limit(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text conversion is unlimited here")
        full = write_full(tmp_path, 1500)
        answers = [run(capsys, "reduce", full, "--keep-fns", tok) for tok in ("3", "f3")]
        assert answers[0] == answers[1] and answers[0][0] == 0
        assert answers[0][1].splitlines()[-1].startswith("fn f3: s0->s0, s1->s0, ")
        for tok in ("9" * 5000, "f05"):
            assert run(capsys, "reduce", full, "--keep-fns", tok) == (
                2, "", f"error: unknown function {tok!r}; known names: "
                "f0 to f(a 4765-digit number)\n"
            )

    def test_indices_with_more_digits_than_python_converts(self, capsys, tmp_path, monkeypatch):
        # 1500**1500 functions, a 4765-digit count: a 4500-digit index names
        # one, and a 4766-digit numeral is refused without being converted.
        limit = sys.get_int_max_str_digits()
        if not limit or limit >= 4500:
            pytest.skip("integer text conversion reaches 4500 digits here")
        full = write_full(tmp_path, 1500)
        index = "1" + "0" * 4499
        table = ["s0"] * 1500  # 10**4499 in base 1500, last digit first
        i, s = 10**4499, 1499
        while i:
            i, table[s] = i // 1500, f"s{i % 1500}"
            s -= 1
        for tok in (index, "f" + index, "000" + index):
            rc, out, err = run(capsys, "reduce", full, "--keep-fns", tok)
            assert (rc, err) == (0, "")
            assert out.splitlines()[-1] == "fn f0: " + ", ".join(
                f"s{s}->{t}" for s, t in enumerate(table)
            )
        rc, out, err = run(capsys, "sim", full, "--fn", index, "--from", "s1499", "--steps", "1")
        assert (rc, err) == (0, "")
        assert out.startswith(f"trajectory: s1499 -> {table[1499]}")
        too_long = "1" + "0" * 4765
        monkeypatch.setattr("decimal.Decimal", None)  # any conversion would raise TypeError
        for argv in (("reduce", full, "--keep-fns", too_long),
                     ("sim", full, "--fn", too_long, "--from", "s0")):
            assert run(capsys, *argv) == (
                2, "", f"error: unknown function {too_long!r}; known names: "
                "f0 to f(a 4765-digit number)\n"
            )


class TestAnswerGolden:
    """Exact stdout and exit code of every answer of iso, complete and
    submachine in both formats, and of verify on each certificate and on
    tampered copies.  "sub" is switch reduced to hold on state off."""

    # command and files -> (exit code, text output, certificate output)
    ANSWERS = {
        "iso switch switch": (
            0,
            "isomorphic\ng: off -> off\ng: on -> on\nh: hold -> hold\nh: flip -> flip\n",
            "certificate iso\ng 0 1\nh 0 1\n",
        ),
        "iso const0 const1": (
            0,
            "isomorphic\ng: 0 -> 1\ng: 1 -> 0\nh: to0 -> to1\n",
            "certificate iso\ng 1 0\nh 0\n",
        ),
        "iso switch const0": (0, "not isomorphic\n", "not isomorphic\n"),
        "iso switch const0 --expect yes": (1, "not isomorphic\n", "not isomorphic\n"),
        "complete switch sub": (
            0,
            "complete\nkeep-fns 0\nkeep-states off\ng: off -> off\nh: hold -> hold\n",
            "certificate complete\nkeep-fns 0\nkeep-states off\ng 0\nh 0\n",
        ),
        "complete const0 sub": (
            0,
            "complete\nkeep-fns 0\nkeep-states 0\ng: off -> 0\nh: hold -> to0\n",
            "certificate complete\nkeep-fns 0\nkeep-states 0\ng 0\nh 0\n",
        ),
        "complete switch switch": (
            0,
            "complete\nkeep-fns 0 1\nkeep-states off on\n"
            "g: off -> off\ng: on -> on\nh: hold -> hold\nh: flip -> flip\n",
            "certificate complete\nkeep-fns 0 1\nkeep-states off on\ng 0 1\nh 0 1\n",
        ),
        "complete switch const0": (0, "not complete\n", "not complete\n"),
        "complete const0 switch": (0, "not complete\n", "not complete\n"),
        "submachine switch sub": (
            0,
            "sub-machine\nkeep-fns 0\nkeep-states off\n",
            "certificate submachine\nkeep-fns 0\nkeep-states off\n",
        ),
        "submachine switch sub --expect no": (
            1,
            "sub-machine\nkeep-fns 0\nkeep-states off\n",
            "certificate submachine\nkeep-fns 0\nkeep-states off\n",
        ),
        "submachine switch const0": (0, "not a sub-machine\n", "not a sub-machine\n"),
    }

    # certificate, files -> verify output; each a tampered copy of an answer above
    TAMPERED = [
        ("certificate iso\ng 0 0\nh 0\n", "const0 const1",
         "certificate rejected: the mapping does not commute with every function\n"),
        ("certificate complete\nkeep-fns 0 1\nkeep-states off on\ng 0 0\nh 0 1\n",
         "switch switch",
         "certificate rejected: the reductions or the morphism do not check out\n"),
        ("certificate complete\nkeep-fns 0 2\nkeep-states off on\ng 0 1\nh 0 1\n",
         "switch switch",
         "certificate rejected: an index in the certificate is out of range\n"),
        ("certificate complete\nkeep-fns 0\nkeep-states 0\ng 1\nh 0\n", "const0 sub",
         "certificate rejected: the reductions or the morphism do not check out\n"),
        ("certificate submachine\nkeep-fns 2\nkeep-states off\n", "switch sub",
         "certificate rejected: an index in the certificate is out of range\n"),
        ("certificate submachine\nkeep-fns 0\nkeep-states on\n", "switch sub",
         "certificate rejected: the reduced state set differs from the target\n"),
    ]

    @pytest.fixture
    def argv(self, capsys, tmp_path):
        rc, reduced, _ = run(
            capsys, "reduce", SWITCH, "--keep-fns", "hold", "--keep-states", "off"
        )
        assert rc == 0
        sub = tmp_path / "sub.mx"
        sub.write_text(reduced)
        files = {"switch": SWITCH, "const0": CONST0, "const1": CONST1, "sub": str(sub)}
        return lambda words: [files.get(w, w) for w in words.split()]

    @pytest.mark.parametrize("question", sorted(ANSWERS))
    @pytest.mark.parametrize("fmt", ["text", "certificate"])
    def test_answer(self, capsys, argv, question, fmt):
        rc, text, cert = self.ANSWERS[question]
        assert run(capsys, *argv(question), "--format", fmt) == (
            rc, text if fmt == "text" else cert, ""
        )

    @pytest.mark.parametrize("question", sorted(
        q for q, (_, _, cert) in ANSWERS.items() if cert.startswith("certificate")
    ))
    def test_verify_answer(self, capsys, tmp_path, argv, question):
        path = tmp_path / "answer.cert"
        path.write_text(self.ANSWERS[question][2])
        files = argv(question)[1:3]
        assert run(capsys, "verify", str(path), *files) == (0, "certificate verifies\n", "")

    @pytest.mark.parametrize("cert, files, out", TAMPERED)
    def test_verify_tampered(self, capsys, tmp_path, argv, cert, files, out):
        path = tmp_path / "tampered.cert"
        path.write_text(cert)
        assert run(capsys, "verify", str(path), *argv(files)) == (0, out, "")
        assert run(capsys, "verify", str(path), *argv(files), "--expect", "yes")[0] == 1


class TestCompilers:
    def test_compile_tm_parseable(self, capsys):
        rc, out, _ = run(capsys, "compile-tm", BITFLIP)
        assert rc == 0
        m = parse_machine(out)
        assert m.n_states == 4  # 2 registers * 2^1 tapes * 1 head slot
        assert m.n_functions == 1

    def test_compile_tm_summary(self, capsys):
        rc, out, _ = run(capsys, "compile-tm", BITFLIP, "--summary")
        assert rc == 0
        lines = out.splitlines()
        assert "states 4" in lines
        assert "functions 1" in lines
        assert any(line.startswith("initial q0|") for line in lines)
        assert "boundary clamp" in lines

    def test_compile_tm_cap(self, capsys, tmp_path):
        # 1 register, 2 symbols, 62 cells: refused before any table is allocated
        wide = tmp_path / "wide.tm"
        wide.write_text("tm wide\nsymbols 0 1\nregisters q\ncells 62\nboundary clamp\n"
                        "init tape" + " 0" * 62 + " head 0 register q\n")
        assert run(capsys, "compile-tm", str(wide)) == (2, "", (
            "error: compiled state set would enumerate 285924533142498050048 items, "
            "above the cap of 1000000\n"
        ))

    def test_compile_mem_summary(self, capsys):
        rc, out, _ = run(capsys, "compile-mem", TOGGLE, "--summary")
        assert rc == 0
        assert "states 3" in out.splitlines()

    @pytest.mark.parametrize("command, compiler", [("compile-tm", "compile_tm"),
                                                   ("compile-mem", "compile_mem")])
    def test_summary_builds_no_table(self, capsys, monkeypatch, tmp_path, command, compiler):
        # toggle.mem declares no default, so its table is written to find a gap:
        # the translation of bitflip.tm, which halts by default, stands in for it.
        path = tmp_path / "bitflip.mem"
        path.write_text(render_mem(tm_to_mem(parse_turing(Path(BITFLIP).read_text()))))
        compiled, compile_fn = [], getattr(models, compiler)

        def recording(source):
            compiled.append(compile_fn(source))
            return compiled[-1]

        monkeypatch.setattr(models, compiler, recording)
        rc, out, _ = run(capsys, command, BITFLIP if command == "compile-tm" else str(path), "--summary")
        assert rc == 0 and "functions 1" in out.splitlines()
        [(machine, _)] = compiled
        assert "_listing" not in machine.tables[0].__dict__

    def test_compile_mem_parseable(self, capsys):
        rc, out, _ = run(capsys, "compile-mem", TOGGLE)
        assert rc == 0
        m = parse_machine(out)
        assert m.n_states == 3

    def test_tm2mem_parseable(self, capsys):
        rc, out, _ = run(capsys, "tm2mem", BITFLIP)
        assert rc == 0
        p = parse_mem(out)
        assert p.n_cells == 3  # one tape cell + register + address

    def test_lockstep_default_translation(self, capsys):
        rc, out, _ = run(capsys, "lockstep", "--tm", BITFLIP)
        assert rc == 0
        assert out.strip() == "verified 1 step(s), halted, no divergence"

    def test_lockstep_increment(self, capsys):
        rc, out, _ = run(capsys, "lockstep", "--tm", INCREMENT)
        assert rc == 0
        assert out.strip() == "verified 3 step(s), halted, no divergence"

    def test_lockstep_explicit_mem_file(self, capsys, tmp_path):
        rc, translated, _ = run(capsys, "tm2mem", BITFLIP)
        assert rc == 0
        path = tmp_path / "bitflip.mem"
        path.write_text(translated)
        rc, out, _ = run(capsys, "lockstep", "--tm", BITFLIP, "--mem", str(path))
        assert rc == 0
        assert "no divergence" in out

    def test_lockstep_divergence_reported(self, capsys, tmp_path):
        # corrupt one written symbol; the tape mismatch shows on step 1
        rc, translated, _ = run(capsys, "tm2mem", BITFLIP)
        assert rc == 0
        bad = translated.replace(
            "=(reg.halt,pos.0,sym.1)", "=(reg.halt,pos.0,sym.0)", 1
        )
        assert bad != translated
        path = tmp_path / "wrong.mem"
        path.write_text(bad)
        rc, out, _ = run(capsys, "lockstep", "--tm", BITFLIP, "--mem", str(path))
        assert rc == 0
        assert "divergence at step" in out
        rc, _, _ = run(
            capsys,
            "lockstep", "--tm", BITFLIP, "--mem", str(path), "--expect", "yes",
        )
        assert rc == 1

    def test_lockstep_program_with_too_few_cells(self, capsys):
        assert run(capsys, "lockstep", "--tm", BITFLIP, "--mem", TOGGLE) == (
            0,
            "verified 0 step(s), halted, divergence at step 0: "
            "program has 1 cell(s), the tape machine needs 3\n",
            "",
        )


class TestSim:
    def test_machine_route_needs_fn(self, capsys):
        rc, _, err = run(capsys, "sim", SWITCH)
        assert rc == 2
        assert "--fn" in err

    def test_machine_cycle(self, capsys):
        rc, out, _ = run(
            capsys, "sim", SWITCH, "--fn", "flip", "--from", "off", "--steps", "5"
        )
        assert rc == 0
        assert "trajectory: off -> on" in out
        assert "cycled, length 2" in out

    def test_machine_halt(self, capsys):
        rc, out, _ = run(
            capsys, "sim", CONST0, "--fn", "to0", "--from", "1", "--steps", "5"
        )
        assert rc == 0
        assert "halted at 0" in out

    def test_machine_step_limit(self, capsys):
        assert run(capsys, "sim", SWITCH, "--fn", "flip", "--from", "off", "--steps", "0") == (
            0, "trajectory: off\noutcome: step limit after 0 step(s)\n", ""
        )

    def test_tm_route(self, capsys):
        rc, out, _ = run(capsys, "sim", BITFLIP)
        assert rc == 0
        assert "step 0:" in out
        assert "outcome: halted" in out

    def test_mem_route(self, capsys):
        rc, out, _ = run(capsys, "sim", TOGGLE, "--steps", "4")
        assert rc == 0
        assert "step 2: cells=2 selector=0 fn=0 (final)" in out
        assert "outcome: final condition met after 2 step(s)" in out
        assert "step 3" not in out

    @pytest.mark.parametrize("path", [BITFLIP, TOGGLE], ids=["tm", "mem"])
    @pytest.mark.parametrize("flag, value", [("--fn", "step"), ("--from", "q0")])
    def test_machine_flags_refused(self, capsys, path, flag, value):
        assert run(capsys, "sim", path, flag, value) == (
            2, "", "error: --fn and --from apply to machine files only\n"
        )

    def test_mem_route_step_limit(self, capsys):
        rc, out, _ = run(capsys, "sim", TOGGLE, "--steps", "1")
        assert rc == 0
        assert "outcome: step limit after 1 step(s)" in out

    @pytest.mark.parametrize("path", [BITFLIP, TOGGLE], ids=["tm", "mem"])
    def test_negative_step_count_refused(self, capsys, path):
        assert run(capsys, "sim", path, "--steps", "-1") == (
            2, "", "error: max_steps must be non-negative\n"
        )

    def test_late_program_error_follows_the_steps_made(self, capsys, tmp_path):
        # no default and no entry for 1: the program stops after one step
        path = tmp_path / "gap.mem"
        path.write_text("mem gap\nalphabet 0 1 2\ncell 0 = 0\nstart read(0) fn 0\nfn 0\n"
                        "entry read(0)=(0) -> write(0)=(1) next read(0) fn 0\n")
        assert run(capsys, "sim", str(path)) == (
            2,
            "step 0: cells=0 selector=0 fn=0\nstep 1: cells=1 selector=0 fn=0\n",
            "error: family 0 has no entry for read(0,)=('1',) and the program declares no default\n",
        )
        # on one pipe for both streams, the error still comes after the steps
        proc = subprocess.run([sys.executable, "-m", "machalg", "sim", str(path)], env=module_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=60)
        assert proc.stdout.decode().splitlines() == [
            "step 0: cells=0 selector=0 fn=0",
            "step 1: cells=1 selector=0 fn=0",
            "error: family 0 has no entry for read(0,)=('1',) and the program declares no default",
        ]

    def test_closed_pipe_ends_quietly(self, tmp_path):
        path = tmp_path / "loop.tm"
        path.write_text("tm loop\nsymbols 0\nregisters a\ncells 1\nboundary clamp\n"
                        "rule a 0 -> a 0 S\ninit tape 0 head 0 register a\n")
        with subprocess.Popen(
            [sys.executable, "-m", "machalg", "sim", str(path), "--steps", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
        ) as proc:
            assert proc.stdout.readline() == b"step 0: register=a tape=0 head=0\n"
            proc.stdout.close()  # as `| head -1` does
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")

    def test_unknown_file_shape(self, capsys, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_text("gibberish here\n")
        rc, _, err = run(capsys, "sim", str(path))
        assert rc == 2
        assert "cannot tell" in err


class TestEverySample:
    """Every file-taking subcommand on every sample, and on every ordered
    pair of samples, ends in an answer, an ``--expect`` mismatch or a
    one-line error: never in an internal error."""

    def test_no_call_faults(self, capsys):
        samples = sorted(str(p) for p in SAMPLES.iterdir())
        calls = [
            [command, s]
            for command in ("sim", "compile-tm", "compile-mem", "tm2mem", "reduce")
            for s in samples
        ]
        for a, b in itertools.product(samples, repeat=2):
            calls += [
                ["iso", a, b],
                ["complete", a, b],
                ["submachine", a, b],
                ["lockstep", "--tm", a, "--mem", b],
                ["verify", a, a, b],  # a sample in the certificate slot
            ]
        assert len(calls) == 210
        faults = []
        for argv in calls:
            rc, _, err = run(capsys, *argv)
            if rc not in (0, 1, 2) or "internal error" in err:
                faults.append((argv, rc, err))
        assert faults == []


class TestMutatedInputs:
    """Mutated copies of the samples and of certificates, through every
    file-taking subcommand: each call ends in an answer, an ``--expect``
    mismatch or one ``error: `` line, within 2 s."""

    def test_no_call_faults(self):
        assert check_cli_corpus(range(3300)) == 33000


class TestErrorPaths:
    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "iso", "nope.mx", SWITCH)
        assert rc == 2
        assert "error:" in err

    def test_parse_error_location(self, capsys, tmp_path):
        path = tmp_path / "broken.mx"
        path.write_text("machine broken\nstates a b\nfn f: a->a\n")
        rc, _, err = run(capsys, "iso", str(path), SWITCH)
        assert rc == 2
        assert "line" in err


class TestCheckLemmas:
    def test_reports_violations_without_expect(self, capsys):
        rc, out, _ = run(capsys, "check-lemmas", "--seed", "0", "--iters", "300")
        assert rc == 0
        assert "lemma 1" in out and "lemma 2" in out and "lemma 3" in out
        assert "counterexample" in out

    def test_expect_gating(self, capsys):
        rc, _, _ = run(
            capsys, "check-lemmas", "--seed", "0", "--iters", "300", "--expect", "yes"
        )
        assert rc == 1
        rc, _, _ = run(
            capsys, "check-lemmas", "--seed", "0", "--iters", "300", "--expect", "no"
        )
        assert rc == 0

    def test_lemma_one_alone_is_clean(self, capsys):
        rc, out, _ = run(capsys, "check-lemmas", "--seed", "5", "--iters", "200")
        assert rc == 0
        for line in out.splitlines():
            if line.startswith("lemma 1") or line.startswith("lemma 3"):
                assert "0 violation(s)" in line


def module_env():
    """The environment that runs ``python -m machalg`` on this checkout, with
    stdout buffered as it is on a pipe by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_module(*argv, module="machalg"):
    """Run ``python -m machalg`` (or another module) as its own process on this checkout."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_machalg(self):
        proc = run_module("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: machalg")
        assert "RuntimeWarning" not in proc.stderr

    def test_python_dash_m_machalg_cli(self):
        # The form the benchmark runs; the package must not import the CLI
        # module before runpy executes it.
        proc = run_module("--help", module="machalg.cli")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: machalg")
        assert "RuntimeWarning" not in proc.stderr

    def test_cli_stays_reachable_from_the_package(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import machalg, sys; print('machalg.cli' in sys.modules, "
             "machalg.cli.main is sys.modules['machalg.cli'].main)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.stdout == "False True\n", proc.stderr


class TestHostileExpressions:
    """Deep input ends in an answer or a one-line error, never a traceback."""

    def test_deeply_nested_parentheses(self):
        proc = run_module("card", "(" * 1500 + "1" + ")" * 1500)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].endswith("= Finite(1)")
        assert "Traceback" not in proc.stderr

    def test_long_beth_power_chain(self):
        proc = run_module("card", "^".join(["beth(0)"] * 2000))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].endswith("= Beth(1999)")
        assert "Traceback" not in proc.stderr

    def test_long_finite_power_chain_overflows(self):
        proc = run_module("card", "^".join(["2"] * 2000))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: Finite(2) ** Finite(65536) exceeds the checked 64-bit range\n"
        )


HUGE = "7" * 5000

# One hostile request per subcommand; "{name}" names a file the hostile_files fixture writes.
HOSTILE = {
    "card": ["card", "\u00b2"],
    "universality": ["universality", "--m", "100000", "--n", "100000"],
    "iso": ["iso", "{binary}", SWITCH],
    "complete": ["complete", SWITCH, BITFLIP],
    "submachine": ["submachine", SWITCH, "{binary}"],
    "reduce": ["reduce", SWITCH, "--keep-fns", "\u00b2"],
    "compile-tm": ["compile-tm", "{cells}"],
    "compile-mem": ["compile-mem", "{cell}"],
    "tm2mem": ["tm2mem", "{head}"],
    "lockstep": ["lockstep", "--tm", BITFLIP, "--steps", "-1"],
    "sim": ["sim", SWITCH, "--fn", "\u00b2", "--from", "off"],
    "verify": ["verify", "{cert}", CONST0, CONST1],
    "check-lemmas": ["check-lemmas", "--max-states", "0"],
}


def _malformed(kind, text, error):
    argv = {"mx": ["iso", text, SWITCH], "tm": ["compile-tm", text],
            "mem": ["compile-mem", text], "cert": ["verify", text, CONST0, CONST1]}[kind]
    return pytest.param(argv, error, id=kind + "-" + "-".join(re.findall(r"\w+", error)))


# One malformed file per parse error message, each with its line and column.
MALFORMED = [
    _malformed("mx", "machine\nstates a\n", "line 1, column 1: expected 'machine <name>'"),
    _malformed("mx", "machine m\nstates\n", "line 2, column 1: 'states' needs at least one state"),
    _malformed("mx", "machine m\nfn f: a->a\n", "line 2, column 1: 'states' must come before 'fn'"),
    _malformed("mx", "machine m\nstates a\nfn f a->a\n",
               "line 3, column 1: fn line needs 'fn <name>: <clauses>'"),
    _malformed("mx", "machine m\nstates a\nfn f g: a->a\n",
               "line 3, column 1: fn line needs exactly one name"),
    _malformed("mx", "machine m\nstates a\nfn f: a->a,\n", "line 3, column 1: empty clause"),
    _malformed("mx", "machine m\nstates a\nfn f: a\n",
               "line 3, column 7: clause 'a' must read 'state->state'"),
    _malformed("mx", "machine m\nstates a\nfn f: a->a\noutput\n",
               "line 4, column 1: unknown directive 'output'"),
    _malformed("mx", "# no header\nstates a\nfn f: a->a\n",
               "line 2, column 1: 'machine <name>' must come first"),
    _malformed("tm", "# nothing\n", "line 1, column 1: empty input; expected 'tm <name>'"),
    _malformed("tm", "tm\n", "line 1, column 1: expected 'tm <name>'"),
    _malformed("tm", "tm t\nsymbols\n", "line 2, column 1: 'symbols' needs at least one symbol"),
    _malformed("tm", "tm t\nregisters\n",
               "line 2, column 1: 'registers' needs at least one register"),
    _malformed("tm", "tm t\nboundary wrap\n",
               "line 2, column 1: 'boundary' must be 'reject' or 'clamp'"),
    _malformed("tm", "tm t\nrule q0 0 -> q0 0 S\n",
               "line 2, column 1: 'symbols' must come before 'rule'"),
    _malformed("tm", "tm t\nsymbols 0\nregisters q0 h\nrule q0 0 -> h 0 S\nhalting h\n",
               "line 5, column 1: 'halting' must come before the rules"),
    _malformed("tm", "tm t\nregisters q0\nhalting z\n",
               "line 3, column 9: unknown halting register 'z'"),
    _malformed("tm", "tm t\nsymbols 0\nregisters q0\nrule q0 0 q0 0 S\n",
               "line 4, column 1: rule must read 'rule <reg> <sym> -> <reg> <sym> <L|R|S>'"),
    _malformed("tm", "tm t\nsymbols 0\nregisters q0\nrule q9 0 -> q0 0 S\n",
               "line 4, column 6: unknown register 'q9'"),
    _malformed("tm", "tm t\nsymbols 0\nregisters q0\ncells 1\ninit tape 0 head 0\n",
               "line 5, column 1: init must read 'init tape <1 symbols> head <i> register <reg>'"),
    _malformed("tm", "tm t\nsymbols 0\nregisters q0\ncells 1\ninit tape 0 head 0 register q9\n",
               "line 5, column 29: unknown register 'q9'"),
    _malformed("mem", "\n", "line 1, column 1: empty input; expected 'mem <name>'"),
    _malformed("mem", "mem\n", "line 1, column 1: expected 'mem <name>'"),
    _malformed("mem", "mem m\nalphabet\n", "line 2, column 1: 'alphabet' needs at least one value"),
    _malformed("mem", "mem m\ncell 0 = 0\n", "line 2, column 1: 'alphabet' must come before 'cell'"),
    _malformed("mem", "mem m\nalphabet 0\ncell 0 = 0\ncell 0 = 0\n",
               "line 4, column 1: cell 0 initialized twice"),
    _malformed("mem", "mem m\ndefault loop\n", "line 2, column 1: only 'default halt' is supported"),
    _malformed("mem", "mem m\nalphabet 0\ncell 0 = 0\nstart rd(0) fn 0\n",
               "line 4, column 7: expected 'read(...)', got 'rd(0)'"),
    _malformed("mem", "mem m\nalphabet 0\ncell 0 = 0\nstart read(0) fn 0\nfn 0\n"
               "entry read(0) -> write(0)=(0) next read(0) fn 0\n",
               "line 6, column 7: expected 'read(...)=(...)', got 'read(0)'"),
    _malformed("mem", "alphabet 0\n", "line 1, column 1: 'mem <name>' must come first"),
    _malformed("mem", "mem m\n", "line 1, column 1: missing 'alphabet' line"),
    _malformed("mem", "mem m\nalphabet 0\n", "line 2, column 1: missing 'cell' line"),
    _malformed("mem", "mem m\nalphabet 0\ncell 0 = 0\nstart read(0) fn 0\n",
               "line 4, column 1: missing 'fn' line"),
    _malformed("cert", "# nothing\n",
               "line 1, column 1: empty input; expected 'certificate <kind>'"),
    _malformed("cert", "certificate iso\nk 0\n", "line 2, column 1: unknown directive 'k'"),
    _malformed("cert", "certificate iso\ng 1 0\ng 1 0\nh 0\n", "line 3, column 1: second 'g' line"),
]


@pytest.fixture
def hostile_files(tmp_path):
    bitflip = Path(BITFLIP).read_text()
    toggle = Path(TOGGLE).read_text()
    files = {
        "binary": b"\xff\xfe\x00machine",
        "cells": bitflip.replace("cells 1", "cells \u00b2").encode(),
        "cell": toggle.replace("cell 0 = 0", "cell \u0663 = 0").encode(),
        "head": bitflip.replace("head 0", "head " + HUGE).encode(),
        "cert": "certificate iso\ng \u00b2 0\nh 0\n".encode(),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return {name: str(tmp_path / name) for name in files}


class TestHostileInput:
    """Every subcommand ends hostile input with exit 0, 1 or 2 and at most
    one line on stderr, never a traceback."""

    def test_every_subcommand_is_covered(self):
        assert set(HOSTILE) == set(cli._COMMANDS)

    @pytest.mark.parametrize("sub", sorted(HOSTILE))
    def test_no_traceback(self, sub, hostile_files):
        proc = run_module(*(arg.format(**hostile_files) for arg in HOSTILE[sub]))
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) <= 1, proc.stderr

    @pytest.mark.parametrize("argv, error", [
        pytest.param(["check-lemmas", "--max-states", "0"],
                     "max_states must be at least 1, got 0", id="max-states"),
        pytest.param(["check-lemmas", "--max-states", "16"],
                     "max_states must be at most 15, got 16", id="max-states-16"),
        pytest.param(["check-lemmas", "--max-fns", "0"],
                     "max_functions must be at least 1, got 0", id="max-fns"),
        pytest.param(["check-lemmas", "--iters", "2", "--max-states", "15",
                      "--max-fns", "99999999999999999999"],
                     "max_functions must be at most 10000, got 99999999999999999999",
                     id="max-fns-huge"),
        pytest.param(["check-lemmas", "--iters", "-5"],
                     "iterations must be at least 0, got -5", id="iters"),
        pytest.param(["sim", SWITCH, "--fn", "0", "--from", "\u00b2"],
                     "state '\u00b2' is not in this state set", id="from"),
        pytest.param(["sim", SWITCH, "--fn", HUGE, "--from", "off"],
                     f"unknown function '{HUGE}'; known names: hold flip", id="fn"),
        pytest.param(["reduce", SWITCH, "--keep-fns", "0" * 5000 + "2"],
                     f"unknown function '{'0' * 5000}2'; known names: hold flip", id="keep-fns"),
        pytest.param(["iso", CONST0, CONST1, "--node-budget", "-3"],
                     "node_budget must be at least 0, got -3", id="iso-budget"),
        pytest.param(["complete", CONST0, CONST1, "--node-budget", "-3"],
                     "node_budget must be at least 0, got -3", id="complete-budget"),
        *MALFORMED,
    ])
    def test_one_line_error(self, capsys, tmp_path, argv, error):
        # An argument holding a newline is file text: it is passed as a file.
        paths = [tmp_path / f"arg{i}" for i in range(len(argv))]
        for path, arg in zip(paths, argv):
            if "\n" in arg:
                path.write_text(arg)
        argv = [str(path) if "\n" in arg else arg for path, arg in zip(paths, argv)]
        assert run(capsys, *argv) == (2, "", f"error: {error}\n")

    def test_repeated_directive_is_a_one_line_error(self, tmp_path):
        twice = tmp_path / "twice.tm"
        bitflip = Path(BITFLIP).read_text()
        twice.write_text(bitflip.replace("boundary clamp", "boundary clamp\nboundary reject"))
        proc = run_module("compile-tm", str(twice))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: line 7, column 1: second 'boundary' line\n"
        )

    @pytest.mark.parametrize("argv", [
        [], ["frob"], ["compile-tm"], ["lockstep", "--tm", BITFLIP, "--steps", "x"],
        ["compile-tm", BITFLIP, "--cap", "5"], ["card", "1", "a\nb\rc"],
    ], ids=["none", "unknown-subcommand", "missing-positional", "non-integer", "cap", "newline"])
    def test_bad_command_line_is_one_line(self, argv):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "internal error" not in line, line

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("lemma suite fell over")

        monkeypatch.setattr("machalg.lemmas.run_lemma_suite", fail)
        rc, out, err = run(capsys, "check-lemmas")
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: internal error: RuntimeError: lemma suite fell over"]

    def test_zero_padded_function_index(self, capsys):
        rc, out, _ = run(capsys, "sim", SWITCH, "--fn", "0" * 5000 + "1", "--from", "off")
        assert rc == 0 and out.startswith("trajectory: off -> on -> off")
