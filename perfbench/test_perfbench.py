"""Tests of the benchmark itself: its gates catch planted wrong answers,
another seed passes them, and the CLI workload runs the real interpreter.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import wl_build
import wl_census
import wl_cli
import wl_search
from core import PYCACHE, ROOT, GateError, Layers, Tracer, run_passes

sys.path.insert(0, str(ROOT / "src"))

TINY = {
    wl_build: dict(tape_rungs=((2, 2, 3, 2), (3, 2, 3, 1)), mem_rungs=((2, 2, 2, "reject", 1),),
                   full_rungs=((3, 5),)),
    wl_search: dict(random_cells=((2, 6, 2, 1), (1, 8, 1, 1)), compiled_cells=((2, 2, 2, 1, 1),),
                    complete_search=((5, 6, 3, 2),), complete_construct=((4, 3, 1),)),
    wl_census: dict(cell_cap=20, probes=5, lemma_batches=1, expressions=10, templates=5),
}


@pytest.fixture
def pkg():
    return importlib.import_module("machalg")


def _run(pkg, mod, seed, layers=None, limit=None, **kw):
    inputs = mod.generate(pkg, seed, 1, ROOT / ".bench_out" / "test", **{**TINY.get(mod, {}), **kw})
    ops, finish = mod.make_pass(pkg, layers or Layers(pkg), inputs)
    (res,) = run_passes([(ops[:limit], None, finish)], [])
    return res


@pytest.mark.parametrize("mod", [wl_build, wl_search, wl_census])
@pytest.mark.parametrize("seed", [2, 3])
def test_other_seeds_pass_every_gate(pkg, mod, seed):
    res = _run(pkg, mod, seed)
    assert res.attempted > 0 and res.crashed == 0


def test_same_seed_same_digest(pkg):
    assert _run(pkg, wl_search, 5).digest == _run(pkg, wl_search, 5).digest


def test_off_by_one_compiled_table_trips_build_gate(pkg):
    layers = Layers(pkg)
    real = layers.compile_tm

    def off_by_one(t, *args, **kwargs):
        m, codec = real(t, *args, **kwargs)
        table = list(m.functions[0].table)
        table[-2] = (table[-2] + 1) % len(table)
        step = pkg.TransitionFunction(m.states, tuple(table), "step")
        return pkg.make_machine(m.states, [step], name=m.name), codec

    layers.compile_tm = off_by_one
    with pytest.raises(GateError, match="compiled table"):
        _run(pkg, wl_build, 1, layers)


def test_corrupted_certificate_trips_search_gate(pkg):
    layers = Layers(pkg)
    real = layers.render_certificate
    layers.render_certificate = lambda c: real(dataclasses.replace(c, g=(0,) * len(c.g)))
    with pytest.raises(GateError, match="does not"):
        _run(pkg, wl_search, 1, layers)


def test_no_for_a_known_positive_trips_search_gate(pkg):
    layers = Layers(pkg)
    layers.find_isomorphism = lambda a, b, **kw: None
    with pytest.raises(GateError, match="answered 'no'"):
        _run(pkg, wl_search, 1, layers)


def test_split_class_trips_census_gate(pkg):
    layers = Layers(pkg)
    layers.find_isomorphism = lambda a, b, **kw: None
    with pytest.raises(GateError, match="new class"):
        _run(pkg, wl_census, 1, layers)


def test_cli_stdout_mismatch_trips_gate(pkg, monkeypatch):
    monkeypatch.setattr(wl_cli, "_spawn", lambda argv, env, cwd: (0, b"tampered\n"))
    with pytest.raises(GateError, match="stdout differs"):
        _run(pkg, wl_cli, 1, limit=2)


def test_cli_round_passes_on_another_seed(pkg):
    res = _run(pkg, wl_cli, 4, limit=len(wl_cli.SUBCOMMANDS) * 2)
    assert res.crashed == 0


def test_cli_launches_the_interpreter_not_a_shim():
    prefix, env = wl_cli.command()
    assert prefix == [sys.executable, "-m", "machalg.cli"]
    assert "shims" not in Path(sys.executable).parts
    child = subprocess.run([prefix[0], "-c", "import sys; print(sys.executable)"],
                           env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == sys.executable


def test_cli_children_load_bytecode_from_the_private_cache():
    _, env = wl_cli.command()
    assert env["PYTHONPYCACHEPREFIX"] == str(PYCACHE)
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_traced_pass_records_layer_spans(pkg):
    tracer = Tracer()
    inputs = wl_search.generate(pkg, 1, 1, None, **TINY[wl_search])
    ops, finish = wl_search.make_pass(pkg, Layers(pkg, tracer), inputs)
    run_passes([(ops, tracer, finish)], [])
    names = {s[1] for s in tracer.spans}
    assert "isomorphism.find_isomorphism" in names and "op.iso" in names
    ops_by_id = {s[0]: s for s in tracer.spans if s[1].startswith("op.")}
    assert all(s[4] in ops_by_id for s in tracer.spans if not s[1].startswith("op."))
    metrics = bench.layer_metrics(tracer, {}, 0.0)
    assert set(metrics) == {name for name, _, _ in bench.per_layer_metrics()}


def test_times_and_rates_scale_to_the_reference_machine():
    units = {"t": "ms", "r": "1/s", "n": "count"}
    # A run whose calibration loop took twice the reference time ran on a
    # machine half as fast: its times halve and its rates double.
    scaled = bench.to_reference({"t": 10.0, "r": 3.0, "n": 7}, units, 2.0)
    assert scaled == {"t": 5.0, "r": 6.0, "n": 7}


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_result_line_format():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "9",
                           "--seconds", "0.5", "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}


def test_checkout_without_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
