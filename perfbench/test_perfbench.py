"""Tests of the benchmark itself: tiny runs finish without failures, the
oracles count injected wrong results, inputs depend only on the seed, and
the tracer attributes spans to items.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def setups():
    """One set-up per workload, shared by the tests below."""
    bl = run.import_bendlab()
    return {name: wl.setup(bl) for name, wl in WORKLOADS.items()}


def _item(setups, name, i, seed=1):
    wl = WORKLOADS[name]
    state = setups[name]
    inp = wl.make_input(state, seed, i)
    return wl, state, inp, wl.run(state, inp)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_without_failures(name, trace):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: m["unit"] for k, m in result["metrics"].items()}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "bend_words", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_only_on_the_seed(setups, name):
    wl = WORKLOADS[name]
    state = setups[name]
    assert wl.make_input(state, 7, 4) == wl.make_input(state, 7, 4)
    assert wl.make_input(state, 7, 4) != wl.make_input(state, 8, 4)


def test_a_full_bend_cycle_passes_its_oracles(setups):
    for i in range(12):
        wl, state, inp, out = _item(setups, "bend_words", i)
        assert wl.check(state, inp, out) == []


def test_cohomology_oracle_counts_an_altered_dimension(setups):
    wl, state, inp, out = _item(setups, "cohomology_conjugates", 1)
    assert wl.check(state, inp, out) == []
    out["report"].dim_ph1 += 1
    assert wl.check(state, inp, out)
    out["report"].dim_ph1 -= 1
    out["peripheral"] = [p + 1 for p in out["peripheral"]]
    assert wl.check(state, inp, out)


def test_bend_oracle_counts_wrong_values(setups, monkeypatch):
    wl, state, inp, out = _item(setups, "bend_words", 6)
    assert wl.check(state, inp, out) == []
    values = list(out["values"][-1])
    values[0] += 1
    bad = dict(out, values=out["values"][:-1] + [tuple(values)])
    assert wl.check(state, inp, bad)
    space = state["spaces"][inp["geometry"]]
    monkeypatch.setattr(space, "word_row", lambda w: type(space).word_row(
        space, w).scale(Fraction(2)))
    assert wl.check(state, inp, out)


def test_bend_oracle_counts_a_collapsed_class_span(setups):
    state = setups["bend_words"]
    state["nu_cocycles"].clear()
    wl, state, inp, out = _item(setups, "bend_words", 0)
    for wall in range(1, 6):
        state["nu_cocycles"][wall] = out["cocycle"]
    problems = wl.check(state, inp, out)
    assert any("span" in p for p in problems)
    assert not state["nu_cocycles"]


def test_branched_oracle_counts_a_non_kernel_vector(setups, monkeypatch):
    wl, state, inp, out = _item(setups, "branched_complexes", 0)
    assert wl.check(state, inp, out) == []
    bl = state["bl"]
    honest = bl.nullspace
    monkeypatch.setattr(bl, "nullspace", lambda m: honest(m)[:-1] + [
        tuple(Fraction(1) for _ in range(m.cols))])
    assert any("not killed" in p for p in wl.check(state, inp, out))


def test_the_loop_counts_a_wrong_result_as_failed(setups, monkeypatch):
    state = setups["cohomology_conjugates"]
    bl = state["bl"]
    honest = bl.h1_report

    def off_by_one(*args, **kwargs):
        report = honest(*args, **kwargs)
        report.dim_h1 += 1
        return report

    monkeypatch.setattr(bl, "h1_report", off_by_one)
    result = run.run_items(WORKLOADS["cohomology_conjugates"], state, 1, 0.01, 0)
    assert result["items"] and len(result["failures"]) == len(result["items"])


def test_tracer_attributes_spans_to_items_and_uninstalls(setups):
    state = setups["cohomology_conjugates"]
    bl = state["bl"]
    original = bl.CocycleSpace.__init__
    tracer = Tracer()
    tracer.install(bl)
    try:
        result = run.run_items(WORKLOADS["cohomology_conjugates"], state, 1,
                               0.01, 5, tracer)
    finally:
        tracer.uninstall()
    assert bl.CocycleSpace.__init__ is original
    assert set(tracer.span_item) == set(result["items"])
    assert all(0 <= s <= d + 1e-9 for s, d in zip(tracer.self_time, tracer.duration))
    layer = tracer.per_layer(result["items"])
    assert layer["cohomology.CocycleSpace.calls"] == 1
    assert layer["linalg.rref_rank.calls"] > 0
    assert layer["cohomology.h1_report.self_ms"] > 0
