"""Tests of the benchmark itself: its correctness checks reject tampered
results, and every workload prints every registered metric."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import frachp.postproc
from perfbench import checks, run, spans

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
REFERENCE = checks.load_reference()


def _valid_row(rule="uniform", s=0.5, L=5):
    ref = REFERENCE["energy"][checks.energy_key(rule, s, 0.6, L)]
    row = {"s": repr(s), "sigma": "0.6", "L": str(L), "rule": rule,
           "N": str(ref["N"]), "energy_error": repr(ref["energy_error"]),
           "discrete_energy": repr(ref["discrete_energy"])}
    return row, {(s, ref["N"]): 1e-15}


def test_reference_row_passes():
    row, solves = _valid_row()
    assert checks.energy_row_problems(row, solves, REFERENCE) == []


@pytest.mark.parametrize("tamper", ["flipped_gap", "wrong_error", "residual",
                                    "no_solve", "unknown_config"])
def test_tampered_energy_row_fails(tamper):
    row, solves = _valid_row()
    exact = checks.exact_energy(0.5)
    if tamper == "flipped_gap":
        gap = exact - float(row["discrete_energy"])
        row["discrete_energy"] = repr(exact + gap)
    elif tamper == "wrong_error":
        row["energy_error"] = repr(float(row["energy_error"]) * (1 + 1e-9))
    elif tamper == "residual":
        solves = {key: 1e-9 for key in solves}
    elif tamper == "no_solve":
        solves = {}
    else:
        row["sigma"] = "0.5"
    assert checks.energy_row_problems(row, solves, REFERENCE)


def test_tampered_weighted_error_fails():
    ref = REFERENCE["weighted"][checks.weighted_key(0.3, 0.6, 4)]
    row = {"p": "4", "L": "4", "sigma": "0.6", "s": "0.3",
           "weighted_error": repr(ref)}
    assert checks.weighted_row_problems(row, REFERENCE) == []
    row["weighted_error"] = repr(ref * (1 + 1e-11))
    assert checks.weighted_row_problems(row, REFERENCE)


def test_library_solve_checks():
    s, n = 0.4, 419
    exact = checks.exact_energy(s)
    ok = exact - 1e-6
    solves = {(s, n): 1e-14}
    assert checks.library_solve_problems(
        s, 0.6, 14, n, ok, math.sqrt(1e-6), solves) == []
    # flipped gap sign
    assert checks.library_solve_problems(
        s, 0.6, 14, n, exact + 1e-6, 0.0, solves)
    # reported error inconsistent with the gap
    assert checks.library_solve_problems(
        s, 0.6, 14, n, ok, 2 * math.sqrt(1e-6), solves)
    # error above the a-priori bound
    big = checks.a_priori_bound(0.6, 14) * 1.01
    assert checks.library_solve_problems(
        s, 0.6, 14, n, exact - big * big, big, solves)


def _run_tiny(capsys, tmp_path, workload, trace):
    result = run.main(["--workload", workload, "--seed", "7", "--seconds",
                       "1", "--trace", str(trace)], scale="tiny",
                      out_dir=str(tmp_path), probes=1)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == json.loads(json.dumps(result))
    return result


def test_wrong_energy_error_counts_as_failure(capsys, tmp_path, monkeypatch):
    real = frachp.postproc.energy_error
    monkeypatch.setattr(frachp.postproc, "energy_error",
                        lambda *a: real(*a) * 1.001)
    for workload in ("deep_solve", "s_sweep"):
        result = _run_tiny(capsys, tmp_path, workload, 0)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] > 0
        assert result["metrics"]["ok_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
def test_every_metric_printed(capsys, tmp_path, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run_tiny(capsys, tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    accounted = sum(metrics[name] for name in spans.ACCOUNTED)
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    with open(tmp_path / f"trace_{workload}_seed7.json") as fh:
        trace = json.load(fh)
    assert all({"name", "start", "end", "parent", "workload"} <= set(sp)
               for sp in trace["spans"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
