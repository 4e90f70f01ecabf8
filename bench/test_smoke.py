"""Tests of the benchmark itself: python -m pytest bench/test_smoke.py

The smoke run executes all four workloads at small sizes, untraced and
traced, through the same correctness gate as a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402


def test_smoke_runs_every_workload_through_the_gate():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-4000:]
    assert result["failed"] == 0
    assert {k.split("/")[0] for k in result["metrics"]} == set(run.WORKLOADS)
    assert "failed_frac" in proc.stdout and "DRIFT" not in proc.stdout


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _u in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_sources():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("text,algebra,checked,witness", [
    # pinned by tests/test_decision.py
    ("p0 -> [a0]p0", "bool2", 14, 1),
    ("#2", "cost:3", 1, 0),
])
def test_oracle_reproduces_pinned_countermodels(text, algebra, checked, witness):
    from flpdl.algebra import load_algebra
    from flpdl.parser import parse_formula

    import workloads

    formula = parse_formula(text, load_algebra(workloads.SOURCES[algebra]))
    hit = oracle.first_countermodel(workloads.tables(algebra), formula, 2)
    assert hit is not None and hit[5] == checked and hit[3] == witness


def test_oracle_closure_matches_the_walk_oracle():
    from flpdl.oracles import cost_walk_join_fast
    from flpdl.relations import XRelation

    T = oracle.cost(3)
    for table in np.ndindex(*(3,) * 4):
        r = np.array(table).reshape(1, 2, 2)
        rel = XRelation(None, tuple(map(tuple, r[0].tolist())))
        assert (oracle.plus(T, r)[0] == cost_walk_join_fast(rel, 2)).all()
        assert (oracle.cheapest_walks(r[0], 2) == cost_walk_join_fast(rel, 2)).all()
