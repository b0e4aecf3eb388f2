"""Tests of the benchmark itself (not of formalpde).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_pool  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops, run_workload  # noqa: E402

def corpus_ops(pool: dict) -> list[workloads.Op]:
    corpus_dir = workloads.ROOT / "src" / "formalpde" / "corpus"
    return [workloads._cli_op(rec["name"], corpus_dir / f"{rec['name']}.pde", rec)
            for rec in pool["corpus"]]


def test_corpus_passes_and_a_wrong_reference_is_a_failed_op():
    pool = workloads.load_pool()
    assert run_ops(corpus_ops(pool))["failures"] == []
    wrong = copy.deepcopy(pool)
    wrong["corpus"][0]["fiber"][1] += 1
    result = run_ops(corpus_ops(wrong))
    assert result["attempted"] == 6
    assert [f["op"] for f in result["failures"]] == [wrong["corpus"][0]["name"]]


def test_wrong_closed_form_is_a_failed_op(monkeypatch):
    warm, ops = workloads.build("goldschmidt-wave4", 7, 1, Path("unused"))
    assert run_ops([warm])["failures"] == []
    monkeypatch.setattr(workloads, "fiber_dim_scalar", lambda n, order: 0)
    result = run_ops(ops[:1])
    assert len(result["failures"]) == 1 and "base fiber" in result["failures"][0]["reason"]


def test_failed_warm_up_is_a_failed_op():
    ok = workloads.Op("fine", lambda: 1, lambda out: None)
    bad = workloads.Op("warm-up", lambda: 1, lambda out: "wrong")
    result = run_workload(bad, [ok, ok])
    assert result["attempted"] == 3 and len(result["times"]) == 2
    assert [f["op"] for f in result["failures"]] == ["warm-up"]


def test_raising_op_is_counted_not_fatal():
    def boom():
        raise ZeroDivisionError("x")

    ops = [workloads.Op("boom", boom, lambda out: None),
           workloads.Op("fine", lambda: 1, lambda out: None)]
    result = run_ops(ops)
    assert result["attempted"] == 2
    assert [f["op"] for f in result["failures"]] == ["boom"]


def test_inputs_follow_the_seed_and_never_repeat(tmp_path):
    _, a = workloads.build("cli-sweep", 3, 20, tmp_path / "a")
    _, b = workloads.build("cli-sweep", 3, 20, tmp_path / "b")
    _, c = workloads.build("cli-sweep", 4, 20, tmp_path / "c")
    assert [op.label for op in a] == [op.label for op in b] != [op.label for op in c]
    texts = [path.read_text() for path in (tmp_path / "a").iterdir()]
    assert len(set(texts)) == len(texts) == len(a) - 6 + 10  # corpus out, ten warm-up shapes in
    warm, heat = workloads.build("tower-heat3", 3, 1, tmp_path)
    assert len({op.label for op in heat}) == len(heat) == workloads.MIN_OPS
    assert warm.label not in {op.label for op in heat}


def test_written_pde_encodes_the_pool_record(tmp_path):
    for rec in workloads.load_pool()["pool"][::37]:
        n, m, k, eqs = make_pool.parse_pde(workloads.format_pde(rec))
        assert (n, m, k, eqs) == (rec["n"], rec["m"], rec["k"], rec["eqs"])


EXACT = (".calls", ".cells_in", ".cells_out", ".rows_out", ".rank_per_row", ".max_bits",
         ".cache_hits", ".cache_misses", ".cache_entries", ".rows_per_col")


def traced_counters(ops) -> tuple[dict, list]:
    workloads.clear_caches()
    layer = tracer.LayerTrace()
    with layer as tr:
        result = run_ops(ops, tr)
    assert result["failures"] == []
    metrics, absent = layer.metrics()
    return {k: v for k, v in metrics.items() if k.endswith(EXACT)}, absent


def test_exact_counters_repeat_and_cover_every_layer():
    ops = corpus_ops(workloads.load_pool())
    first, absent = traced_counters(ops)
    second, _ = traced_counters(ops)
    assert first == second
    assert absent == []
    assert first["relconn.classical_prolongation_fiber.calls"] > 0
    assert first["cli.parse_system.calls"] == 36  # six commands on six files
    assert first["jetpde.solution_fiber.cache_hits"] > 0
    from formalpde import ratlin

    assert not hasattr(ratlin.rref, "__wrapped__")


def test_missing_target_is_reported_absent(monkeypatch):
    from formalpde import tableau

    monkeypatch.delattr(tableau, "_verify_contracts_into")
    layer = tracer.LayerTrace()
    with layer:
        pass
    metrics, absent = layer.metrics()
    assert {"tableau.verify.calls", "tableau.verify.total_s"} <= set(absent)
    assert "tableau.verify.calls" not in metrics
    assert "ratlin.rref.calls" in metrics


def test_self_time_excludes_children_and_bookkeeping():
    # Every clock read advances one tick.  Between reads, outer's own body
    # runs twice (calling inner, returning from it) and inner's body once;
    # every other tick is the tracer's bookkeeping and counts for no span.
    ticks = iter(range(1000))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("m.inner", lambda: None)
    outer = tr.wrap("m.outer", lambda: inner())
    outer()
    assert tr.stats("m.outer") == (1, 2.0, 3.0)
    assert tr.stats("m.inner") == (1, 1.0, 1.0)
    assert tr.module_self_s("m") == 3.0


def test_tail_percentile_leaves_ten_ops_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert pct == 75 and 28.5 < value < 30.5  # rank 30 of 40, ten ops beyond it
    assert abs(run.hd_quantile(times, 0.5) - 19.5) < 1e-9  # symmetric sample


def test_benchmark_json_names_every_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [name for name, _, _ in tracer.PER_LAYER] + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    mapping = json.loads((HERE / "layers.json").read_text())["layers"]
    assert sorted(m for group in mapping for m in group["metrics"]) == sorted(per_layer)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-sweep",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
