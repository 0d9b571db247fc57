"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(x) for x in range(16, 0, -1)]  # 16 .. 1, unsorted
    value, pct, n = run.tail_percentile(samples)
    assert n == 16
    assert sum(1 for s in samples if s > value) == 10
    assert value == 6.0 and pct == pytest.approx(37.5)
    value, pct, n = run.tail_percentile([float(x) for x in range(1, 201)])
    assert sum(1 for x in range(1, 201) if x > value) == 10
    assert pct == pytest.approx(95.0)


def test_tail_percentile_falls_back_to_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail_percentile([float(x) for x in range(10)])[0] == 9.0


def _span(sid, parent, start, end):
    return {"id": sid, "name": f"s{sid}", "parent": parent, "pass": "traced",
            "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_only_direct_children():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 3.0),
             _span(2, 0, 2.0, 5.0),     # overlaps span 1: counted once
             _span(3, 2, 2.5, 4.5),     # grandchild: not subtracted from 0
             _span(4, 0, 9.0, 12.0)]    # clipped to the parent's end
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)


def test_tracer_nests_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tracer.current() is None


def test_table2_boundary_rule():
    assert workloads.table2_expected(7, 8, 0) == 1
    assert workloads.table2_expected(14, 15, 0) == 1
    assert workloads.table2_expected(8, 8, 0) == 0
    assert workloads.table2_expected(41, 8, 3623) == 3623


def test_table2_boundary_rule_matches_the_engine():
    sys.path.insert(0, str(ROOT / "src"))
    from kunzlab import CountQuery, count_words, refdata

    table2 = refdata.load_table2()
    boundary = [(f, m) for f, m in table2 if f == m - 1]
    assert len(boundary) == 4
    for f, m in boundary + [(20, 8), (29, 10)]:
        got = count_words(CountQuery(frobenius=f, length=m - 1))
        assert got == workloads.table2_expected(f, m, table2[f, m])


def test_cli_output_check_catches_a_wrong_count():
    op = workloads.Op(("count", "--f", "7", "--m", "8", "--threads", "2"))
    stdout = json.dumps({"query": {"frobenius": 7, "length": 7},
                         "count": 0}) + "\n"
    expected = {"digests": {op.name: workloads.digest(stdout)}, "counts": {}}
    error = workloads.check_cli_output(op, 0, stdout, expected,
                                       {(7, 8): 0}, None)
    assert error == "count 0, table2 says 1"
    assert workloads.check_cli_output(op, 2, stdout, expected,
                                      {(7, 8): 0}, None) == "exit code 2"


def test_ops_are_fixed_and_the_seed_only_permutes_them():
    table2 = {(f, m): 1 for f in range(1, 61) for m in (8, 10, 12, 15)}
    ops = workloads.ops_for("fm-grid", table2)
    assert len(ops) == 4 * workloads.FM_MAX_F
    first = workloads.pass_order(ops, "fm-grid", 3, 0)
    assert first == workloads.pass_order(ops, "fm-grid", 3, 0)
    assert first != workloads.pass_order(ops, "fm-grid", 4, 0)
    assert sorted(first, key=ops.index) == ops


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER


_POOL_PROBE = """
import json, sys
sys.path[:0] = [{here!r}]
import passrun, tracing, workloads
kz, table1, table2, _ = passrun.setup()
if {drop_pool}:
    del sys.modules["kunzlab.enumeration"].Pool
tracer = tracing.Tracer()
absent = tracing.install(tracer)
out = {{}}
for argv in {queries!r}:
    tracer.spans.clear()
    seconds, code, stdout, error = passrun.run_op(
        workloads.Op(tuple(argv)), kz, tracer)
    assert code == 0 and error is None, (code, error)
    out[" ".join(argv)] = {{"layers": tracing.layer_metrics(tracer.spans, absent),
                            "absent": tracing.absent_metrics(absent),
                            "count": json.loads(stdout)["count"]}}
print(json.dumps(out))
"""


def _traced_layers(queries, drop_pool=False):
    script = _POOL_PROBE.format(here=str(HERE), queries=queries,
                                drop_pool=drop_pool)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pool_wrapper_reports_workers_actually_used():
    pooled = ["count", "--f", "24", "--threads", "2"]
    serial = ["count", "--f", "24", "--ell", "3", "--threads", "2"]
    out = _traced_layers([pooled, serial])
    layers = out[" ".join(pooled)]["layers"]
    assert layers["enumeration.pool.opened"] > 0
    assert 1 <= layers["enumeration.pool.workers_used"] <= 2
    assert layers["enumeration.pool.tasks"] > 0
    assert out[" ".join(pooled)]["count"] == 3578
    assert out[" ".join(serial)]["layers"]["enumeration.pool.opened"] == 0


def test_missing_layer_is_reported_absent():
    query = ["count", "--f", "24", "--ell", "3", "--threads", "1"]
    out = _traced_layers([query], drop_pool=True)[" ".join(query)]
    assert "enumeration.pool.opened" in out["absent"]
    assert out["layers"]["enumeration.pool.opened"] == 0
    assert "enumeration.depth2.s" not in out["absent"]
