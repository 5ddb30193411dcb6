"""Self-tests of the benchmark harness at toy size.

    python3 -m pytest perfbench
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
import worker
from checks import check_dump, check_table
from workloads import DEFAULT_SEED, WORKLOADS, operation_argv, output_name

from tortrust import cli

TINY_WORLD = dict(n_as=30, n_ixp=3, n_relays=20, family_sizes=(2, 2),
                  as_org_sizes=(3, 3), ixp_org_sizes=(2,), n_epochs=6)
TINY_SEED = 11          # not the default seed, so no pinned digest applies


def _tiny(name):
    return replace(WORKLOADS[name], world=TINY_WORLD, n_samples=400)


def _loop(workload, work, call):
    argv = operation_argv(workload, str(work))
    out = str(work / output_name(workload))
    return worker.run_loop(argv, out, 0.0, float("inf"), call, lambda: 1.0)


def _run_ops(workload, work):
    worker.build_inputs(workload, TINY_SEED, str(work), {})
    return _loop(workload, work, worker._cli_call(cli.main))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operation_and_checks_pass(name, tmp_path):
    workload = _tiny(name)
    ops = _run_ops(workload, tmp_path)
    assert len(ops) == worker.MIN_OPS
    assert all(op["rc"] == 0 for op in ops)
    assert len({op["sha256"] for op in ops}) == 1
    assert run.check_ops(workload, TINY_SEED, tmp_path, ops) == \
        [[]] * len(ops)


def test_service_round_that_increases_fails(tmp_path):
    workload = _tiny("desk-table")
    ops = _run_ops(workload, tmp_path)
    out = tmp_path / "table.csv"
    lines = out.read_text().splitlines()
    fields = lines[-1].split(",")
    previous = lines[-2].split(",")
    fields[1:5] = ["%.6f" % (float(v) + 0.01) for v in previous[1:5]]
    out.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    config = json.loads((tmp_path / "config.json").read_text())
    assert any("clients-service-3 mean" in p
               for p in check_table(out.read_text(), config))
    failures = run.check_ops(workload, TINY_SEED, tmp_path, ops)
    assert all(failures)


def test_table_rows_out_of_order_or_unordered_stats_fail():
    config = {"k_servers": 1, "n_samples": 10, "seed": 3}
    good = ("scenario,mean,median,min,max,n_samples,seed\n"
            "tor-default,0.2,0.2,0.2,0.2,10,3\n"
            "clients-trust,0.1,0.1,0.1,0.1,10,3\n"
            "clients-service-1,0.1,0.1,0.1,0.1,10,3\n")
    assert check_table(good, config) == []
    lines = good.splitlines()
    swapped = "\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n"
    assert check_table(swapped, config)
    assert check_table(good.replace("0.1,0.1,0.1,0.1", "0.1,0.1,0.2,0.1", 1),
                       config)


def test_truncated_dump_fails(tmp_path):
    workload = _tiny("desk-sample")
    ops = _run_ops(workload, tmp_path)
    dump = tmp_path / "samples.bin"
    data = dump.read_bytes()
    dump.write_bytes(data[:-5])
    assert any("bytes, expected" in p for p in check_dump(
        dump, tmp_path / "bbn.json", workload.n_samples))
    assert all(run.check_ops(workload, TINY_SEED, tmp_path, ops))


def test_dump_with_wrong_marginal_fails(tmp_path):
    workload = _tiny("desk-sample")
    _run_ops(workload, tmp_path)
    bbn_path = tmp_path / "bbn.json"
    bbn = json.loads(bbn_path.read_text())
    root = next(node for node in bbn["nodes"] if not node["parents"])
    root["absolute"], root["risks"] = 0.5, []
    bbn_path.write_text(json.dumps(bbn))
    dump = tmp_path / "samples.bin"
    problems = check_dump(dump, bbn_path, workload.n_samples)
    assert any(root["id"] in p for p in problems)


def test_self_times_on_hand_built_tree():
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 5.0, 9.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0],
             ["d", 2.5, 3.5, 1, 0]]      # overlaps c: the union counts once
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 4.0, 1.0,
                                                       1.0])
    assert sum(tracing.self_times(spans[:3])) == pytest.approx(10.0)


def _traced(workload, work):
    untraced = _run_ops(workload, work)
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        ops = _loop(workload, work, worker.traced_call(tracer, cli.main))
    finally:
        tracing.uninstall(undo)
    return tracing.summarize(tracer, untraced, ops, missing)


def test_traced_top_level_times_add_up_to_run(tmp_path):
    from tortrust import experiment
    original = experiment._end_column
    metrics, top_level = _traced(_tiny("desk-table"), tmp_path)
    assert experiment._end_column is original
    assert set(metrics) | set(tracing.SETUP_METRICS) == \
        set(tracing.per_layer_units())
    # trace.run_s is timed inside the root span, apart from the spans.
    gap = top_level - metrics["trace.run_s"]["value"]
    assert 0 <= gap <= run.TOP_LEVEL_TOLERANCE_S
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["pathsel.end_column_calls"]["value"] > 0
    assert metrics["bbn.sampler.columns_computed"]["value"] > 0


def _ops(walls, refs):
    return [{"wall_s": w, "ref_s": r} for w, r in zip(walls, refs)]


def test_overhead_cancels_host_drift():
    # The host is twice as slow in the traced loop; tracing adds a quarter.
    untraced = _ops([9.0, 2.0, 2.2, 1.8], [1.0, 1.0, 1.1, 0.9])
    traced = _ops([9.0, 5.0, 5.5, 4.5], [2.0, 2.0, 2.2, 1.8])
    assert tracing.overhead_s(untraced, traced) == pytest.approx(0.5 * 1.45)


def test_short_loops_report_missing_instead_of_failing():
    one = _ops([3.0], [1.0])
    assert run._run_ref(one)["value"] is None
    assert "only 1 operation" in run._run_ref(one)["missing"]
    metrics, _ = tracing.summarize(tracing.Tracer(), one, one, {})
    assert metrics["trace.overhead_s"]["value"] is None
    assert "fewer than two" in metrics["trace.overhead_s"]["missing"]
    assert metrics["trace.run_s"]["value"] == 3.0


def test_missing_private_names_are_reported(tmp_path, monkeypatch):
    from tortrust import bbn, experiment
    monkeypatch.delattr(experiment, "_tor_default_probability")
    monkeypatch.delattr(bbn.Sampler, "_compute")
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    tracing.uninstall(undo)
    assert "experiment.tor_default" in missing
    assert "bbn.sampler.compute" in missing
    assert not hasattr(experiment, "_tor_default_probability")
    ops = _ops([1.0, 1.0], [1.0, 1.0])
    metrics, _ = tracing.summarize(tracer, ops, ops, missing)
    for name in ("experiment.tor_default_s", "bbn.sampler.compute_s",
                 "bbn.sampler.columns_computed",
                 "bbn.sampler.cache_hit_ratio"):
        assert metrics[name]["value"] is None
        assert "not found" in metrics[name]["missing"]


def test_benchmark_json_names_match_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(tracing.per_layer_units())
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "run_ref", "peak_rss_mb", "ops_ok_share"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(json.loads(run.DIGESTS.read_text())["sha256"]) == \
        set(WORKLOADS)
    assert json.loads(run.DIGESTS.read_text())["seed"] == DEFAULT_SEED
