"""The benchmark's traced run reads every per-layer metric on every
workload.

`perfbench/tracing.py` wraps package functions and Sampler methods by name
(`Sampler.column`, `Sampler._compute`, `experiment._end_column`, ...).  A
change that renames one of them, or moves work onto a path that skips it,
turns a metric null; `perfbench/test_perfbench.py` checks that only on
desk-table.  Here each workload runs at toy size, untraced and then traced,
through the harness's own worker loop.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, operation_argv, output_name  # noqa: E402

from tortrust import cli  # noqa: E402

TOY_WORLD = dict(n_as=30, n_ixp=3, n_relays=20, family_sizes=(2, 2),
                 as_org_sizes=(3, 3), ixp_org_sizes=(2,), n_epochs=6)
TOY_SEED = 11


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reads_every_per_layer_metric(name, tmp_path):
    workload = replace(WORKLOADS[name], world=TOY_WORLD, n_samples=400)
    stages = {}
    worker.build_inputs(workload, TOY_SEED, str(tmp_path), stages)
    argv = operation_argv(workload, str(tmp_path))
    out = str(tmp_path / output_name(workload))

    def loop(call):
        return worker.run_loop(argv, out, 0.0, float("inf"), call,
                               lambda: 1.0)

    untraced = loop(worker._cli_call(cli.main))
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        traced = loop(worker.traced_call(tracer, cli.main))
    finally:
        tracing.uninstall(undo)
    assert missing == {}
    assert all(op["rc"] == 0 for op in untraced + traced)
    metrics, _ = tracing.summarize(tracer, untraced, traced, missing)
    assert set(stages) == set(tracing.SETUP_METRICS)
    assert set(metrics) | set(stages) == set(tracing.per_layer_units())
    assert {metric: value["missing"] for metric, value in metrics.items()
            if value["value"] is None} == {}
