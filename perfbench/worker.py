"""Subprocess side of the benchmark; run.py starts it.

    worker.py setup --workload W --seed S --dir D
        builds the workload's inputs in D SETUP_REPS times, writes
        D/setup.json
    worker.py ops --workload W --dir D --seconds T --max-seconds M
                  [--trace --spans-out F]
        calls tortrust.cli.main in a closed loop for T seconds (at least
        MIN_OPS calls, none started after M seconds), writes D/ops.json;
        the first call is a warm-up, checked but not timed into run_s

With --trace the loop runs twice: untraced, then with the wrappers from
tracing.py installed.  The untraced path imports only public tortrust
names.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import (P_ORG, WORKLOADS, experiment_config,  # noqa: E402
                       operation_argv, output_name)

MIN_OPS = 4           # one warm-up and three timed operations
SETUP_REPS = 3        # setup_s is the median of this many set-ups
REFERENCE_ROUNDS = 40  # about 0.45 s on a 2-core Xeon VM


def _import_tortrust():
    import tortrust
    if SRC not in Path(tortrust.__file__).resolve().parents:
        raise ImportError(f"tortrust imported from {tortrust.__file__}, "
                          f"not from {SRC}")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_inputs(workload, seed, work_dir, stage_times):
    """Synthetic bundle -> world, adversary document, config (and for a
    sample workload the compiled network) on disk.  Each library call is
    timed into stage_times[name]."""
    from tortrust.beliefs import build_the_man, save_belief_document
    from tortrust.bbn import compile_bbn, save_bbn
    from tortrust.editor import apply_structural
    from tortrust.ontology import default_ontology
    from tortrust.synth import SynthParams, generate_synthetic
    from tortrust.world import save_world
    from tortrust.worldgen import build_world

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        stage_times.setdefault(name, []).append(time.perf_counter() - start)
        return result

    ontology = default_ontology()
    bundle = timed("synth.generate_synthetic_s", generate_synthetic,
                   SynthParams(**workload.world), seed)
    world = timed("worldgen.build_world_s", build_world, ontology, bundle)
    doc = timed("beliefs.build_the_man_s", build_the_man, world, p_org=P_ORG)
    timed("world.save_world_s", save_world, world,
          os.path.join(work_dir, "world.json"))
    save_belief_document(doc, os.path.join(work_dir, "theman.json"))
    config = experiment_config(workload, world.of_type("AS"))
    with open(os.path.join(work_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    if workload.kind == "sample":
        edited = apply_structural(world, ontology, doc)
        save_bbn(compile_bbn(edited, doc.trust, doc.scale),
                 os.path.join(work_dir, "bbn.json"))


def cmd_setup(args):
    workload = WORKLOADS[args.workload]
    reference = make_reference()
    stage_times = {}
    setup_s = []
    ref_s = []
    for _ in range(SETUP_REPS):
        gc.collect()
        ref_s.append(reference())
        start = time.perf_counter()
        build_inputs(workload, args.seed, args.dir, stage_times)
        setup_s.append(time.perf_counter() - start)
    return {"setup_s": setup_s, "ref_s": ref_s, "stages": stage_times}


def make_reference():
    """A fixed computation that runs no tortrust code: JSON parsing, object
    building, many small and a few large boolean numpy operations, the mix
    an operation has.  Timed next to each operation, it measures the host's
    speed, which on a shared machine drifts by a quarter over minutes.  It
    holds a few MB and adds 2 to 3 MB to peak_rss_mb.  It must not change:
    run_ref and setup_s are scaled by its time."""
    doc = json.dumps([{"id": f"node:{i}", "parents": [[i // 2, 0.5],
                                                      [i // 3, 0.25]],
                       "risks": [0.01]} for i in range(2_000)])
    rng = np.random.default_rng(0)
    small = rng.integers(0, 2, size=(200, 5_000), dtype=bool)
    large = rng.integers(0, 2, size=1_000_000, dtype=bool)

    def reference():
        start = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            nodes = json.loads(doc)
            {n["id"]: tuple(tuple(p) for p in n["parents"]) for n in nodes}
            acc = small[0]
            for row in small:
                acc = acc ^ (row & acc)
            np.packbits(large)
        return time.perf_counter() - start
    return reference


def run_loop(argv, out_path, seconds, deadline, call, reference):
    """Closed loop of `call(argv)`; one record per operation.  Outside the
    timing, the output is removed, garbage collected and the reference
    timed before each call, so every call starts from a like heap, and the
    output is hashed after it."""
    ops = []
    start = time.perf_counter()
    while True:
        for stale in (out_path, out_path + ".manifest.json"):
            if os.path.exists(stale):
                os.unlink(stale)
        gc.collect()
        ref = reference()
        rc, wall = call(argv)
        digest = sha256_file(out_path) if os.path.exists(out_path) else None
        ops.append({"wall_s": wall, "ref_s": ref, "rc": rc,
                    "sha256": digest})
        now = time.perf_counter()
        if now >= deadline or (len(ops) >= MIN_OPS
                               and now - start >= seconds):
            return ops


def _cli_call(main):
    def call(argv):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        return rc, time.perf_counter() - start
    return call


def cmd_ops(args):
    from tortrust import cli

    workload = WORKLOADS[args.workload]
    argv = operation_argv(workload, args.dir)
    out_path = os.path.join(args.dir, output_name(workload))
    deadline = time.perf_counter() + args.max_seconds
    reference = make_reference()
    result = {"ops": run_loop(argv, out_path, args.seconds, deadline,
                              _cli_call(cli.main), reference)}
    if args.trace:
        result.update(traced_ops(argv, out_path, args, deadline, reference,
                                 result["ops"]))
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return result


def traced_call(tracer, main):
    """A call like _cli_call(main)'s, inside a root span.  The time it
    returns is _cli_call's own, taken apart from the span tree."""
    import tracing

    plain = _cli_call(main)

    def call(argv):
        tracer.op = 0 if tracer.op is None else tracer.op + 1
        idx = tracer.begin(tracing.ROOT_SPAN)
        try:
            return plain(argv)
        finally:
            tracer.end(idx)
    return call


def traced_ops(argv, out_path, args, deadline, reference, untraced_ops):
    import tracing
    from tortrust import cli

    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        ops = run_loop(argv, out_path, args.seconds, deadline,
                       traced_call(tracer, cli.main), reference)
    finally:
        tracing.uninstall(undo)
    metrics, top_level = tracing.summarize(tracer, untraced_ops, ops,
                                           missing)
    with open(args.spans_out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "missing": missing}, fh)
    return {"traced_ops": ops, "per_layer": metrics,
            "top_level_s": top_level}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True, choices=WORKLOADS)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--dir", required=True)
    ops = sub.add_parser("ops")
    ops.add_argument("--workload", required=True, choices=WORKLOADS)
    ops.add_argument("--dir", required=True)
    ops.add_argument("--seconds", type=float, required=True)
    ops.add_argument("--max-seconds", type=float, required=True)
    ops.add_argument("--trace", action="store_true")
    ops.add_argument("--spans-out")
    args = parser.parse_args(argv)

    _import_tortrust()
    result = cmd_setup(args) if args.cmd == "setup" else cmd_ops(args)
    with open(os.path.join(args.dir, f"{args.cmd}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
