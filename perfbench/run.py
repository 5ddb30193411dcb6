"""End-to-end benchmark of the tortrust CLI.

    python3 perfbench/run.py --workload desk-table --seed 2026 \
        --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory, never from an installed copy.  Each workload runs in its
own single-threaded worker process (TORTRUST_THREADS unset), as a closed
loop with one client: each operation is one in-process call to
tortrust.cli.main(argv) and the next starts when the last one ends.
Set-up runs several times in a separate process first.

--trace 0 prints the end-to-end metrics; --trace 1 runs the loop untraced
and then traced, and prints the per-layer metrics.  Outputs are checked
after the loop.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs every
workload and prefixes each metric with its workload name.  Results with
their environment stamp go to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_dump, check_table
from tracing import per_layer_units
from workloads import DEFAULT_SEED, WORKLOADS, output_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

TIME_LIMIT_S = 170.0        # the whole command, per workload
CHECK_MARGIN_S = 45.0       # no operation starts later than this before it
# Per traced operation: the root span encloses the independently timed call
# and adds only its own bookkeeping to it.
TOP_LEVEL_TOLERANCE_S = 1e-3
# setup_s is the set-up time on a host where the reference takes this long.
REFERENCE_NOMINAL_S = 0.4


class BenchError(Exception):
    pass


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "TORTRUST_THREADS": "unset", "commit": commit}


def _worker_env():
    env = dict(os.environ)
    env.pop("TORTRUST_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, deadline):
    """Run worker.py with args; raise BenchError on failure or timeout."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {args[0]}")
    try:
        proc = subprocess.run(cmd, env=_worker_env(), stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") \
            from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")


def _pinned_digest(name, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["sha256"].get(name)


def check_ops(workload, seed, work, ops):
    """Failure reasons per operation.  Every operation must exit 0 and
    leave the same bytes as the last one, whose output is still on disk;
    at the default seed those bytes must match the pinned digest."""
    out = work / output_name(workload)
    last = ops[-1]["sha256"]
    if last is None:
        problems = ["the last operation left no output to check"]
    elif workload.kind == "table":
        with open(work / "config.json", encoding="utf-8") as fh:
            config = json.load(fh)
        problems = check_table(out.read_text(encoding="utf-8"), config)
    else:
        problems = check_dump(out, work / "bbn.json", workload.n_samples)
    pinned = _pinned_digest(workload.name, seed)
    if pinned is not None and last != pinned:
        problems.append(f"sha256 {last} differs from pinned {pinned}")
    failures = []
    for op in ops:
        if op["rc"] != 0:
            failures.append([f"exit code {op['rc']}"])
        elif op["sha256"] != last:
            failures.append(["output bytes differ between operations"])
        else:
            failures.append(problems)
    return failures


def _timed_walls(ops):
    """Operation times that count towards run_s: all but the warm-up."""
    return [op["wall_s"] for op in ops[1:]]


def _timed_refs(ops):
    """Reference times taken before the operations that count."""
    return [op["ref_s"] for op in ops[1:]]


def _host_adjusted_setup(setup):
    """Median set-up time scaled by REFERENCE_NOMINAL_S over the median
    time of the reference computation timed before each set-up."""
    return (statistics.median(setup["setup_s"]) * REFERENCE_NOMINAL_S
            / statistics.median(setup["ref_s"]))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _run_ref(ops):
    """The run_ref metric; null when no operation after the warm-up
    finished before the deadline."""
    walls = _timed_walls(ops)
    if not walls:
        return {"value": None, "unit": "ref",
                "missing": f"only {len(ops)} operation finished before the "
                           f"deadline; run_ref needs a warm-up and one more"}
    return {"value": statistics.median(walls)
            / statistics.median(_timed_refs(ops)), "unit": "ref"}


def run_workload(name, seed, seconds, trace, env):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    spans_out = RESULTS / f"{name}-seed{seed}-spans.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _spawn(["setup", "--workload", name, "--seed", seed, "--dir", work],
               deadline)
        setup = json.loads((work / "setup.json").read_text())
        max_seconds = max(seconds, deadline - time.monotonic()
                          - CHECK_MARGIN_S)
        ops_args = ["ops", "--workload", name, "--dir", work,
                    "--seconds", seconds, "--max-seconds", max_seconds]
        if trace:
            ops_args += ["--trace", "--spans-out", spans_out]
        _spawn(ops_args, deadline)
        result = json.loads((work / "ops.json").read_text())
        all_ops = result["ops"] + result.get("traced_ops", [])
        failures = check_ops(workload, seed, work, all_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for f in failures if f)
    problems = []
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "setup": setup, "ops": all_ops,
        "failures": failures, "problems": problems,
    }
    if trace:
        metrics = {m: {"value": statistics.median(setup["stages"][m]),
                       "unit": "s"} for m in setup["stages"]}
        metrics.update(result["per_layer"])
        metrics = {m: metrics[m] for m in per_layer_units()}
        traced_run = metrics["trace.run_s"]["value"]
        report["top_level_s"] = top_level = result["top_level_s"]
        if not 0 <= top_level - traced_run <= TOP_LEVEL_TOLERANCE_S:
            problems.append(f"top-level self times sum to {top_level} s, "
                            f"traced run_s is {traced_run} s")
    else:
        metrics = {
            "setup_s": {"value": _host_adjusted_setup(setup), "unit": "s"},
            "run_ref": _run_ref(result["ops"]),
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ops_ok_share": {"value": (len(all_ops) - failed) / len(all_ops),
                             "unit": "share"},
        }
    report["metrics"] = metrics
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1))
    _print_report(report, result, failed)
    return {"correct": not failed and not problems,
            "attempted": len(all_ops),
            "failed": failed, "metrics": metrics}


def _print_report(report, result, failed):
    name, env = report["workload"], report["env"]
    print(f"# {name}  seed {report['seed']}  {report['seconds']} s  "
          f"{'traced' if report['trace'] else 'untraced'}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    setup = report["setup"]
    walls = _timed_walls(result["ops"])
    print(f"setup wall   {statistics.median(setup['setup_s']):10.4f} s    "
          f"median of {len(setup['setup_s'])} set-ups, reference "
          f"{statistics.median(setup['ref_s']):.4f} s")
    print(f"setup_s      {_host_adjusted_setup(setup):10.4f} s    "
          f"set-up wall x {REFERENCE_NOMINAL_S} s / reference")
    refs = _timed_refs(result["ops"])
    run_ref = _run_ref(result["ops"])
    if run_ref["value"] is None:
        print(f"run_s        missing: {run_ref['missing']}")
    else:
        q1, q3 = _quartiles(walls)
        print(f"run_s        {statistics.median(walls):10.4f} s    median "
              f"of {len(walls)} operations after a warm-up, quartiles "
              f"{q1:.4f} {q3:.4f}")
        print(f"reference_s  {statistics.median(refs):10.4f} s    median "
              f"of {len(refs)}, each timed just before an operation")
        print(f"run_ref      {run_ref['value']:10.4f} ref  "
              f"run_s / reference_s")
    if not report["trace"]:
        print(f"peak_rss_mb  {result['peak_rss_mb']:10.1f} MB   "
              f"worker process, {len(result['ops'])} operations")
    n_ops = len(report["ops"])
    print(f"ops_failed   {failed:10d}      of {n_ops} operations "
          f"(share {failed / n_ops:.4f})")
    if report["trace"]:
        for metric, m in report["metrics"].items():
            value = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:34s} {value:>12s} {m['unit']:6s} "
                  f"{m.get('missing', '')}")
        print(f"  top-level self times sum to {report['top_level_s']:.6f} s "
              f"per traced operation ({len(result['traced_ops'])} "
              f"operations); trace.run_s is timed apart from the spans")
    for i, reasons in enumerate(report["failures"]):
        for reason in reasons:
            print(f"FAILED op {i}: {reason}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tortrust" / "cli.py").is_file():
        print(f"error: no tortrust sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace, env) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v
                             for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
