"""Output checks.  Each returns a list of problems; an empty list passes.

They read the output after the timed loop, in the orchestrator process, so
they count towards neither run_s nor peak_rss_mb.  The dump check reads
only the byte columns that hold parentless nodes.
"""

import csv
import io
import json
import math
import os

import numpy as np

SAMPLE_MAGIC = b"TBBN"
SAMPLE_VERSION = 1
HEADER_BYTES = 8
TABLE_HEADER = ["scenario", "mean", "median", "min", "max", "n_samples",
                "seed"]
STATS = ("mean", "median", "min", "max")
Z_LIMIT = 5.0


def check_table(text, config):
    """An experiment CSV against its config: rows in order, values in
    [0, 1], min <= mean, median <= max, service rounds never increase."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TABLE_HEADER:
        return [f"header is {rows[:1]}, expected {TABLE_HEADER}"]
    k = config["k_servers"]
    expected = (["tor-default", "clients-trust"]
                + [f"clients-service-{i}" for i in range(1, k + 1)])
    scenarios = [row[0] for row in rows[1:]]
    if scenarios != expected:
        return [f"scenarios {scenarios}, expected {expected}"]
    problems = []
    stats = []
    for row in rows[1:]:
        try:
            values = dict(zip(STATS, (float(v) for v in row[1:5])))
            n_samples, seed = int(row[5]), int(row[6])
        except (ValueError, IndexError):
            problems.append(f"{row[0]}: malformed row {row}")
            continue
        stats.append(values)
        if not all(0.0 <= v <= 1.0 for v in values.values()):
            problems.append(f"{row[0]}: value outside [0, 1]: {values}")
        if not (values["min"] <= values["mean"] <= values["max"]
                and values["min"] <= values["median"] <= values["max"]):
            problems.append(f"{row[0]}: min/mean/median/max out of order")
        if (n_samples, seed) != (config["n_samples"], config["seed"]):
            problems.append(f"{row[0]}: n_samples/seed {n_samples}/{seed}, "
                            f"config has {config['n_samples']}/"
                            f"{config['seed']}")
    if problems:
        return problems
    service = stats[2:]
    for i in range(1, len(service)):
        for key in STATS:
            if service[i][key] > service[i - 1][key]:
                problems.append(f"clients-service-{i + 1} {key} "
                                f"{service[i][key]} exceeds round {i} "
                                f"{service[i - 1][key]}")
    return problems


def closed_form(node):
    """Marginal of a parentless node: its absolute probability, else
    1 - prod(1 - q) over its risks."""
    if node.get("absolute") is not None:
        return float(node["absolute"])
    keep = 1.0
    for q in node.get("risks", ()):
        keep *= 1.0 - float(q)
    return 1.0 - keep


def check_dump(dump_path, bbn_path, n_samples):
    """A `bbn sample` dump against its network: header, node count and
    size, and every parentless node's column mean within Z_LIMIT standard
    errors of its closed-form probability."""
    with open(bbn_path, encoding="utf-8") as fh:
        nodes = json.load(fh)["nodes"]
    size = os.path.getsize(dump_path)
    with open(dump_path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
    if len(header) < HEADER_BYTES or header[:4] != SAMPLE_MAGIC \
            or header[4] != SAMPLE_VERSION:
        return [f"bad dump header {header!r}"]
    n_nodes = int.from_bytes(header[5:8], "little")
    if n_nodes != len(nodes):
        return [f"dump has {n_nodes} nodes, network has {len(nodes)}"]
    row_bytes = (n_nodes + 7) // 8
    expected = HEADER_BYTES + n_samples * row_bytes
    if size != expected:
        return [f"dump is {size} bytes, expected {expected}"]

    roots = [i for i, node in enumerate(nodes) if not node.get("parents")]
    packed = np.memmap(dump_path, dtype=np.uint8, mode="r",
                       offset=HEADER_BYTES, shape=(n_samples, row_bytes))
    idx = np.array(roots, dtype=np.int64)
    # np.packbits is big-endian within each byte.
    bits = (packed[:, idx // 8] >> (7 - idx % 8).astype(np.uint8)) & 1
    means = bits.sum(axis=0, dtype=np.int64) / n_samples
    del packed
    problems = []
    for i, mean in zip(roots, means):
        p = closed_form(nodes[i])
        se = math.sqrt(p * (1.0 - p) / n_samples)
        if abs(mean - p) > Z_LIMIT * se + 1e-12:
            problems.append(f"{nodes[i]['id']}: mean {mean:.6f}, "
                            f"closed form {p:.6f}, se {se:.2e}")
    return problems
