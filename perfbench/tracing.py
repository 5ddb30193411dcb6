"""Spans and counters for the traced run.

Nothing here is imported by the untraced path.  `install` wraps tortrust
functions at the place where their callers look them up (for example
`tortrust.experiment._end_column`, which experiment.py imports by name)
and returns the targets it could not find, so a renamed private function
turns its metrics into "missing" instead of failing the run.

A span is (name, start, end, parent index, operation id).  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

import functools
import importlib
import statistics
import time
import weakref

ROOT_SPAN = "cli.main"

# (module, attribute path, span name).  A name may be looked up in several
# modules; each lookup place is wrapped.
SPAN_TARGETS = (
    ("tortrust.cli", "load_world", "world.load_world"),
    ("tortrust.cli", "load_belief_document", "beliefs.load_belief_document"),
    ("tortrust.cli", "load_bbn", "bbn.load_bbn"),
    ("tortrust.cli", "sample_matrix", "bbn.sample_matrix"),
    ("tortrust.cli", "save_samples", "bbn.save_samples"),
    ("tortrust.experiment", "apply_structural", "editor.apply_structural"),
    ("tortrust.experiment", "compile_bbn", "bbn.compile_bbn"),
    ("tortrust.experiment", "draw_default_circuits",
     "pathsel.draw_default_circuits"),
    ("tortrust.experiment", "_end_column", "pathsel.end_column"),
    ("tortrust.pathsel", "_end_column", "pathsel.end_column"),
    ("tortrust.experiment", "select_guards", "pathsel.select_guards"),
    ("tortrust.pathsel", "select_guards", "pathsel.select_guards"),
    ("tortrust.experiment", "select_circuit", "pathsel.select_circuit"),
    ("tortrust.experiment", "place_servers", "pathsel.place_servers"),
    ("tortrust.experiment", "_tor_default_probability",
     "experiment.tor_default"),
    ("tortrust.experiment", "_clients_trust_probability",
     "experiment.clients_trust"),
)

# Sampler methods in tortrust.bbn, wrapped together for the column counters
# and the "bbn.sampler.compute" span.
SAMPLER_TARGETS = ("Sampler.__init__", "Sampler.column", "Sampler._compute")

# Span metrics, seconds per traced operation: (span, "total" | "self").
# "self" excludes child spans, so the pair loop of tor-default, the matrix
# assembly of sample_matrix and the argmin loops of path selection are
# seen apart from the columns they request.
SPAN_METRICS = {
    "world.load_world_s": ("world.load_world", "total"),
    "beliefs.load_belief_document_s": ("beliefs.load_belief_document",
                                       "total"),
    "editor.apply_structural_s": ("editor.apply_structural", "total"),
    "bbn.compile_bbn_s": ("bbn.compile_bbn", "total"),
    "bbn.load_bbn_s": ("bbn.load_bbn", "total"),
    "bbn.sampler.compute_s": ("bbn.sampler.compute", "total"),
    "bbn.sample_matrix_s": ("bbn.sample_matrix", "self"),
    "bbn.save_samples_s": ("bbn.save_samples", "total"),
    "pathsel.draw_default_circuits_s": ("pathsel.draw_default_circuits",
                                        "total"),
    "pathsel.end_column_s": ("pathsel.end_column", "self"),
    "pathsel.select_guards_s": ("pathsel.select_guards", "self"),
    "pathsel.select_circuit_s": ("pathsel.select_circuit", "self"),
    "pathsel.place_servers_s": ("pathsel.place_servers", "self"),
    "experiment.tor_default_s": ("experiment.tor_default", "self"),
    "experiment.clients_trust_s": ("experiment.clients_trust", "total"),
    "experiment.clients_service_s": ("pathsel.place_servers", "total"),
    "cli.self_s": (ROOT_SPAN, "self"),
}

# Other per-layer metrics of the operations: unit and required targets.
COUNT_METRICS = {
    "bbn.nodes": ("count", ("bbn.compile_bbn|bbn.load_bbn",)),
    "bbn.edges": ("count", ("bbn.compile_bbn|bbn.load_bbn",)),
    "bbn.sampler.instances": ("count", ("Sampler.__init__",)),
    "bbn.sampler.column_requests": ("count", ("Sampler.column",)),
    "bbn.sampler.columns_computed": ("count", ("Sampler._compute",)),
    "bbn.sampler.cache_hit_ratio": ("ratio",
                                    ("Sampler.column", "Sampler._compute")),
    "bbn.sampler.columns_per_s": ("1/s", ("Sampler._compute",)),
    "bbn.sampler.peak_bytes": ("bytes",
                               ("Sampler.__init__", "Sampler._compute")),
    "pathsel.end_column_calls": ("count", ("pathsel.end_column",)),
    "trace.run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

# Set-up stages, timed by the set-up code itself around each library call.
SETUP_METRICS = ("synth.generate_synthetic_s", "worldgen.build_world_s",
                 "beliefs.build_the_man_s", "world.save_world_s")


def per_layer_units():
    """Every per-layer metric name with its unit."""
    units = {name: "s" for name in SETUP_METRICS}
    units.update({name: "s" for name in SPAN_METRICS})
    units.update({name: unit for name, (unit, _) in COUNT_METRICS.items()})
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.counts = {"instances": 0, "requests": 0, "hits": 0,
                       "computed": 0, "end_columns": 0}
        self.live_bytes = 0
        self.peak_bytes = 0
        self.networks = []          # (nodes, edges) of compiled/loaded BBNs

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        # A closed span becomes a tuple of atoms, which the garbage
        # collector stops tracking, so the spans kept until the run ends
        # do not slow the collections in later operations.
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


def _resolve(module_name, path):
    """(owner, attribute, current value) or raise AttributeError."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if name in ("bbn.compile_bbn", "bbn.load_bbn"):
            nodes = getattr(result, "nodes", ())
            tracer.networks.append(
                (len(nodes), sum(len(n.parents) for n in nodes)))
        elif name == "pathsel.end_column":
            tracer.counts["end_columns"] += 1
        return result
    return wrapped


def _release(tracer, box):
    tracer.live_bytes -= box[0]


def _sampler_wrappers(tracer, init, column, compute):
    sizes = weakref.WeakKeyDictionary()     # sampler -> [bytes cached]

    @functools.wraps(init)
    def wrapped_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.counts["instances"] += 1
        sizes[self] = box = [0]
        weakref.finalize(self, _release, tracer, box)

    @functools.wraps(column)
    def wrapped_column(self, *args, **kwargs):
        before = tracer.counts["computed"]
        result = column(self, *args, **kwargs)
        tracer.counts["requests"] += 1
        tracer.counts["hits"] += tracer.counts["computed"] == before
        return result

    @functools.wraps(compute)
    def wrapped_compute(self, *args, **kwargs):
        col = tracer.call("bbn.sampler.compute", compute, self,
                          *args, **kwargs)
        tracer.counts["computed"] += 1
        box = sizes.get(self)
        if box is not None:
            box[0] += col.nbytes
            tracer.live_bytes += col.nbytes
            tracer.peak_bytes = max(tracer.peak_bytes, tracer.live_bytes)
        return col

    return {"__init__": wrapped_init, "column": wrapped_column,
            "_compute": wrapped_compute}


def install(tracer):
    """Wrap every target; return (undo list, {target: reason missing})."""
    undo = []
    missing = {}
    for module_name, path, name in SPAN_TARGETS:
        try:
            owner, attr, fn = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            missing[name] = f"{module_name}.{path} not found ({exc})"
            continue
        undo.append((owner, attr, fn))
        setattr(owner, attr, _span_wrapper(tracer, name, fn))
    found = {}
    for path in SAMPLER_TARGETS:
        try:
            found[path] = _resolve("tortrust.bbn", path)
        except (ImportError, AttributeError) as exc:
            missing[path] = f"tortrust.bbn.{path} not found ({exc})"
    if "Sampler._compute" in missing:
        missing["bbn.sampler.compute"] = missing["Sampler._compute"]
    if len(found) == len(SAMPLER_TARGETS):
        owner = found["Sampler._compute"][0]
        wrappers = _sampler_wrappers(
            tracer, *(found[p][2] for p in SAMPLER_TARGETS))
        for path in SAMPLER_TARGETS:
            attr = path.split(".")[1]
            undo.append((owner, attr, found[path][2]))
            setattr(owner, attr, wrappers[attr])
    else:
        for path in found:
            missing.setdefault(path, "another Sampler method is missing")
    return undo, missing


def uninstall(undo):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def self_times(spans):
    """Per span: duration minus the union of its direct children's
    intervals."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio_median(ops):
    """Median operation time in reference units, warm-up excluded."""
    return statistics.median(op["wall_s"] / op["ref_s"] for op in ops[1:])


def overhead_s(untraced_ops, traced_ops):
    """Traced minus untraced median operation time.  Each operation is
    first divided by the reference timed just before it, so host drift
    between the two loops cancels; the difference is turned back into
    seconds with the median reference of both loops."""
    refs = [op["ref_s"] for op in untraced_ops[1:] + traced_ops[1:]]
    return ((_ratio_median(traced_ops) - _ratio_median(untraced_ops))
            * statistics.median(refs))


def summarize(tracer, untraced_ops, traced_ops, missing):
    """Per-layer metrics of the traced operations, as
    {name: {"value": v, "unit": u}}, and the top-level time per traced
    operation: the root span's self time plus the whole time of its direct
    children.  A metric whose target was not found gets value None and a
    "missing" reason.  Span metrics and trace.run_s are means over every
    traced operation; trace.run_s is timed inside the root span, apart
    from the spans."""
    n_ops = len(traced_ops)
    selfs = self_times(tracer.spans)
    total = {}
    own = {}
    top_level = 0.0
    for span, s in zip(tracer.spans, selfs):
        total[span[0]] = total.get(span[0], 0.0) + (span[2] - span[1])
        own[span[0]] = own.get(span[0], 0.0) + s
        if span[3] is None:
            top_level += s
        elif tracer.spans[span[3]][3] is None:
            top_level += span[2] - span[1]
    metrics = {}
    for metric, (span, mode) in SPAN_METRICS.items():
        reasons = [missing[span]] if span in missing else []
        value = (total if mode == "total" else own).get(span, 0.0) / n_ops
        metrics[metric] = _metric(value, "s", reasons)

    counts = tracer.counts
    compute_s = total.get("bbn.sampler.compute", 0.0)
    short = min(len(untraced_ops), n_ops) < 2
    values = {
        "bbn.nodes": tracer.networks[0][0] if tracer.networks else None,
        "bbn.edges": tracer.networks[0][1] if tracer.networks else None,
        "bbn.sampler.instances": counts["instances"] / n_ops,
        "bbn.sampler.column_requests": counts["requests"] / n_ops,
        "bbn.sampler.columns_computed": counts["computed"] / n_ops,
        "bbn.sampler.cache_hit_ratio":
            counts["hits"] / counts["requests"] if counts["requests"]
            else None,
        "bbn.sampler.columns_per_s":
            counts["computed"] / compute_s if compute_s else None,
        "bbn.sampler.peak_bytes": tracer.peak_bytes,
        "pathsel.end_column_calls": counts["end_columns"] / n_ops,
        "trace.run_s": sum(op["wall_s"] for op in traced_ops) / n_ops,
        "trace.overhead_s":
            None if short else overhead_s(untraced_ops, traced_ops),
    }
    for metric, (unit, needs) in COUNT_METRICS.items():
        reasons = []
        for need in needs:
            alternatives = need.split("|")
            if all(alt in missing for alt in alternatives):
                reasons += [missing[alt] for alt in alternatives]
        value = values[metric]
        if value is None and not reasons:
            reasons = ["a loop had fewer than two operations"
                       if metric == "trace.overhead_s" and short
                       else "not exercised by this workload"]
        metrics[metric] = _metric(value, unit, reasons)
    return metrics, top_level / n_ops


def _metric(value, unit, reasons):
    if reasons:
        return {"value": None, "unit": unit, "missing": "; ".join(reasons)}
    return {"value": value, "unit": unit}
