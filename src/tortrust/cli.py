"""Command-line front end.

    tortrust world synth|build|validate
    tortrust beliefs check|apply|the-man
    tortrust bbn compile|sample|marginals|event|exact
    tortrust experiment run

Every command that writes outputs also writes `<out>.manifest.json` with
input/output digests and the seeds used.  Outputs are written through
`files.py`: atomically, JSON as one line with sorted keys, CSV quoted only
where CSV requires it.  Experiment configs are checked key by key: an
unknown key or a value of the wrong type is a parse error, like a missing
key.  Randomized commands require an explicit --seed.  Exit codes: 0 success,
4 I/O error, 3 out of memory; a package error exits with the code its
class holds (`errors.py`: 2 parse error, 3 validation/semantic error), and
any other error with 1.
"""

import argparse
import dataclasses
import hashlib
import os
import re
import sys
from datetime import datetime, timezone

from . import __version__
from .beliefs import (build_the_man, load_belief_document,
                      serialize_belief_document)
from .bbn import (EXACT_NODE_CAP, compile_bbn, enumerate_exact, bbn_to_dict,
                  estimate_event, estimate_marginals, load_bbn, sample_matrix,
                  save_samples)
from .datasets import load_bundle, save_bundle
from .editor import (apply_structural, document_ontology, edited_world_to_dict,
                     load_edited_world)
from .errors import BeliefFormatError, InvalidInputError, TrustModelError
from .experiment import (CONFIG_FIELDS, CONFIG_FILES, ExperimentConfig,
                         run_experiment)
from .files import csv_text, json_text, read_json, write_text
from .ontology import (Ontology, default_ontology, load_ontology,
                       validate_ontology)
from .synth import SynthParams, generate_synthetic
from .validation import read_record
from .world import load_world, validate_world, world_to_dict
from .worldgen import build_world

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = InvalidInputError.exit_code
EXIT_IO = 4


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path, args, inputs, outputs, seeds=None):
    manifest = {
        "tool": "tortrust",
        "version": __version__,
        "command": args.command_line,
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))
                   if os.path.isfile(p)},
        "outputs": {p: _sha256(p) for p in sorted(set(outputs))
                    if os.path.isfile(p)},
        "seeds": seeds or {},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_text(out_path + ".manifest.json", json_text(manifest))


def _load_ontology(args):
    if getattr(args, "ontology", None):
        return load_ontology(args.ontology)
    return default_ontology()


def _emit(args, text, inputs, seeds=None):
    """Write `text` to --out, with its manifest, or else to stdout."""
    if args.out:
        write_text(args.out, text)
        _write_manifest(args.out, args, inputs, [args.out], seeds=seeds)
    else:
        sys.stdout.write(text)


# --- world -------------------------------------------------------------------

def cmd_world_synth(args):
    names = {f.name for f in dataclasses.fields(SynthParams)}
    params = SynthParams(**{k: v for k, v in vars(args).items() if k in names})
    save_bundle(generate_synthetic(params, args.seed), args.out)
    _write_manifest(os.path.join(args.out, "bundle"), args, [],
                    [os.path.join(args.out, f) for f in sorted(
                        os.listdir(args.out)) if f.endswith(".jsonl")],
                    seeds={"synth": args.seed})
    return EXIT_OK


def _failed(report):
    """Write a failing report's violations to stderr; True when it failed."""
    if not report.ok:
        sys.stderr.write(report.summary() + "\n")
    return not report.ok


def cmd_world_build(args):
    ontology = _load_ontology(args)
    if _failed(validate_ontology(ontology)):
        return EXIT_INVALID
    bundle = load_bundle(args.datasets)
    world = build_world(ontology, bundle)
    if _failed(validate_world(world, ontology)):
        return EXIT_INVALID
    _emit(args, json_text(world_to_dict(world)),
          [os.path.join(args.datasets, f)
           for f in sorted(os.listdir(args.datasets))])
    return EXIT_OK


def cmd_world_validate(args):
    ontology = _load_ontology(args)
    if _failed(validate_ontology(ontology)):
        return EXIT_INVALID
    world = load_world(args.world)
    if _failed(validate_world(world, ontology)):
        return EXIT_INVALID
    sys.stderr.write("world ok: %d instances, %d relationships\n"
                     % (len(world.names), len(world.src)))
    return EXIT_OK


# --- beliefs -----------------------------------------------------------------

def cmd_beliefs_check(args):
    doc = load_belief_document(args.doc)
    ontology = _load_ontology(args)
    if _failed(validate_ontology(ontology)):
        return EXIT_INVALID
    if args.world:
        apply_structural(load_world(args.world), ontology, doc)
    elif _failed(validate_ontology(document_ontology(Ontology(), doc))):
        return EXIT_INVALID         # the novel types among themselves
    sys.stderr.write("belief document ok: %d structural, %d trust\n"
                     % (len(doc.structural), len(doc.trust)))
    return EXIT_OK


def cmd_beliefs_apply(args):
    doc = load_belief_document(args.doc)
    world = load_world(args.world)
    ontology = _load_ontology(args)
    ew = apply_structural(world, ontology, doc)
    _emit(args, json_text(edited_world_to_dict(ew)),
          [args.doc, args.world])
    return EXIT_OK


def cmd_beliefs_the_man(args):
    world = load_world(args.world)
    doc = build_the_man(world, **{k: v for k, v in vars(args).items()
                                  if k.startswith("p_")})
    _emit(args, serialize_belief_document(doc), [args.world])
    return EXIT_OK


# --- bbn ---------------------------------------------------------------------

def cmd_bbn_compile(args):
    ew = load_edited_world(args.edited)
    trust = ()
    scale = None
    inputs = [args.edited]
    if args.doc:
        doc = load_belief_document(args.doc)
        trust = doc.trust
        scale = doc.scale
        inputs.append(args.doc)
    bbn = compile_bbn(ew, trust, scale)
    _emit(args, json_text(bbn_to_dict(bbn)), inputs)
    return EXIT_OK


def cmd_bbn_sample(args):
    bbn = load_bbn(args.bbn)
    save_samples(args.out, sample_matrix(bbn, args.n, args.seed), len(bbn))
    _write_manifest(args.out, args, [args.bbn], [args.out],
                    seeds={"sample": args.seed})
    return EXIT_OK


def cmd_bbn_marginals(args):
    bbn = load_bbn(args.bbn)
    nodes = args.nodes.split(",") if args.nodes else None
    estimates = estimate_marginals(bbn, nodes=nodes, n=args.n, seed=args.seed)
    if args.format == "json":
        text = json_text([dataclasses.asdict(e) for e in estimates])
    else:
        text = csv_text(["node", "estimate", "n_samples"],
                        [[e.node, f"{e.estimate:.6f}", e.n_samples]
                         for e in estimates])
    _emit(args, text, [args.bbn], seeds={"marginals": args.seed})
    return EXIT_OK


def cmd_bbn_event(args):
    bbn = load_bbn(args.bbn)
    estimate = estimate_event(bbn, args.expr, n=args.n, seed=args.seed)
    if args.format == "json":
        text = json_text({"event": args.expr, "estimate": estimate,
                           "n_samples": args.n, "seed": args.seed})
    else:
        text = csv_text(["event", "estimate", "n_samples", "seed"],
                        [[args.expr, f"{estimate:.6f}", args.n, args.seed]])
    _emit(args, text, [args.bbn], seeds={"event": args.seed})
    return EXIT_OK


def cmd_bbn_exact(args):
    bbn = load_bbn(args.bbn)
    dist = enumerate_exact(bbn, cap=args.cap)
    states = sorted(dist)
    if args.format == "json":
        text = json_text({"nodes": list(bbn.ids),
                           "probabilities": [[s, dist[s]] for s in states]})
    else:
        text = csv_text(["state", "probability"],
                        [[s, f"{dist[s]:.12g}"] for s in states])
    _emit(args, text, [args.bbn])
    return EXIT_OK


# --- experiment --------------------------------------------------------------

def _load_experiment_config(path, scenario_filter=None):
    raw = read_record(read_json(path), CONFIG_FIELDS, "experiment config",
                      BeliefFormatError)
    scenarios = tuple(raw["scenarios"])
    if scenario_filter:
        scenarios = tuple(s for s in scenarios if s == scenario_filter)
        if not scenarios:
            raise BeliefFormatError(
                f"scenario {scenario_filter!r} not in config")
    # Relative paths are relative to the config; join keeps absolute ones.
    base = os.path.dirname(os.path.abspath(path))
    paths = {key: os.path.join(base, raw[key])
             for key in CONFIG_FILES}
    cfg = ExperimentConfig(
        world=load_world(paths["world"]),
        ontology=load_ontology(paths["ontology"]) if raw["ontology"]
        else default_ontology(),
        adversary=load_belief_document(paths["adversary"]),
        clients=tuple(raw["clients"]),
        destination_as=raw["destination_as"],
        scenarios=scenarios,
        **{key: raw[key] for key in ("n_samples", "seed", "k_servers",
                                     "guard_count")})
    return cfg, list(paths.values())


def cmd_experiment_run(args):
    cfg, inputs = _load_experiment_config(args.config, args.scenario)
    table = run_experiment(cfg)
    if args.format == "json":
        text = json_text([dataclasses.asdict(r) for r in table.rows])
    else:
        text = table.to_csv()
    _emit(args, text, inputs + [args.config], seeds={"experiment": cfg.seed})
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def _int_list(text):
    """Comma-separated parts, as ints where they read as integers; a part
    of more digits than int() converts stays text."""
    parts = []
    for part in filter(None, text.split(",")):
        try:
            parts.append(int(part) if re.fullmatch(r"\s*[-+]?\d+\s*", part)
                         else part)
        except ValueError:
            parts.append(part)
    return tuple(parts)


_REQ = {"required": True}
_REQ_INT = {"type": int, "required": True}
_INT = {"type": int}
_FLOAT = {"type": float}
_INTS = {"type": _int_list}
_FORMAT = {"choices": ("csv", "json"), "default": "csv"}

# Each command group with its help and verbs; each verb with its help, its
# handler and its options, (flag, keywords of add_argument), in help order.
_COMMANDS = (
    ("world", "build and validate worlds", (
        ("synth", "generate a synthetic bundle", cmd_world_synth, (
            ("--seed", _REQ_INT),
            ("--out", {**_REQ, "help": "output bundle directory"}),
            ("--n-as", _INT), ("--n-ixp", _INT), ("--n-relays", _INT),
            ("--guard-fraction", _FLOAT), ("--exit-fraction", _FLOAT),
            ("--family-sizes", {**_INTS, "help": "comma-separated family "
                                "sizes, e.g. 3,2,2"}),
            ("--as-org-sizes", _INTS), ("--ixp-org-sizes", _INTS),
            ("--n-epochs", _INT), ("--max-path-len", _INT),
            ("--drop-fraction", {
                **_FLOAT, "metavar": "DROP_FRACTION",
                "dest": "drop_one_direction_fraction",
                "help": "fraction of AS pairs missing one path direction"}))),
        ("build", "datasets to world file", cmd_world_build, (
            ("--datasets", _REQ), ("--out", _REQ), ("--ontology", {}))),
        ("validate", "check a world file", cmd_world_validate, (
            ("--world", _REQ), ("--ontology", {}))))),
    ("beliefs", "check and apply beliefs", (
        ("check", "parse and diagnose", cmd_beliefs_check, (
            ("--doc", _REQ), ("--world", {}), ("--ontology", {}))),
        ("apply", "apply structural beliefs", cmd_beliefs_apply, (
            ("--doc", _REQ), ("--world", _REQ), ("--out", _REQ),
            ("--ontology", {}))),
        ("the-man", "generate the pervasive-adversary document",
         cmd_beliefs_the_man, (
             ("--world", _REQ), ("--out", _REQ), ("--p-org", _FLOAT),
             ("--p-fam-max", _FLOAT), ("--p-fam-min", _FLOAT))))),
    ("bbn", "compile, sample, estimate", (
        ("compile", "edited world to network", cmd_bbn_compile, (
            ("--edited", _REQ),
            ("--doc", {"help": "belief document with trust beliefs"}),
            ("--out", _REQ))),
        ("sample", "binary joint-sample dump", cmd_bbn_sample, (
            ("--bbn", _REQ), ("--n", _REQ_INT), ("--seed", _REQ_INT),
            ("--out", _REQ))),
        ("marginals", "per-node estimates", cmd_bbn_marginals, (
            ("--bbn", _REQ), ("--n", _REQ_INT), ("--seed", _REQ_INT),
            ("--nodes", {"help": "comma-separated node ids"}),
            ("--out", {}), ("--format", _FORMAT))),
        ("event", "boolean event estimate", cmd_bbn_event, (
            ("--bbn", _REQ), ("--expr", _REQ), ("--n", _REQ_INT),
            ("--seed", _REQ_INT), ("--out", {}), ("--format", _FORMAT))),
        ("exact", "full joint distribution", cmd_bbn_exact, (
            ("--bbn", _REQ), ("--cap", {**_INT, "default": EXACT_NODE_CAP}),
            ("--out", {}), ("--format", {**_FORMAT, "default": "json"}))))),
    ("experiment", "scenario tables", (
        ("run", "run configured scenarios", cmd_experiment_run, (
            ("--config", _REQ), ("--out", {}),
            ("--scenario", {"help": "run only this scenario"}),
            ("--format", _FORMAT))),)),
)
# The verbs whose absent options stay out of the namespace, so that the
# library's defaults hold.
_LIBRARY_DEFAULTS = ("synth", "the-man")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tortrust",
        description="Trust-aware adversary modeling and path selection.")
    parser.add_argument("--version", action="version",
                        version=f"tortrust {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, group_help, verbs in _COMMANDS:
        verb_parsers = groups.add_parser(group, help=group_help) \
            .add_subparsers(dest="cmd", required=True)
        for verb, verb_help, func, options in verbs:
            verb_parser = verb_parsers.add_parser(
                verb, help=verb_help, argument_default=argparse.SUPPRESS
                if verb in _LIBRARY_DEFAULTS else None)
            for flag, keywords in options:
                verb_parser.add_argument(flag, **keywords)
            verb_parser.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = "tortrust " + " ".join(argv)
    try:
        return args.func(args)
    except TrustModelError as exc:      # its class sets the exit code
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except MemoryError as exc:     # a count too large for this host
        sys.stderr.write(f"error: not enough memory: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:  # CLI boundary: any other error exits 1
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
