"""Command-line front end.

    tortrust world synth|build|validate
    tortrust beliefs check|apply|the-man
    tortrust bbn compile|sample|marginals|event|exact
    tortrust experiment run

Every command that writes outputs also writes `<out>.manifest.json` with
input/output digests and the seeds used.  Outputs are written through
`files.py`: atomically, JSON with sorted keys, CSV quoted only where CSV
requires it.  Experiment configs are checked key by key: an unknown key or
a value of the wrong type is a parse error, like a missing key.
Randomized commands require an explicit --seed.  Exit codes: 0 success,
1 unexpected error, 2 parse error, 3 validation/semantic error, 4 I/O
error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
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
from .errors import (BeliefFormatError, CompileError, DatasetError, EditError,
                     NetworkTooLargeError, OntologyError,
                     PredicateSyntaxError)
from .experiment import (CONFIG_FIELD_KINDS, DEFAULT_SCENARIOS,
                         ExperimentConfig, check_config_value,
                         run_experiment)
from .files import csv_text, json_text, write_text
from .ontology import (Ontology, default_ontology, load_ontology,
                       validate_ontology)
from .synth import SynthParams, generate_synthetic
from .world import load_world, validate_world, world_to_dict
from .worldgen import build_world

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_IO = 4

_PARSE_ERRORS = (PredicateSyntaxError, BeliefFormatError, DatasetError)
_INVALID_ERRORS = (EditError, CompileError, OntologyError,
                   NetworkTooLargeError, ValueError, KeyError)


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
    params = SynthParams(
        n_as=args.n_as, n_ixp=args.n_ixp, n_relays=args.n_relays,
        guard_fraction=args.guard_fraction, exit_fraction=args.exit_fraction,
        family_sizes=_int_list(args.family_sizes),
        as_org_sizes=_int_list(args.as_org_sizes),
        ixp_org_sizes=_int_list(args.ixp_org_sizes),
        n_epochs=args.n_epochs, max_path_len=args.max_path_len,
        drop_one_direction_fraction=args.drop_fraction)
    bundle = generate_synthetic(params, args.seed)
    save_bundle(bundle, args.out)
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
    _emit(args, json_text(edited_world_to_dict(ew)), [args.doc, args.world])
    return EXIT_OK


def cmd_beliefs_the_man(args):
    world = load_world(args.world)
    doc = build_the_man(world, p_org=args.p_org, p_fam_max=args.p_fam_max,
                        p_fam_min=args.p_fam_min)
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

_CONFIG_REQUIRED = ("world", "adversary", "clients", "destination_as",
                    "n_samples", "seed")
# Every key an experiment config file may hold, and the kind of its value.
_CONFIG_KEYS = {"world": "a string", "adversary": "a string",
                "ontology": "a string", **CONFIG_FIELD_KINDS}


def _check_experiment_config(raw):
    """Raise BeliefFormatError naming the first key of `raw` that is
    missing, unknown or of the wrong type (a bool is not an integer)."""
    if not isinstance(raw, dict):
        raise BeliefFormatError("experiment config: expected an object")
    for key in _CONFIG_REQUIRED:
        if key not in raw:
            raise BeliefFormatError(f"experiment config is missing {key!r}")
    for key, value in sorted(raw.items()):
        if key not in _CONFIG_KEYS:
            raise BeliefFormatError(
                f"experiment config has unknown key {key!r}")
        try:
            check_config_value(key, value, _CONFIG_KEYS[key])
        except ValueError as exc:
            raise BeliefFormatError(str(exc)) from None


def _load_experiment_config(path, scenario_filter=None):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    _check_experiment_config(raw)
    scenarios = tuple(raw.get("scenarios", DEFAULT_SCENARIOS))
    if scenario_filter:
        scenarios = tuple(s for s in scenarios if s == scenario_filter)
        if not scenarios:
            raise BeliefFormatError(
                f"scenario {scenario_filter!r} not in config")
    # Relative paths are relative to the config; join keeps absolute ones.
    base = os.path.dirname(os.path.abspath(path))
    paths = {key: os.path.join(base, raw[key])
             for key in ("world", "adversary", "ontology") if key in raw}
    cfg = ExperimentConfig(
        world=load_world(paths["world"]),
        ontology=load_ontology(paths["ontology"]) if raw.get("ontology")
        else default_ontology(),
        adversary=load_belief_document(paths["adversary"]),
        clients=tuple(raw["clients"]),
        destination_as=raw["destination_as"],
        scenarios=scenarios,
        **{key: raw[key] for key in ("n_samples", "seed", "k_servers",
                                     "guard_count") if key in raw})
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
    if not text:
        return ()
    return tuple(int(part) for part in text.split(",") if part)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tortrust",
        description="Trust-aware adversary modeling and path selection.")
    parser.add_argument("--version", action="version",
                        version=f"tortrust {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    world = sub.add_parser("world", help="build and validate worlds")
    world_sub = world.add_subparsers(dest="cmd", required=True)

    synth = world_sub.add_parser("synth", help="generate a synthetic bundle")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True, help="output bundle directory")
    synth.add_argument("--n-as", type=int, default=50, dest="n_as")
    synth.add_argument("--n-ixp", type=int, default=5, dest="n_ixp")
    synth.add_argument("--n-relays", type=int, default=30, dest="n_relays")
    synth.add_argument("--guard-fraction", type=float, default=0.4)
    synth.add_argument("--exit-fraction", type=float, default=0.3)
    synth.add_argument("--family-sizes", default="",
                       help="comma-separated family sizes, e.g. 3,2,2")
    synth.add_argument("--as-org-sizes", default="")
    synth.add_argument("--ixp-org-sizes", default="")
    synth.add_argument("--n-epochs", type=int, default=12)
    synth.add_argument("--max-path-len", type=int, default=6)
    synth.add_argument("--drop-fraction", type=float, default=0.0,
                       help="fraction of AS pairs missing one path direction")
    synth.set_defaults(func=cmd_world_synth)

    build = world_sub.add_parser("build", help="datasets to world file")
    build.add_argument("--datasets", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--ontology")
    build.set_defaults(func=cmd_world_build)

    validate = world_sub.add_parser("validate", help="check a world file")
    validate.add_argument("--world", required=True)
    validate.add_argument("--ontology")
    validate.set_defaults(func=cmd_world_validate)

    beliefs = sub.add_parser("beliefs", help="check and apply beliefs")
    beliefs_sub = beliefs.add_subparsers(dest="cmd", required=True)

    check = beliefs_sub.add_parser("check", help="parse and diagnose")
    check.add_argument("--doc", required=True)
    check.add_argument("--world")
    check.add_argument("--ontology")
    check.set_defaults(func=cmd_beliefs_check)

    apply_p = beliefs_sub.add_parser("apply", help="apply structural beliefs")
    apply_p.add_argument("--doc", required=True)
    apply_p.add_argument("--world", required=True)
    apply_p.add_argument("--out", required=True)
    apply_p.add_argument("--ontology")
    apply_p.set_defaults(func=cmd_beliefs_apply)

    the_man = beliefs_sub.add_parser(
        "the-man", help="generate the pervasive-adversary document")
    the_man.add_argument("--world", required=True)
    the_man.add_argument("--out", required=True)
    the_man.add_argument("--p-org", type=float, default=0.1)
    the_man.add_argument("--p-fam-max", type=float, default=0.1)
    the_man.add_argument("--p-fam-min", type=float, default=0.001)
    the_man.set_defaults(func=cmd_beliefs_the_man)

    bbn = sub.add_parser("bbn", help="compile, sample, estimate")
    bbn_sub = bbn.add_subparsers(dest="cmd", required=True)

    compile_p = bbn_sub.add_parser("compile", help="edited world to network")
    compile_p.add_argument("--edited", required=True)
    compile_p.add_argument("--doc", help="belief document with trust beliefs")
    compile_p.add_argument("--out", required=True)
    compile_p.set_defaults(func=cmd_bbn_compile)

    sample_p = bbn_sub.add_parser("sample", help="binary joint-sample dump")
    sample_p.add_argument("--bbn", required=True)
    sample_p.add_argument("--n", type=int, required=True)
    sample_p.add_argument("--seed", type=int, required=True)
    sample_p.add_argument("--out", required=True)
    sample_p.set_defaults(func=cmd_bbn_sample)

    marginals_p = bbn_sub.add_parser("marginals", help="per-node estimates")
    marginals_p.add_argument("--bbn", required=True)
    marginals_p.add_argument("--n", type=int, required=True)
    marginals_p.add_argument("--seed", type=int, required=True)
    marginals_p.add_argument("--nodes", help="comma-separated node ids")
    marginals_p.add_argument("--out")
    marginals_p.add_argument("--format", choices=("csv", "json"),
                             default="csv")
    marginals_p.set_defaults(func=cmd_bbn_marginals)

    event_p = bbn_sub.add_parser("event", help="boolean event estimate")
    event_p.add_argument("--bbn", required=True)
    event_p.add_argument("--expr", required=True)
    event_p.add_argument("--n", type=int, required=True)
    event_p.add_argument("--seed", type=int, required=True)
    event_p.add_argument("--out")
    event_p.add_argument("--format", choices=("csv", "json"), default="csv")
    event_p.set_defaults(func=cmd_bbn_event)

    exact_p = bbn_sub.add_parser("exact", help="full joint distribution")
    exact_p.add_argument("--bbn", required=True)
    exact_p.add_argument("--cap", type=int, default=EXACT_NODE_CAP)
    exact_p.add_argument("--out")
    exact_p.add_argument("--format", choices=("csv", "json"), default="json")
    exact_p.set_defaults(func=cmd_bbn_exact)

    experiment = sub.add_parser("experiment", help="scenario tables")
    experiment_sub = experiment.add_subparsers(dest="cmd", required=True)

    run = experiment_sub.add_parser("run", help="run configured scenarios")
    run.add_argument("--config", required=True)
    run.add_argument("--out")
    run.add_argument("--scenario", help="run only this scenario")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=cmd_experiment_run)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = "tortrust " + " ".join(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except _INVALID_ERRORS as exc:
        # KeyError repr-quotes its message; unwrap the single argument
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"error: {msg}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # CLI boundary: any other error exits 1
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
