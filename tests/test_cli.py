import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tortrust
from tortrust.beliefs import (build_the_man, load_belief_document,
                              save_belief_document, serialize_belief_document)
from tortrust.bbn import (bbn_to_dict, compile_bbn, load_bbn, save_bbn,
                          save_samples)
from tortrust.cli import _load_experiment_config, main
from tortrust.datasets import load_bundle, save_bundle
from tortrust.editor import apply_structural
from tortrust.experiment import ExperimentConfig
from tortrust.files import json_text
from tortrust.ontology import default_ontology, ontology_to_dict
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.world import load_world, save_world
from tortrust.worldgen import build_world

from conftest import (FIXTURES, INVALID_ONTOLOGY, invalid_ontology_dict,
                      pair_network_dict, row_world_dict)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> build -> the-man -> apply -> compile chain for the module."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "bundle": str(root / "bundle"),
        "world": str(root / "world.json"),
        "doc": str(root / "theman.json"),
        "edited": str(root / "edited.json"),
        "bbn": str(root / "bbn.json"),
        "root": str(root),
    }
    assert main(["world", "synth", "--seed", "7", "--out", paths["bundle"],
                 "--n-as", "12", "--n-ixp", "2", "--n-relays", "10",
                 "--family-sizes", "2,2"]) == 0
    assert main(["world", "build", "--datasets", paths["bundle"],
                 "--out", paths["world"]]) == 0
    assert main(["beliefs", "the-man", "--world", paths["world"],
                 "--out", paths["doc"]]) == 0
    assert main(["beliefs", "apply", "--doc", paths["doc"],
                 "--world", paths["world"], "--out", paths["edited"]]) == 0
    assert main(["bbn", "compile", "--edited", paths["edited"],
                 "--doc", paths["doc"], "--out", paths["bbn"]]) == 0
    return paths


def test_world_validate_ok(workdir, capsys):
    assert main(["world", "validate", "--world", workdir["world"]]) == 0
    assert "world ok" in capsys.readouterr().err


def test_beliefs_check_fixture_corpus(capsys):
    doc = os.path.join(FIXTURES, "example_beliefs.json")
    assert main(["beliefs", "check", "--doc", doc]) == 0
    err = capsys.readouterr().err
    assert "14 trust" in err


def test_fixture_corpus_applies_to_a_world(corpus_world, tmp_path):
    """The corpus declares no type of the default ontology again, so a
    world holding its ids takes it: at the parent, `beliefs check` with
    `--world` exited 3 with [duplicate-type]."""
    doc = os.path.join(FIXTURES, "example_beliefs.json")
    world, edited = str(tmp_path / "world.json"), str(tmp_path / "ew.json")
    save_world(corpus_world, world)
    assert main(["beliefs", "check", "--doc", doc, "--world", world]) == 0
    assert main(["beliefs", "apply", "--doc", doc, "--world", world,
                 "--out", edited]) == 0
    assert main(["bbn", "compile", "--edited", edited, "--doc", doc,
                 "--out", str(tmp_path / "bbn.json")]) == 0


def test_in_on_an_unhashable_attribute_compiles(tmp_path, caplog):
    """`attr(N) in {...}` on a value that cannot be hashed is false with a
    warning, as `<` on a value that cannot be ordered; it used to exit 1
    with "unhashable type: 'dict'"."""
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("world", "doc", "edited", "bbn")}
    Path(paths["world"]).write_text(json.dumps({
        "instances": [{"id": "as:1", "type_name": "AS"},
                      {"id": "vlink:a", "type_name": "Virtual Link"}],
        "relationships": [{"parent": "as:1", "child": "vlink:a"}]}))
    Path(paths["doc"]).write_text(json.dumps({
        "structural": [["attr", "as:1", "Budget", {"k": 2}]],
        "trust": [["r", 'attr("Budget") in {1}', "U"]]}))
    assert main(["beliefs", "apply", "--doc", paths["doc"],
                 "--world", paths["world"], "--out", paths["edited"]]) == 0
    assert main(["bbn", "compile", "--edited", paths["edited"],
                 "--doc", paths["doc"], "--out", paths["bbn"]]) == 0
    assert "attribute 'Budget' on 1 instance(s) is not comparable" in \
        caplog.text
    assert all(not node.risks for node in load_bbn(paths["bbn"]).nodes)


def test_manifest_written_with_digests(workdir):
    manifest_path = workdir["world"] + ".manifest.json"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "tortrust"
    assert workdir["world"] in manifest["outputs"]
    digest = manifest["outputs"][workdir["world"]]
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert manifest["inputs"]  # the dataset files


def test_sample_and_marginals(workdir, capsys):
    out = os.path.join(workdir["root"], "samples.bin")
    assert main(["bbn", "sample", "--bbn", workdir["bbn"], "--n", "500",
                 "--seed", "3", "--out", out]) == 0
    assert os.path.getsize(out) > 0
    assert main(["bbn", "marginals", "--bbn", workdir["bbn"], "--n", "2000",
                 "--seed", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(0.0 <= r["estimate"] <= 1.0 for r in rows)
    assert all(r["n_samples"] == 2000 for r in rows)


def test_marginals_of_unknown_ids_exit_code(workdir, capsys):
    for nodes in ("nope", "as:1000,nope"):
        assert main(["bbn", "marginals", "--bbn", workdir["bbn"], "--n", "10",
                     "--seed", "1", "--nodes", nodes]) == 3
        assert capsys.readouterr() == ("", "error: unknown node 'nope'\n")


def test_sample_dump_stream_is_pinned(tmp_path, small_bbn):
    """A change to any node's random stream changes these bytes."""
    bbn_path, out = str(tmp_path / "bbn.json"), str(tmp_path / "s.bin")
    save_bbn(small_bbn, bbn_path)
    assert main(["bbn", "sample", "--bbn", bbn_path, "--n", "1000",
                 "--seed", "1", "--out", out]) == 0
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ("7969ab874c7abdd70275c59c6d7c4090"
                      "a9d87dba54501e146b0300397b4a403d")


def test_event_csv_output(workdir, capsys):
    with open(workdir["bbn"]) as fh:
        node = json.load(fh)["nodes"][0]["id"]
    assert main(["bbn", "event", "--bbn", workdir["bbn"], "--expr",
                 f"{node} or not {node}", "--n", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "event,estimate,n_samples,seed"
    assert out[1].endswith(",1.000000,100,1")


def test_exact_above_the_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "25.json"
    path.write_text(json.dumps({"nodes": [
        {"id": f"n:{i}", "risks": [0.5]} for i in range(25)]}))
    assert main(["bbn", "exact", "--bbn", str(path)]) == 3
    assert capsys.readouterr().err == ("error: 25 nodes exceeds the "
                                       "exact-enumeration limit of 24\n")


def test_experiment_run_csv(workdir, capsys):
    cfg = {
        "world": os.path.basename(workdir["world"]),
        "adversary": os.path.basename(workdir["doc"]),
        "clients": ["as:1000", "as:1003"],
        "destination_as": "as:1007",
        "n_samples": 1500,
        "seed": 11,
        "k_servers": 1,
    }
    cfg_path = os.path.join(workdir["root"], "exp.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["experiment", "run", "--config", cfg_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "scenario,mean,median,min,max,n_samples,seed"
    assert [line.split(",")[0] for line in out[1:]] == [
        "tor-default", "clients-trust", "clients-service-1"]
    # single-scenario filter
    assert main(["experiment", "run", "--config", cfg_path,
                 "--scenario", "clients-trust"]) == 0
    filtered = capsys.readouterr().out.splitlines()
    assert len(filtered) == 2


def test_experiment_run_json_rows_match_csv(workdir, capsys):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000", "as:1003"], "destination_as": "as:1007",
           "n_samples": 800, "seed": 5, "k_servers": 2}
    cfg_path = os.path.join(workdir["root"], "exp-json.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["experiment", "run", "--config", cfg_path]) == 0
    csv_rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()]
    assert main(["experiment", "run", "--config", cfg_path,
                 "--format", "json"]) == 0
    json_rows = json.loads(capsys.readouterr().out)
    header = csv_rows[0]
    assert [sorted(r) for r in json_rows] == [sorted(header)] * 4
    assert [[r["scenario"]]
            + [f"{r[k]:.6f}" for k in ("mean", "median", "min", "max")]
            + [str(r["n_samples"]), str(r["seed"])]
            for r in json_rows] == csv_rows[1:]


def test_experiment_config_defaults_come_from_experiment_config(workdir):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1}
    cfg_path = os.path.join(workdir["root"], "exp-defaults.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    loaded, _ = _load_experiment_config(cfg_path)
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key in ("scenarios", "k_servers", "guard_count"):
        assert getattr(loaded, key) == defaults[key]


def test_experiment_unknown_ids_exit_code(workdir, tmp_path, capsys):
    for field in ("clients", "destination_as"):
        cfg = {"world": workdir["world"], "adversary": workdir["doc"],
               "clients": ["as:1000"], "destination_as": "as:1007",
               "n_samples": 100, "seed": 1}
        cfg[field] = ["as:typo"] if field == "clients" else "as:typo"
        cfg_path = tmp_path / f"{field}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
        assert "as:typo" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("guard_count", -1, "guard count must be in"),
    ("guard_count", 0, "guard count must be in"),
    ("guard_count", 99, "guard count must be in"),
    ("k_servers", 0, "k must be in"),
    ("k_servers", 99, "k must be in"),
    ("clients", ["as:1000", "as:1000", "as:1001"],
     "client 'as:1000' is listed twice"),
])
def test_experiment_bad_counts_exit_code(workdir, tmp_path, capsys, field,
                                         value, message):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1, field: value}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scenarios,message", [
    ([], "experiment config has no scenarios"),
    (["tor-default", "clients-trust", "tor-default"],
     "scenario 'tor-default' is listed twice"),
])
def test_experiment_bad_scenarios_exit_code(workdir, tmp_path, capsys,
                                            scenarios, message):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1, "scenarios": scenarios}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "table.csv"
    assert main(["experiment", "run", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option,value,message", [
    ("--drop-fraction", "-0.5", "drop_one_direction_fraction must be in "
     "[0,1]"),
    ("--drop-fraction", "1.5", "drop_one_direction_fraction must be in "
     "[0,1]"),
    ("--n-ixp", "-1", "n_ixp must not be negative"),
    ("--n-epochs", "-1", "n_epochs must not be negative"),
    ("--family-sizes", "-1", "family_sizes entries must be integers >= 1, "
                             "got -1"),
    ("--as-org-sizes", "0", "as_org_sizes entries must be integers >= 1, "
                            "got 0"),
    ("--ixp-org-sizes", "1,-1", "ixp_org_sizes entries must be integers "
                                ">= 1, got -1"),
    ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ("--family-sizes", "3,x", "family_sizes entries must be integers >= 1, "
                              "got 'x'"),
])
def test_synth_parameter_exit_code(tmp_path, capsys, option, value,
                                   message):
    out = tmp_path / "bundle"
    assert main(["world", "synth", "--seed", "1", "--out", str(out),
                 option, value]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_malformed_bbn_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [
        {"id": "a", "absolute": 0.5},
        {"id": "b", "parents": [[0, 2.5]]}]}))
    for verb, extra in (("sample", ["--n", "10", "--seed", "1", "--out",
                                    str(tmp_path / "s.bin")]),
                        ("marginals", ["--n", "10", "--seed", "1"]),
                        ("event", ["--expr", "b", "--n", "10", "--seed", "1"]),
                        ("exact", [])):
        assert main(["bbn", verb, "--bbn", str(bad)] + extra) == 3
        assert capsys.readouterr().err == ("error: nodes[1].parents[0]: "
                                           "'weight' must be a probability, "
                                           "not a number\n")
    assert not (tmp_path / "s.bin").exists()


@pytest.mark.parametrize("bad,message", [
    ({"id": "b", "parents": [[0.5, 1.0]]},
     "nodes[1].parents[0]: 'index' must be an integer, not a number"),
    ({"parents": [[0, 1.0]]}, "nodes[1]: missing 'id'"),
    ({"id": "a", "absolute": 0.9}, "nodes[1]: duplicate node id 'a'"),
])
def test_bbn_entry_errors_name_the_entry(tmp_path, capsys, bad, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"id": "a", "absolute": 0.5},
                                          bad]}))
    assert main(["bbn", "marginals", "--bbn", str(path), "--n", "10",
                 "--seed", "1"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_seed_exit_code(workdir, tmp_path, capsys):
    out = tmp_path / "s.bin"
    for verb, extra in (("sample", ["--n", "10", "--out", str(out)]),
                        ("marginals", ["--n", "10"]),
                        ("event", ["--expr", "as:1000", "--n", "10"])):
        assert main(["bbn", verb, "--bbn", workdir["bbn"], "--seed", "-1"]
                    + extra) == 3
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")
    assert not out.exists()


def test_zero_sample_count_exit_code(workdir, tmp_path, capsys):
    out = tmp_path / "s.bin"
    assert main(["bbn", "sample", "--bbn", workdir["bbn"], "--n", "0",
                 "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: n must be a positive integer, got 0\n")
    assert not out.exists()


def test_huge_sample_count_exit_code(workdir, tmp_path, capsys):
    """A sample count past the largest array of float64 uniforms numpy can
    hold exits 3 before anything is drawn, from `--n` and from a config."""
    n = 10 ** 20
    message = f"error: n = {n} is more samples than an array holds\n"
    out = tmp_path / "s.bin"
    for verb, extra in (("sample", ["--out", str(out)]), ("marginals", []),
                        ("event", ["--expr", "as:1000"])):
        assert main(["bbn", verb, "--bbn", workdir["bbn"], "--n", str(n),
                     "--seed", "1"] + extra) == 3
        assert capsys.readouterr().err == message
    assert not out.exists()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "world": workdir["world"], "adversary": workdir["doc"],
        "clients": ["as:1000"], "destination_as": "as:1007",
        "n_samples": n, "seed": 1}))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == message


def test_sample_count_past_memory_exit_code(workdir, tmp_path, capsys):
    """A count under that bound whose arrays cannot be allocated exits 3:
    `bbn sample` refuses its (n, ceil(k/8)) rows by name, and the other
    verbs report numpy's MemoryError.  Each array of n = 10**18 is larger
    than 2**47 bytes, so its allocation fails before a page is touched."""
    n = 10 ** 18
    k = len(load_bbn(workdir["bbn"]))
    out = tmp_path / "s.bin"
    assert main(["bbn", "sample", "--bbn", workdir["bbn"], "--n", str(n),
                 "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: n = {n} samples of {k} nodes need more bytes than an array "
        "holds\n")
    assert not out.exists()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "world": workdir["world"], "adversary": workdir["doc"],
        "clients": ["as:1000"], "destination_as": "as:1007",
        "n_samples": n, "seed": 1}))
    for argv in (["bbn", "marginals", "--bbn", workdir["bbn"]],
                 ["bbn", "event", "--bbn", workdir["bbn"], "--expr",
                  "as:1000"]):
        assert main(argv + ["--n", str(n), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: Unable to allocate")
        assert err.count("\n") == 1
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: Unable to allocate")
    assert err.count("\n") == 1


def test_experiment_negative_seed_runs(workdir, tmp_path):
    """Experiment streams come from `derive_seed`, which takes any
    integer."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(
        {"world": workdir["world"], "adversary": workdir["doc"],
         "clients": ["as:1000"], "destination_as": "as:1007",
         "n_samples": 100, "seed": -1}))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 0


def test_empty_network_sample_dump_refused(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"nodes": []}))
    out = tmp_path / "s.bin"
    assert main(["bbn", "sample", "--bbn", str(path), "--n", "100",
                 "--seed", "1", "--out", str(out)]) == 3
    assert "no nodes" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"trust": [["abs", "is AS and", "U"]]}')
    assert main(["beliefs", "check", "--doc", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_validation_error_exit_code(workdir, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(
        {"structural": [["inst", "AS", {}, "as:1000"]], "trust": []}))
    # as:1000 already exists in the synth world
    assert main(["beliefs", "check", "--doc", str(doc),
                 "--world", workdir["world"]]) == 3
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["world", "validate", "--world", "/nonexistent/w.json"]) == 4
    capsys.readouterr()


def test_seed_is_required(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["world", "synth", "--out", str(tmp_path / "b")])
    capsys.readouterr()


def test_console_entry_point(workdir):
    src = os.path.dirname(os.path.dirname(tortrust.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tortrust.cli", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("tortrust ")


def test_experiment_csv_is_pinned(workdir):
    """A change to the compiled network's node order or to any random
    stream changes these bytes."""
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000", "as:1003", "as:1005"],
           "destination_as": "as:1007", "n_samples": 2000, "seed": 2026,
           "k_servers": 2}
    cfg_path = os.path.join(workdir["root"], "exp-pinned.json")
    out = os.path.join(workdir["root"], "exp-pinned.csv")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["experiment", "run", "--config", cfg_path,
                 "--out", out]) == 0
    for path, expected in (
            (out, "4c149f153ce7c368aff533438290361a"
                  "33bc713eafc944da65310384fd6e0483"),
            (workdir["bbn"], "4e83d0ebc6457a7fa2daba4d7371eecf"
                             "ab0d3f001f191db58e56d20bec13418c")):
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == expected, path


def _world_doc(relationships=(), **instance):
    return {"instances": [{"id": "as:1", "type_name": "AS"},
                          dict({"id": "as:2", "type_name": "AS"}, **instance)],
            "relationships": list(relationships)}


@pytest.mark.parametrize("document, message", [
    (_world_doc([{"parent": "as:1", "child": "as:2"}, {"parent": "as:1"}]),
     "relationships[1]: missing 'child'"),
    (_world_doc(id=7), "instances[1]: 'id' must be a string, not an integer"),
    (_world_doc([{"parent": 1, "child": "as:2"}]),
     "relationships[0]: 'parent' must be a string, not an integer"),
    (_world_doc(attributes=["bandwidth"]),
     "instances[1]: 'attributes' must be an object, not a list"),
    ([_world_doc()], "world file: expected an object"),
    ({"instances": 5},
     "world file: 'instances' must be a list, not an integer"),
    (dict(_world_doc(), relationships={}),
     "world file: 'relationships' must be a list, not an object"),
])
def test_malformed_world_file_exit_code(tmp_path, capsys, document, message):
    path = tmp_path / "world.json"
    path.write_text(json.dumps(document))
    assert main(["world", "validate", "--world", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _columns_doc(**fields):
    """A valid format-2 world file of two ASes and one virtual link, with
    `fields` set."""
    return dict({"format": 2, "names": ["as:1", "as:2", "vlink:as1-relay:a"],
                 "type_names": ["AS", "Virtual Link"],
                 "type_code": [0, 0, 1], "attributes": {"as:2": {"note": 1}},
                 "src": [0, 1], "dst": [2, 2],
                 "edge_attributes": [[0, 2, {"note": 2}]]}, **fields)


def test_format_2_world_file_validates(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_text(json.dumps(_columns_doc()))
    assert main(["world", "validate", "--world", str(path)]) == 0
    world = load_world(str(path))
    assert world.attribute("as:2", "note") == 1
    assert world.edge_attributes == {
        ("as:1", "vlink:as1-relay:a"): {"note": 2}}


@pytest.mark.parametrize("fields, message", [
    ({"format": 3}, "world file: unknown format 3"),
    ({"format": "2"}, "world file: unknown format '2'"),
    ({"format": 2.0}, "world file: unknown format 2.0"),
    ({"names": {}},
     "world file: 'names' must be a list of strings, not an object"),
    ({"names": ["as:1", 2, "vlink:as1-relay:a"]},
     "world file: 'names' must be a list of strings, not a list holding an "
     "integer"),
    ({"names": ["as:2", "as:1", "vlink:as1-relay:a"]},
     "names[1]: 'as:1' does not sort after 'as:2'"),
    ({"names": ["as:1", "as:1", "vlink:as1-relay:a"]},
     "instance id 'as:1' used twice"),
    ({"type_names": ["AS", "AS"]},
     "type_names[1]: 'AS' does not sort after 'AS'"),
    ({"type_code": [0, True, 1]}, "world file: 'type_code' must be a list of "
     "integers, not a list holding a boolean"),
    ({"type_code": [0, 0, 2]},
     "type_code[2]: 2 is not a position in type_names (2 entries)"),
    ({"type_code": [0, 0]}, "type_code: 2 codes for 3 names"),
    ({"src": [0, 1.0]}, "world file: 'src' must be a list of integers, not "
     "a list holding a number"),
    ({"src": [-1, 1]}, "src[0]: -1 is not a position in names (3 entries)"),
    ({"dst": [2, 3]}, "dst[1]: 3 is not a position in names (3 entries)"),
    ({"src": [0, 1, 0]},
     "src and dst: 3 and 2 ranks, not one of each per edge"),
    ({"attributes": []},
     "world file: 'attributes' must be an object of objects, not a list"),
    ({"attributes": {"ghost": {"note": 1}}},
     "attributes: 'ghost' is not an instance"),
    ({"attributes": {"as:1": 5}}, "world file: 'attributes' must be an "
     "object of objects, not an object holding an integer"),
    ({"edge_attributes": [[0, 2]]},
     "edge_attributes[0]: expected a triple [src, dst, attributes]"),
    ({"edge_attributes": [[0, "2", {}]]},
     "edge_attributes[0]: 'dst' must be an integer, not a string"),
    ({"edge_attributes": [[0, 3, {}]]},
     "edge_attributes[0][1]: 3 is not a position in names (3 entries)"),
    ({"edge_attributes": [[0, 2, [1]]]},
     "edge_attributes[0]: 'attributes' must be an object, not a list"),
    ({"edge_attributes": [[0, 2, {}], [0, 1, {"note": 3}]]},
     "edge_attributes[1]: ('as:1', 'as:2') is not an edge"),
    ({"src": [0, 2], "dst": [2, 0]},
     "world graph has a cycle through {as:1, vlink:as1-relay:a}"),
])
def test_malformed_format_2_world_file_exit_code(tmp_path, capsys, fields,
                                                 message):
    """Format 2 is rejected where it is read, naming the field and the
    position in it."""
    path = tmp_path / "world.json"
    path.write_text(json.dumps(_columns_doc(**fields)))
    assert main(["world", "validate", "--world", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_chain_outputs_are_pinned(workdir):
    """The bundle, world, document, edited world and network files of the
    module chain, byte for byte."""
    expected = {
        "bundle/as_clusters.jsonl": "d6f5f51ac6c76f511129c020102f7ae3"
                                    "87153df8ea4259769f658043c823830e",
        "bundle/as_paths.jsonl": "91b85589dab86e96c74c75d4c2bbbf95"
                                 "37fc6c749d9e5e990b5bc2c2ab168c14",
        "bundle/consensus.jsonl": "23a4ef98585ba691146308a79c43864c"
                                  "77d5636944a71cc125b6341bc0f92895",
        "bundle/geo.jsonl": "8e0fbd36052603c7238e0ac20eb46c2d"
                            "40e56aceec2b3f6cde516902cdd0f2fb",
        "bundle/ixp_clusters.jsonl": "f9fa0cc57c71d17d9e43c1dad4a8c0ff"
                                     "4f927a8c64fd4fb86f717df6d592831c",
        "bundle/uptime.jsonl": "08cb9665e39c83b9185001847537935e"
                               "9cefe3c11d12376672bd9f6757b24fd4",
        "world.json": "163e00e1f11a275f03c9c7855a724733"
                      "9308053e82bc4c129ed292cb0296633a",
        "theman.json": "9dd23fd2b343fcd15dc03983c5d23bc0"
                       "0d152ed788ba7044f922c242eff6088e",
        "edited.json": "56bf8912cd20a03393710380c1534166"
                       "1e7c9313127d569a583778efd8c1b84b",
        "bbn.json": "4e83d0ebc6457a7fa2daba4d7371eecf"
                    "ab0d3f001f191db58e56d20bec13418c",
    }
    for name, digest in expected.items():
        with open(os.path.join(workdir["root"], name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_row_format_world_file_still_loads(workdir, tmp_path):
    """The row-format world.json that the chain wrote before format 2, in
    the indented layout of that time, byte for byte, loads to the same
    world."""
    world = load_world(workdir["world"])
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(row_world_dict(world.instances,
                                              world.relationships),
                               indent=2, sort_keys=True) + "\n")
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == (
        "fa9fa3c01f59efa21844470c07c1baa9b8c6b6c43da5b7d81f4dc86ed1345120")
    assert load_world(str(rows)) == world


def test_pair_layout_network_file_still_loads(workdir, tmp_path):
    """The pair-layout bbn.json that the chain wrote before format 2, byte
    for byte, loads to the same network as the format-2 file."""
    network = load_bbn(workdir["bbn"])
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json_text(pair_network_dict(network)))
    assert hashlib.sha256(pairs.read_bytes()).hexdigest() == (
        "408cc7afb00c5ea01349ca38da0b10480c91aa8c9ca755bab28a70e19395ae5b")
    assert load_bbn(str(pairs)) == network


@settings(max_examples=5, deadline=None)
@example(seed=60)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_row_and_format_2_worlds_run_the_same_experiment(seed):
    """`experiment run` ends the same way from a world's row-format file
    and from its format-2 file: the same exit code, the same stderr and the
    same CSV bytes, whatever they are (at seed 60 no guard suits one exit
    relay, and both runs exit 3)."""
    world = build_world(default_ontology(), generate_synthetic(
        SynthParams(n_as=8, n_ixp=1, n_relays=8, family_sizes=(2,),
                    n_epochs=3), seed))
    ases = world.of_type("AS")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "doc.json")
        save_belief_document(build_the_man(world), doc)
        paths = [os.path.join(tmp, "rows.json"), os.path.join(tmp, "w.json")]
        with open(paths[0], "w", encoding="utf-8") as fh:
            fh.write(json_text(row_world_dict(world.instances,
                                              world.relationships)))
        save_world(world, paths[1])
        for path in paths:
            cfg, out = path + ".cfg", path + ".csv"
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"world": path, "adversary": doc,
                           "clients": list(ases[:2]),
                           "destination_as": ases[-1], "n_samples": 300,
                           "seed": seed, "k_servers": 1}, fh)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["experiment", "run", "--config", cfg,
                             "--out", out])
            table = Path(out).read_bytes() if os.path.exists(out) else None
            runs.append((code, stderr.getvalue(), table))
    assert runs[0] == runs[1]


def test_library_writers_match_cli_bytes_and_modes(workdir, tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    mode = stat.S_IMODE(os.stat(plain).st_mode)
    lib = tmp_path / "lib"
    save_bundle(load_bundle(workdir["bundle"]), str(lib / "bundle"))
    save_world(load_world(workdir["world"]), str(lib / "world.json"))
    save_belief_document(load_belief_document(workdir["doc"]),
                         str(lib / "theman.json"))
    save_bbn(load_bbn(workdir["bbn"]), str(lib / "bbn.json"))
    save_samples(str(lib / "s.bin"),
                 np.packbits(np.ones((3, 2), dtype=bool), axis=1), 2)
    cli = Path(workdir["root"])
    for name in ["bundle/" + f for f in os.listdir(lib / "bundle")] + [
            "world.json", "theman.json", "bbn.json"]:
        assert (lib / name).read_bytes() == (cli / name).read_bytes(), name
    outputs = [p for p in list(lib.rglob("*")) + list(cli.rglob("*"))
               if p.is_file()]
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
    assert not [p for p in outputs if p.name.startswith(".")]


@pytest.fixture
def odd_ids_bbn(tmp_path):
    """A network whose ids hold a comma, a quote and parentheses."""
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"nodes": [
        {"id": "odd id (x)", "risks": [0.3]},
        {"id": "as:1,2", "parents": [[0, 0.5]], "risks": [0.1]},
        {"id": 'q"uote', "parents": [[1, 1.0]]}]}))
    return str(path)


def _csv_rows(out):
    with open(out, newline="") as fh:
        return list(csv.reader(fh))


def test_csv_outputs_parse_back(odd_ids_bbn, tmp_path):
    out = str(tmp_path / "out.csv")
    assert main(["bbn", "marginals", "--bbn", odd_ids_bbn, "--n", "300",
                 "--seed", "1", "--out", out]) == 0
    rows = _csv_rows(out)
    assert rows[0] == ["node", "estimate", "n_samples"]
    assert [r[0] for r in rows[1:]] == ["odd id (x)", "as:1,2", 'q"uote']
    assert {len(r) for r in rows} == {3}

    expr = '"odd id (x)" and not "as:1,2"'
    assert main(["bbn", "event", "--bbn", odd_ids_bbn, "--expr", expr,
                 "--n", "300", "--seed", "1", "--out", out]) == 0
    header, row = _csv_rows(out)
    assert header == ["event", "estimate", "n_samples", "seed"]
    assert row[0] == expr and row[2:] == ["300", "1"]

    assert main(["bbn", "exact", "--bbn", odd_ids_bbn, "--format", "csv",
                 "--out", out]) == 0
    rows = _csv_rows(out)
    assert rows[0] == ["state", "probability"]
    assert {len(r) for r in rows} == {2}
    assert sum(float(p) for _, p in rows[1:]) == pytest.approx(1.0)


@pytest.mark.parametrize("change,message", [
    ({"k_server": 1}, "unknown key 'k_server'"),
    ({"n_samples": 200.9}, "'n_samples' must be an integer, not a number"),
    ({"seed": True}, "'seed' must be an integer, not a boolean"),
    ({"k_servers": 1.0}, "'k_servers' must be an integer, not a number"),
    ({"guard_count": False},
     "'guard_count' must be an integer, not a boolean"),
    ({"scenarios": "tor-default"},
     "'scenarios' must be a list of strings, not a string"),
    ({"clients": "as:1000"},
     "'clients' must be a list of strings, not a string"),
    ({"clients": ["as:1000", 1003]},
     "'clients' must be a list of strings, not a list holding an integer"),
    ({"destination_as": 1007},
     "'destination_as' must be a string, not an integer"),
])
def test_experiment_config_rejects_what_it_does_not_know(
        workdir, tmp_path, capsys, change, message):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1, **change}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: experiment config: {message}\n"


def test_dangling_relationship_exits_3(workdir, tmp_path, capsys):
    """A row-format world file with a relationship to no instance is
    rejected where it is read, by `world validate` and by `experiment
    run`."""
    world = load_world(workdir["world"])
    data = row_world_dict(world.instances, world.relationships)
    data["relationships"].append({"parent": "as:1000", "child": "ghost"})
    world = tmp_path / "dangling.json"
    world.write_text(json.dumps(data))
    message = ("error: relationship ('as:1000', 'ghost') references a "
               "missing instance\n")
    assert main(["world", "validate", "--world", str(world)]) == 3
    assert capsys.readouterr().err == message
    cfg = {"world": str(world), "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == message


def test_cyclic_world_exits_3(workdir, tmp_path, capsys):
    """A world file with a cycle is rejected where it is read, by `world
    validate`, `beliefs apply` and `experiment run`, naming every node on
    or below the cycle."""
    data = _read(workdir["world"])
    vlink = data["type_names"].index("Virtual Link")
    ranks = [r for r, code in enumerate(data["type_code"])
             if code == vlink][:2]
    vlinks = [data["names"][r] for r in ranks]
    data["src"] += ranks
    data["dst"] += ranks[::-1]
    world = tmp_path / "cyclic.json"
    world.write_text(json.dumps(data))
    message = (f"error: world graph has a cycle through {{{vlinks[0]}, "
               f"{vlinks[1]}}}\n")
    assert main(["world", "validate", "--world", str(world)]) == 3
    assert capsys.readouterr().err == message
    out = tmp_path / "edited.json"
    assert main(["beliefs", "apply", "--doc", workdir["doc"], "--world",
                 str(world), "--out", str(out)]) == 3
    assert capsys.readouterr().err == message
    assert not out.exists()
    cfg = {"world": str(world), "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("attribute, value, message", [
    ("ip", 10, "'ip' must be a string, not 10"),
    ("bandwidth", [5], "'bandwidth' must be a finite real number >= 0, "
                       "not [5]"),
    ("bandwidth", -1, "'bandwidth' must be a finite real number >= 0, "
                      "not -1"),
    ("guard", "no", "'guard' must be a boolean, 0 or 1, not 'no'"),
])
def test_experiment_bad_relay_attribute_exit_code(workdir, tmp_path, capsys,
                                                  attribute, value, message):
    """An adversary document that gives a relay an ip, bandwidth or guard
    flag of the wrong kind makes `experiment run` exit 3 naming the
    relay."""
    world = load_world(workdir["world"])
    relay = world.of_type("Tor Relay")[0]
    with open(workdir["doc"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["structural"].append(["attr", relay, attribute, value])
    doc_path = tmp_path / "adversary.json"
    doc_path.write_text(json.dumps(doc))
    cfg = {"world": workdir["world"], "adversary": str(doc_path),
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 100, "seed": 1}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"error: relay {relay!r}: {message}\n"


def test_experiment_zero_samples_exit_code(workdir, tmp_path, capsys):
    cfg = {"world": workdir["world"], "adversary": workdir["doc"],
           "clients": ["as:1000"], "destination_as": "as:1007",
           "n_samples": 0, "seed": 1}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", "--config", str(cfg_path)]) == 3
    assert "n_samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("document, message", [
    ({"types": [1]}, "types[0]: expected an object"),
    ([], "ontology file: expected an object"),
    ({"types": [{"label": "user"}]}, "types[0]: missing 'name'"),
    ({"types": [{"name": "A", "attributes": [{"name": "a"}]}]},
     "types[0].attributes[0]: missing 'data_type'"),
    ({"edges": [{"from_type": "AS", "to_type": 3}]},
     "edges[0]: 'to_type' must be a string, not an integer"),
    ({"types": [{"name": "A", "attributes": "a"}]},
     "types[0]: 'attributes' must be a list, not a string"),
    ({"types": [{"name": "A", "is_output": "no"}, {"name": "B"}],
      "edges": [{"from_type": "B", "to_type": "A"}]},
     "types[0]: 'is_output' must be a boolean, not a string"),
])
def test_malformed_ontology_file_exit_code(workdir, tmp_path, capsys,
                                           document, message):
    path = tmp_path / "ontology.json"
    path.write_text(json.dumps(document))
    assert main(["world", "validate", "--world", workdir["world"],
                 "--ontology", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("attribute, instance, violation", [
    ({"name": "model", "data_type": "string", "requirement": "sometimes"},
     {"model": "x1"}, "[bad-requirement] type 'Camera' attribute 'model' "
                      "has unknown requirement 'sometimes'"),
    ({"name": "model", "data_type": "string", "source": "alien"},
     {"model": "x1"}, "[bad-label] type 'Camera' attribute 'model' has "
                      "unknown source 'alien'"),
    ({"name": "model", "data_type": "string", "requirement": "required"},
     {}, "[missing-attribute] instance 'cam:1' lacks required attribute "
         "'model'"),
])
def test_world_validate_reads_attribute_rules(tmp_path, capsys, attribute,
                                              instance, violation):
    ontology = {"types": [{"name": "Camera", "attributes": [attribute]}]}
    world = {"instances": [{"id": "cam:1", "type_name": "Camera",
                            "attributes": instance}], "relationships": []}
    for name, document in (("ontology", ontology), ("world", world)):
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    assert main(["world", "validate", "--world", str(tmp_path / "world.json"),
                 "--ontology", str(tmp_path / "ontology.json")]) == 3
    assert capsys.readouterr().err == f"1 violation(s):\n  {violation}\n"


def test_dataset_line_that_is_not_an_object_exit_code(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "consensus.jsonl").write_text("[1, 2]\n")
    assert main(["world", "build", "--datasets", str(bundle),
                 "--out", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().err == \
        "error: consensus.jsonl:1: bad record: expected an object\n"


def test_dataset_value_of_the_wrong_type_exit_code(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "consensus.jsonl").write_text(
        '{"fingerprint": "fp_a", "as_number": "x", "family": "fp_b"}\n')
    out = tmp_path / "w.json"
    assert main(["world", "build", "--datasets", str(bundle),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: consensus.jsonl:1: bad record: 'as_number' must be an "
        "integer, not a string\n")
    assert not out.exists()


@pytest.mark.parametrize("document, message", [
    ({"instances": [], "relationships": []},
     "edited world file: missing 'ontology'"),
    ({"instances": [], "relationships": [], "ontology": ["AS"]},
     "edited world file: 'ontology' must be an object, not a list"),
])
def test_edited_world_without_an_ontology_object_exit_code(
        tmp_path, capsys, document, message):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(document))
    assert main(["bbn", "compile", "--edited", str(path),
                 "--out", str(tmp_path / "bbn.json")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _edited_doc(relationships=(), **keys):
    """An edited-world file: as:1 -> vlink:a under the default ontology,
    with extra relationships and top-level keys."""
    return dict({
        "instances": [{"id": "as:1", "type_name": "AS"},
                      {"id": "as:2", "type_name": "AS"},
                      {"id": "relay:a", "type_name": "Tor Relay"},
                      {"id": "vlink:a", "type_name": "Virtual Link"}],
        "relationships": [{"parent": p, "child": c} for p, c in
                          (("as:1", "vlink:a"), *relationships)],
        "ontology": ontology_to_dict(default_ontology())}, **keys)


@pytest.mark.parametrize("document, message", [
    (_edited_doc(budgets=5),
     "edited world file: 'budgets' must be a list, not an integer"),
    (_edited_doc(ce_specs={}),
     "edited world file: 'ce_specs' must be a list, not an object"),
    (_edited_doc(user_relationships="as:1"),
     "edited world file: 'user_relationships' must be a list, not a string"),
    (_edited_doc(user_relationships=[5]),
     "user_relationships[0]: expected a pair [parent, child]"),
    (_edited_doc(user_relationships=[["as:1", "vlink:a", "as:2"]]),
     "user_relationships[0]: expected a pair [parent, child]"),
    (_edited_doc(user_relationships=[["as:1", 2]]),
     "user_relationships[0]: 'child' must be a string, not an integer"),
    (_edited_doc(budgets=[["abs", "is AS", 0.5]]),
     "budgets[0]: 'abs' is not a budget"),
    (_edited_doc(budgets=[["bu2", "as:1", "all", 1],
                          ["ce2", "as:1", "top", "U"]]),
     "budgets[1]: 'ce2' is not a budget"),
    (_edited_doc(ce_specs=[["bu2", "as:1", "all", 1]]),
     "ce_specs[0]: 'bu2' is not a CE belief"),
    (_edited_doc(user_relationships=[["as:1", "vlink:a"],
                                     ["as:1000", "nope"]]),
     "user_relationships[1]: ('as:1000', 'nope') is not a relationship "
     "of the world"),
    (_edited_doc([("vlink:a", "relay:a")]),
     "edited world is invalid:\n1 violation(s):\n  [no-ontology-edge] "
     "relationship ('vlink:a', 'relay:a') has type pair ('Virtual Link', "
     "'Tor Relay') with no ontology edge"),
    (_edited_doc([("as:1", "as:2"), ("as:2", "as:1")],
                 user_relationships=[["as:1", "as:2"], ["as:2", "as:1"]]),
     "world graph has a cycle through {as:1, as:2, vlink:a}"),
    (_edited_doc(ce_specs=[["ce1", "as:1", "is VirtualLink", "LC"],
                           ["ce1", "as:1", 'id in {"vlink:a"}', "U"]]),
     "CE predicates on 'as:1' overlap at child 'vlink:a'"),
    (_edited_doc(budgets=[["bu2", "as:1", "all", 1]],
                 ce_specs=[["ce1", "as:1", "is VirtualLink", "LC"]]),
     "budget and CE beliefs on 'as:1' overlap at children ['vlink:a']"),
])
def test_malformed_edited_world_exit_code(tmp_path, capsys, document,
                                          message):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "bbn.json"
    assert main(["bbn", "compile", "--edited", str(path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("document, message", [
    (_edited_doc(budgets=[["bu2", "as:1", "all", "x"]]),
     "budgets[0]: 'k' must be an integer, not a string"),
    (_edited_doc(ce_specs=[["ce2", "as:1", "top", 1.5]]),
     "ce_specs[0]: trust value 1.5 is not a probability in [0,1]"),
])
def test_malformed_belief_array_in_edited_world_exit_code(
        tmp_path, capsys, document, message):
    """A belief array under `budgets` or `ce_specs` is read as in a belief
    document, so a malformed one exits 2 with the document's message."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "bbn.json"
    assert main(["bbn", "compile", "--edited", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_invalid_ontology_exit_code(workdir, tmp_path, capsys):
    """An invalid ontology exits 3 wherever one is read: an edited-world
    file, `beliefs apply --ontology` and `world build --ontology`."""
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(invalid_ontology_dict()))
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(_edited_doc(
        ontology=invalid_ontology_dict())))
    out = tmp_path / "out.json"
    report = f"error: edited world is invalid:\n{INVALID_ONTOLOGY}\n"
    for argv, err in (
            (["bbn", "compile", "--edited", str(edited)], report),
            (["beliefs", "apply", "--doc", workdir["doc"], "--world",
              workdir["world"], "--ontology", str(ontology)], report),
            (["world", "build", "--datasets", workdir["bundle"],
              "--ontology", str(ontology)], f"{INVALID_ONTOLOGY}\n")):
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == err
    assert not out.exists()


def test_edited_world_user_relationship_is_exempt(tmp_path):
    """The off-ontology edge that fails above loads when it is a user
    relationship, and its budget reaches the network."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_edited_doc(
        [("vlink:a", "relay:a")], user_relationships=[["vlink:a", "relay:a"]],
        budgets=[["bu2", "as:1", "all", 0]])))
    out = tmp_path / "bbn.json"
    assert main(["bbn", "compile", "--edited", str(path),
                 "--out", str(out)]) == 0
    bbn = load_bbn(str(out))
    vlink = bbn.index["vlink:a"]
    assert bbn.parent_w[bbn.parent_ptr[vlink]:bbn.parent_ptr[vlink + 1]] \
        .tolist() == [0.0]


@pytest.mark.parametrize("budgets", [
    [["bu2", "as:1", "all", 3], ["bu2", "as:1", "all", 2]],
    [["bu1", "as:1", "VirtualLink", 1], ["bu2", "as:1", "all", 3],
     ["bu2", "as:1", "all", 2]],
])
def test_two_step_compile_keeps_the_last_budget(tmp_path, budgets):
    """`beliefs apply` then `bbn compile --edited --doc` gives the network
    of one `compile_bbn(apply_structural(...), doc.trust)`: the document's
    last bu2, k=2 over three children, wins in both."""
    links = ("vlink:a", "vlink:b", "vlink:c")
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("world", "doc", "edited", "bbn")}
    Path(paths["world"]).write_text(json.dumps({
        "instances": [{"id": "as:1", "type_name": "AS"}]
        + [{"id": link, "type_name": "Virtual Link"} for link in links],
        "relationships": [{"parent": "as:1", "child": link}
                          for link in links]}))
    Path(paths["doc"]).write_text(json.dumps(
        {"structural": [], "trust": budgets}))
    assert main(["beliefs", "apply", "--doc", paths["doc"],
                 "--world", paths["world"], "--out", paths["edited"]]) == 0
    assert main(["bbn", "compile", "--edited", paths["edited"],
                 "--doc", paths["doc"], "--out", paths["bbn"]]) == 0
    doc = load_belief_document(paths["doc"])
    one_step = compile_bbn(apply_structural(load_world(paths["world"]),
                                            default_ontology(), doc),
                           doc.trust, doc.scale)
    assert Path(paths["bbn"]).read_text() == json_text(bbn_to_dict(one_step))
    bbn = load_bbn(paths["bbn"])
    for link in links:
        at = bbn.index[link]
        assert bbn.parent_w[bbn.parent_ptr[at]:bbn.parent_ptr[at + 1]] \
            .tolist() == [2 / 3]


def test_two_step_compile_keeps_the_document_scale(tmp_path):
    """An edited world carries its document's scale: `bbn compile
    --edited` without `--doc` gives the one-step network, CE activation
    0.3 from the document's ce_mapping, not the default 0.85."""
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("world", "doc", "edited", "bbn")}
    Path(paths["world"]).write_text(json.dumps({
        "instances": [{"id": "as:1", "type_name": "AS"},
                      {"id": "vlink:a", "type_name": "Virtual Link"}],
        "relationships": [{"parent": "as:1", "child": "vlink:a"}]}))
    Path(paths["doc"]).write_text(json.dumps({
        "scale": {"ce_mapping": {"SC": 0.9, "LC": 0.3, "U": 0.5,
                                 "LT": 0.1, "ST": 0.05}},
        "structural": [], "trust": [["ce2", "as:1", "top", "LC"]]}))
    assert main(["beliefs", "apply", "--doc", paths["doc"],
                 "--world", paths["world"], "--out", paths["edited"]]) == 0
    assert main(["bbn", "compile", "--edited", paths["edited"],
                 "--out", paths["bbn"]]) == 0
    doc = load_belief_document(paths["doc"])
    one_step = compile_bbn(apply_structural(load_world(paths["world"]),
                                            default_ontology(), doc),
                           doc.trust, doc.scale)
    assert Path(paths["bbn"]).read_text() == json_text(bbn_to_dict(one_step))
    bbn = load_bbn(paths["bbn"])
    ce = bbn.index["ce:as:1#0"]
    assert bbn.parent_w[bbn.parent_ptr[ce]:bbn.parent_ptr[ce + 1]] \
        .tolist() == [0.3]


def test_edited_world_without_a_scale_gets_the_default(tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_edited_doc(
        ce_specs=[["ce2", "as:1", "top", "LC"]])))
    out = tmp_path / "bbn.json"
    assert main(["bbn", "compile", "--edited", str(path),
                 "--out", str(out)]) == 0
    bbn = load_bbn(str(out))
    assert bbn.parent_w[bbn.parent_ptr[bbn.index["ce:as:1#0"]]] == 0.85


def test_beliefs_check_reads_the_ontology_alone(workdir, tmp_path, capsys):
    """`--ontology` is loaded and validated without `--world` too: an
    invalid one exits 3 with its report, a missing file 4."""
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(invalid_ontology_dict()))
    check = ["beliefs", "check", "--doc", workdir["doc"], "--ontology"]
    assert main(check + [str(ontology)]) == 3
    assert capsys.readouterr().err == f"{INVALID_ONTOLOGY}\n"
    assert main(check + [str(tmp_path / "missing.json")]) == 4
    assert "missing.json" in capsys.readouterr().err
    ontology.write_text(json.dumps(ontology_to_dict(default_ontology())))
    assert main(check + [str(ontology)]) == 0
    assert "belief document ok" in capsys.readouterr().err


def test_types_of_one_identifier_form_exit_code(workdir, tmp_path, capsys):
    data = ontology_to_dict(default_ontology())
    data["types"] = [*data["types"], {"name": "TorRelay"}]
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(data))
    assert main(["world", "validate", "--world", workdir["world"],
                 "--ontology", str(ontology)]) == 3
    assert capsys.readouterr().err == (
        "1 violation(s):\n  [duplicate-type] types 'Tor Relay' and "
        "'TorRelay' share the identifier form 'TorRelay'\n")


def test_misspelt_scale_key_exit_code(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"scale": {"mapings": {
        "SC": 0.9, "LC": 0.8, "U": 0.5, "LT": 0.2, "ST": 0.1}}}))
    assert main(["beliefs", "check", "--doc", str(path)]) == 2
    assert capsys.readouterr().err == "error: scale: unknown key 'mapings'\n"


def test_experiment_never_builds_the_edge_view(workdir, tmp_path,
                                               monkeypatch):
    """`experiment run` reads the world's rank arrays only: the (parent,
    child) pair view `World.edges` is never built."""
    worlds = []

    def load_world_spy(path):
        worlds.append(load_world(path))
        return worlds[-1]

    monkeypatch.setattr("tortrust.cli.load_world", load_world_spy)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "world": workdir["world"], "adversary": workdir["doc"],
        "clients": ["as:1000"], "destination_as": "as:1007",
        "n_samples": 200, "seed": 1, "k_servers": 1}))
    assert main(["experiment", "run", "--config", str(config),
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert len(worlds) == 1
    assert "edges" not in worlds[0].__dict__
    assert "relationships" not in worlds[0].__dict__


def test_synth_without_options_writes_the_library_default(tmp_path):
    """Every optional `world synth` flag left out takes its `SynthParams`
    default: the same files as the library writes."""
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    assert main(["world", "synth", "--seed", "7", "--out", str(cli)]) == 0
    save_bundle(generate_synthetic(SynthParams(), 7), str(lib))
    names = sorted(os.listdir(lib))
    assert sorted(os.listdir(cli)) == sorted(names + ["bundle.manifest.json"])
    for name in names:
        assert (cli / name).read_bytes() == (lib / name).read_bytes()


def test_the_man_without_options_writes_the_library_default(workdir,
                                                             tmp_path):
    """`beliefs the-man` without `--p-*` flags takes `build_the_man`'s
    defaults."""
    out = tmp_path / "doc.json"
    assert main(["beliefs", "the-man", "--world", workdir["world"],
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == serialize_belief_document(
        build_the_man(load_world(workdir["world"])))


@pytest.mark.parametrize("option,value", [
    ("--p-org", "1.5"), ("--p-fam-max", "-0.1"), ("--p-fam-min", "nan")])
def test_the_man_option_out_of_range_exit_code(workdir, tmp_path, capsys,
                                               option, value):
    """An option outside [0, 1] exits 3 and writes nothing; at the parent
    it wrote a document that `beliefs check` rejected."""
    out = tmp_path / "theman.json"
    assert main(["beliefs", "the-man", "--world", workdir["world"],
                 "--out", str(out), option, value]) == 3
    name = option[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(
        f"error: {name} must be a number in [0, 1], got ")
    assert not out.exists()
    assert main(["beliefs", "the-man", "--world", workdir["world"],
                 "--out", str(out), option, "1"]) == 0
    assert main(["beliefs", "check", "--doc", str(out)]) == 0


@pytest.mark.parametrize("names,violation", [
    (("AB", "AB"), "type 'AB' declared twice"),
    (("A B", "AB"), "types 'A B' and 'AB' share the identifier form 'AB'")])
def test_repeated_novel_type_exit_code(tmp_path, capsys, names, violation):
    """The ontology's duplicate-type rule rejects a novel type declared
    twice, by name or by identifier form, also without `--world`; an exact
    repeat used to fail at parse, with exit 2."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"structural": [
        ["ut", name, None, None] for name in names]}))
    assert main(["beliefs", "check", "--doc", str(path)]) == 3
    assert capsys.readouterr().err == \
        f"1 violation(s):\n  [duplicate-type] {violation}\n"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _non_finite_input(kind, value, workdir, tmp_path):
    """The argv of a command whose `kind` input file holds `value`, written
    by json.dumps as NaN, Infinity or -Infinity, and its output path."""
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    if kind == "bundle line":
        bundle = tmp_path / "bundle"
        save_bundle(load_bundle(workdir["bundle"]), str(bundle))
        with open(bundle / "geo.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"entity": "relay:fp_0000", "country": "US",
                                 "lat": value}) + "\n")
        return ["world", "build", "--datasets", str(bundle), "--out", out], out
    if kind in ("world", "edited world"):
        data = _read(workdir["world" if kind == "world" else "edited"])
        relay = next(a for node, a in data["attributes"].items()
                     if node.startswith("relay:"))
        relay["bandwidth"] = value
        bad.write_text(json.dumps(data))
        if kind == "world":
            return ["beliefs", "apply", "--doc", workdir["doc"], "--world",
                    str(bad), "--out", out], out
        return ["bbn", "compile", "--edited", str(bad), "--out", out], out
    if kind == "ontology":
        data = ontology_to_dict(default_ontology())
        data["types"][0]["weight"] = value
        bad.write_text(json.dumps(data))
        return ["world", "build", "--datasets", workdir["bundle"],
                "--ontology", str(bad), "--out", out], out
    if kind == "belief document":
        bad.write_text(json.dumps({"trust": [["abs", "is AS", value]]}))
        return ["beliefs", "apply", "--doc", str(bad), "--world",
                workdir["world"], "--out", out], out
    if kind == "network":
        data = _read(workdir["bbn"])
        data["nodes"][0]["absolute"] = value
        bad.write_text(json.dumps(data))
        return ["bbn", "sample", "--bbn", str(bad), "--n", "10", "--seed",
                "1", "--out", out], out
    bad.write_text(json.dumps({
        "world": workdir["world"], "adversary": workdir["doc"],
        "clients": ["as:1000"], "destination_as": "as:1007",
        "n_samples": 100, "seed": 1, "k_servers": value}))
    return ["experiment", "run", "--config", str(bad), "--out", out], out


@pytest.mark.parametrize("constant, value", [
    ("NaN", float("nan")), ("Infinity", float("inf")),
    ("-Infinity", float("-inf"))])
@pytest.mark.parametrize("kind", [
    "world", "ontology", "belief document", "bundle line", "network",
    "edited world", "experiment config"])
def test_non_finite_constant_in_any_input_exits_2(workdir, tmp_path, capsys,
                                                  kind, constant, value):
    """Every input file is read as strict JSON: NaN, Infinity or -Infinity
    is a parse error naming the constant, and nothing is written.  A
    bundle line with a NaN latitude built a world.json holding NaN."""
    argv, out = _non_finite_input(kind, value, workdir, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {constant} is not a JSON number: line " in err
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".manifest.json")
