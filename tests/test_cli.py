import dataclasses
import json
import os
import subprocess
import sys

import pytest

from tortrust.cli import _load_experiment_config, main
from tortrust.experiment import ExperimentConfig

from conftest import FIXTURES


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


def test_event_csv_output(workdir, capsys):
    with open(workdir["bbn"]) as fh:
        node = json.load(fh)["nodes"][0]["id"]
    assert main(["bbn", "event", "--bbn", workdir["bbn"], "--expr",
                 f"{node} or not {node}", "--n", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "event,estimate,n_samples,seed"
    assert out[1].endswith(",1.000000,100,1")


def test_exact_respects_cap(workdir, capsys):
    rc = main(["bbn", "exact", "--bbn", workdir["bbn"], "--cap", "8"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


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
        assert "outside [0,1]" in capsys.readouterr().err
    assert not (tmp_path / "s.bin").exists()


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
    proc = subprocess.run(
        [sys.executable, "-m", "tortrust.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("tortrust ")
