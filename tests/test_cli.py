import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import counterlink
from counterlink.autodiff import load_checkpoint, save_checkpoint
from counterlink.cli import main
from counterlink.manifest import read_manifest, sha256_file


def run(args):
    return main([str(a) for a in args])


def run_child(args):
    """The CLI in a child process, so an escaping traceback shows on stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(counterlink.__file__))}
    proc = subprocess.run([sys.executable, "-m", "counterlink.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def synth_args(out, n=60, p_in=0.5, p_out=0.02, seed=3):
    return ["synth", "--family", "sbm", "--n", n, "--blocks", 2,
            "--p-in", p_in, "--p-out", p_out, "--feature-mode", "node-onehot",
            "--seed", seed, "--out", out]


def pipeline_dirs(tmp_path):
    d = {name: tmp_path / name for name in
         ("graph", "split", "gnn", "ggm", "tuned", "eval", "analysis")}
    for p in d.values():
        p.mkdir(exist_ok=True)
    return d


def run_pipeline_through_split(d, direction="backward", t1=2.0, t2=1.0):
    assert run(synth_args(d["graph"])) == 0
    assert run([
        "split", "--edges", d["graph"] / "edges.tsv",
        "--features", d["graph"] / "features.csv",
        "--heuristic", "CN", "--direction", direction,
        "--t1", t1, "--t2", t2, "--seed", 5, "--out", d["split"],
    ]) == 0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = run(["synth", "--family", "dodecahedron", "--out", tmp_path])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_dependency_error_is_3(self, tmp_path):
        code = run(["pretrain-gnn", "--edges", tmp_path / "missing.tsv",
                    "--features", "x", "--split", "y", "--out", tmp_path])
        assert code == 3

    def test_validation_error_is_5(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        doc = json.loads((d["split"] / "split.json").read_text())
        doc["edges"]["test_pos"].append(doc["edges"]["train_pos"][0])
        doc["edges"]["train_pos"] = doc["edges"]["train_pos"][1:]
        (d["split"] / "split.json").write_text(json.dumps(doc))
        code = run(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                    "--features", d["graph"] / "features.csv",
                    "--split", d["split"] / "split.json",
                    "--epochs", 1, "--patience", 1, "--eval-k", 3,
                    "--hidden", 8, "--out", tmp_path / "gnn"])
        assert code == 5

    def test_sp_edge_in_wrong_bucket_is_5(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"], p_in=0.3)) == 0
        assert run(["split", "--edges", d["graph"] / "edges.tsv",
                    "--features", d["graph"] / "features.csv",
                    "--heuristic", "SP", "--direction", "forward",
                    "--t1", 3, "--t2", 4, "--seed", 5, "--out", d["split"]]) == 0
        doc = json.loads((d["split"] / "split.json").read_text())
        # Train holds exclude-edge SP < 3, i.e. 2; the test bucket needs >= 4.
        doc["edges"]["test_pos"].append(doc["edges"]["train_pos"].pop(0))
        (d["split"] / "split.json").write_text(json.dumps(doc))
        code, err = run_child(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", d["split"] / "split.json",
                               "--out", d["gnn"]])
        assert code == 5
        assert "1 bucket violation" in err and "'value': 2.0" in err

    def test_flex_tune_without_ggm_checkpoint_is_3(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        code = run(["flex-tune", "--edges", d["graph"] / "edges.tsv",
                    "--features", d["graph"] / "features.csv",
                    "--split", d["split"] / "split.json",
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--out", d["tuned"]])
        assert code == 3

    def test_non_numeric_feature_cell_is_2(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"])) == 0
        feats = d["graph"] / "features.csv"
        lines = feats.read_text().splitlines()
        lines[2] = "x" + lines[2]
        feats.write_text("\n".join(lines) + "\n")
        code, err = run_child(["split", "--edges", d["graph"] / "edges.tsv",
                               "--features", feats, "--out", d["split"]])
        assert code == 2
        assert "features.csv:3" in err and "Traceback" not in err

    def test_edge_id_too_large_for_int64_is_2(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"])) == 0
        edges = d["graph"] / "edges.tsv"
        lines = edges.read_text().splitlines()
        lines[3] = "0\t99999999999999999999"
        edges.write_text("\n".join(lines) + "\n")
        code, err = run_child(["split", "--edges", edges,
                               "--features", d["graph"] / "features.csv", "--out", d["split"]])
        assert code == 2, err
        assert "edges.tsv:4: node id too large for int64" in err and "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    def test_non_finite_feature_cell_is_2(self, tmp_path, cell):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"])) == 0
        feats = d["graph"] / "features.csv"
        lines = feats.read_text().splitlines()
        lines[2] = cell + lines[2][lines[2].index(","):]
        feats.write_text("\n".join(lines) + "\n")
        code, err = run_child(["split", "--edges", d["graph"] / "edges.tsv",
                               "--features", feats, "--out", d["split"]])
        assert code == 2, err
        assert "features.csv:3: non-finite value" in err and "Traceback" not in err

    def test_malformed_negatives_are_5(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        split = d["split"] / "split.json"
        doc = json.loads(split.read_text())
        negs = doc["edges"]["test_neg"]
        negs[0] = [5, 5]
        negs[1] = list(negs[2])
        split.write_text(json.dumps(doc))
        argv = ["eval", "--edges", d["graph"] / "edges.tsv",
                "--features", d["graph"] / "features.csv",
                "--split", split, "--ckpt", d["gnn"] / "gnn.ckpt", "--out", d["eval"]]
        code, err = run_child(argv)
        assert code == 5, err
        assert "test_neg holds the self-pair [5, 5]" in err and "Traceback" not in err
        negs[0] = list(negs[3])
        split.write_text(json.dumps(doc))
        code, err = run_child(argv)
        assert code == 5, err
        assert f"test_neg repeats the pair {negs[2]}, already in test_neg" in err
        assert "Traceback" not in err

    def test_truncated_split_json_is_5(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        split = d["split"] / "split.json"
        split.write_text(split.read_text()[:100])
        code, err = run_child(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", split, "--out", d["gnn"]])
        assert code == 5
        assert "split.json" in err and "Traceback" not in err

    def test_truncated_config_file_is_2(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"synth": {"n": 40')
        code, err = run_child(["synth", "--config", cfg_file, "--out", tmp_path])
        assert code == 2
        assert "run.json" in err and "Traceback" not in err

    def test_truncated_checkpoint_is_2(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 1, "--patience", 1,
                    "--hidden", 8, "--eval-k", 3, "--out", d["gnn"]]) == 0
        ckpt = d["gnn"] / "gnn.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        code, err = run_child(["eval", *graph_flags, "--ckpt", ckpt, "--k", 3,
                               "--out", d["eval"]])
        assert code == 2
        assert "gnn.ckpt: truncated" in err and "Traceback" not in err


    def test_checkpoint_claiming_more_than_the_file_is_2(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 1, "--patience", 1,
                    "--hidden", 8, "--eval-k", 3, "--out", d["gnn"]]) == 0
        ckpt = d["gnn"] / "gnn.ckpt"
        raw = bytearray(ckpt.read_bytes())
        (nlen,) = struct.unpack("<H", raw[16:18])
        at = 18 + nlen + 1  # first array's first dim, after its name and ndim
        raw[at : at + 8] = struct.pack("<q", 2**40)
        ckpt.write_bytes(bytes(raw))
        code, err = run_child(["eval", *graph_flags, "--ckpt", ckpt, "--k", 3,
                               "--out", d["eval"]])
        assert code == 2, err
        assert "gnn.ckpt: truncated or corrupt" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,section", [
        ("pretrain-gnn", {"epochs": "five"}),
        ("synth", {"n": "60"}),
        ("synth", {"n": True}),
        ("synth", {"p_in": False}),
        ("synth", {"n": None}),
        ("synth", {"n": 60.0}),
        ("eval", {"full_adjacency_eval": 1}),
        ("sweep", {"grid": [0.5, 0.9]}),
    ])
    def test_config_value_of_the_wrong_type_is_2(self, tmp_path, command, section):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({command: section}))
        code, err = run_child([command, "--config", cfg_file, "--out", tmp_path])
        assert code == 2, err
        key = next(iter(section))
        assert f"run.json: {command}.{key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--grid", "0.5,x"), ("--seeds", "1.5"),
                                       ("--seeds", ""), ("--grid", ",")])
    def test_bad_sweep_list_is_2(self, tmp_path, flags):
        code, err = run_child(["sweep", *flags, "--out", tmp_path])
        assert code == 2, err
        assert f"{flags[0]} must be a non-empty" in err and "Traceback" not in err

    def test_truncated_samples_json_is_5(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        record = {"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                  "edges": [[0, 1, 0.75], [1, 2, 0.5], [2, 3, 0.625]]}
        samples = d["tuned"] / "samples.json"
        samples.write_text(json.dumps({"samples": [record] * 20})[:300])
        code, err = run_child(["analyze", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", d["split"] / "split.json",
                               "--samples", samples, "--out", d["analysis"]])
        assert code == 5
        assert "samples.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
    def test_out_that_is_not_a_directory_is_2(self, tmp_path, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "sub" if under else blocker
        code, err = run_child(synth_args(out))
        assert code == 2, err
        assert f"--out '{out}'" in err and "Traceback" not in err

    def test_input_that_is_a_directory_is_3(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"])) == 0
        code, err = run_child(["split", "--edges", d["graph"],
                               "--features", d["graph"] / "features.csv",
                               "--out", d["split"]])
        assert code == 3, err
        assert f"{d['graph']} is not a regular file" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["edges.tsv", "features.csv"])
    def test_non_utf8_graph_file_is_2(self, tmp_path, name):
        d = pipeline_dirs(tmp_path)
        assert run(synth_args(d["graph"])) == 0
        path = d["graph"] / name
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] = 0xFF
        path.write_bytes(bytes(raw))
        code, err = run_child(["split", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--out", d["split"]])
        assert code == 2, err
        assert f"{name}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,flags", [
        ("split", ["--heuristic", "PA", "--t1", "nan"]),
        ("synth", ["--feature-mode", "degree-onehot:x"]),
        ("synth", ["--feature-mode", "constant:x"]),
        ("pretrain-gnn", ["--hidden", 0]),
        ("pretrain-gnn", ["--dropout", "nan"]),
    ], ids=["nan_threshold", "degree_onehot_width", "constant_width", "zero_hidden",
            "nan_dropout"])
    def test_malformed_value_is_2(self, tmp_path, command, flags):
        d = pipeline_dirs(tmp_path)
        if command == "synth":
            args = synth_args(d["graph"])  # the later --feature-mode wins
        else:
            run_pipeline_through_split(d)
            args = [command, "--edges", d["graph"] / "edges.tsv",
                    "--features", d["graph"] / "features.csv", "--out", d["gnn"]]
            if command == "pretrain-gnn":  # a run that would otherwise succeed
                args += ["--split", d["split"] / "split.json", "--epochs", 1,
                         "--patience", 1, "--eval-k", 3]
        code, err = run_child([*args, *flags])
        assert code == 2, err
        assert "error:" in err and "Traceback" not in err
        assert not (d["gnn"] / "gnn.ckpt").exists()

    @pytest.mark.parametrize("command,flags", [
        ("flex-tune", []), ("sweep", ["--grid", "0.5", "--seeds", "0"])])
    def test_truncated_upstream_manifest_only_warns(self, tmp_path, command, flags):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 1, "--patience", 1,
                    "--hidden", 8, "--eval-k", 3, "--out", d["gnn"]]) == 0
        assert run(["pretrain-ggm", *graph_flags, "--epochs", 1, "--patience", 1,
                    "--noise-dim", 4, "--num-psi", 1, "--out", d["ggm"]]) == 0
        manifest = d["gnn"] / "pretrain-gnn.manifest.json"
        manifest.write_text(manifest.read_text()[:50])
        code, err = run_child([command, *graph_flags, *flags,
                               "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                               "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                               "--epochs", 1, "--patience", 1, "--batch-size", 32,
                               "--num-psi", 1, "--eval-k", 3, "--out", d["tuned"]])
        assert code == 0, err
        assert f"warning: unreadable manifest {manifest}" in err
        assert "Traceback" not in err


def _unknown_spec_key(doc):
    doc["spec"]["wings"] = 2
    return doc


def _list_spec(doc):
    doc["spec"] = list(doc["spec"].values())
    return doc


def _non_integer_edge(doc):
    doc["edges"]["valid_pos"][0] = ["a", 1]
    return doc


def _fractional_edge(doc):
    doc["edges"]["train_pos"][0] = [doc["edges"]["train_pos"][0][0] + 0.5, 1]
    return doc


def _three_element_edge(doc):
    doc["edges"]["test_neg"][0].append(7)
    return doc


def _out_of_range_edge(doc):
    doc["edges"]["test_pos"][0] = [0, 60]
    return doc


def _top_level_list(doc):
    return [doc]


class TestMalformedStructure:
    """Valid JSON with the wrong structure exits 5 without a traceback."""

    @pytest.mark.parametrize("corrupt", [
        _unknown_spec_key, _list_spec, _non_integer_edge, _fractional_edge,
        _three_element_edge, _out_of_range_edge, _top_level_list,
    ])
    def test_split_json_is_5(self, tmp_path, corrupt):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        split = d["split"] / "split.json"
        split.write_text(json.dumps(corrupt(json.loads(split.read_text()))))
        code, err = run_child(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", split, "--out", d["gnn"]])
        assert code == 5, err
        assert "split.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["train_pos", "valid_neg"])
    def test_boolean_in_a_pair_list_is_5(self, tmp_path, key):
        # numpy reads [true, v] beside integer pairs as [1, v].
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        split = d["split"] / "split.json"
        doc = json.loads(split.read_text())
        doc["edges"][key][0][0] = True
        split.write_text(json.dumps(doc))
        code, err = run_child(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", split, "--epochs", 1, "--patience", 1,
                               "--eval-k", 3, "--hidden", 8, "--out", d["gnn"]])
        assert code == 5, err
        assert f"{key} must be a list of [u, v] integer pairs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"records": []},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[0, 9, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[-1, 2, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[0, 1, [0.75]]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1, 2], "gamma": 0.5,
                      "edges": [[0, 1, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0.5, 1], "gamma": 0.5,
                      "edges": [[0, 1, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": "ab", "gamma": 0.5,
                      "edges": [[0, 1, 0.75]]}]},
        {"samples": [{"block_size": 10_000_000, "label": 1, "target": [0, 1],
                      "gamma": 0.5, "edges": [[0, 1, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[0, 1, 0.75], [0, 0, 0.99]]}]},
    ], ids=["no_samples_key", "record_without_edges", "edge_outside_block",
            "negative_edge_id", "probability_not_a_number", "three_target_ids",
            "fractional_target_id", "target_not_a_list", "block_larger_than_graph",
            "self_loop_edge"])
    def test_samples_json_is_5(self, tmp_path, doc):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        samples = d["tuned"] / "samples.json"
        samples.write_text(json.dumps(doc))
        code, err = run_child(["analyze", "--edges", d["graph"] / "edges.tsv",
                               "--features", d["graph"] / "features.csv",
                               "--split", d["split"] / "split.json",
                               "--samples", samples, "--out", d["analysis"]])
        assert code == 5, err
        assert "samples.json" in err and "Traceback" not in err


# Every command's flags and their defaults; None marks an input path, or an
# unset tau.
PINNED_FLAGS = {
    "synth": {
        "family": "sbm", "n": 100, "blocks": 2, "p_in": 0.1, "p_out": 0.01,
        "m": 2, "p": 0.1, "feature_mode": "degree-onehot:16", "seed": 0,
        "out": "out",
    },
    "split": {
        "edges": None, "features": None, "heuristic": "CN",
        "direction": "forward", "t1": 1.0, "t2": 2.0, "neg_ratio": 1,
        "seed": 0, "out": "out",
    },
    "pretrain-gnn": {
        "edges": None, "features": None, "split": None, "epochs": 1000,
        "patience": 20, "lr": 1e-3, "dropout": 0.1, "batch_size": 0,
        "hidden": 128, "layers": 2, "eval_k": 20, "seed": 0,
        "full_adjacency_eval": False, "out": "out",
    },
    "pretrain-ggm": {
        "edges": None, "features": None, "split": None, "epochs": 2000,
        "patience": 100, "lr": 1e-3, "batch_size": 64, "noise_dim": 8,
        "num_psi": 3, "hop_k": 1, "max_nodes": 1000, "seed": 0, "out": "out",
    },
    "flex-tune": {
        "edges": None, "features": None, "split": None, "gnn_ckpt": None,
        "ggm_ckpt": None, "alpha": 1.05, "tau": None, "tau_offset": 1.0,
        "gamma": 0.9, "lr_gnn": 1e-5, "lr_ggm": 1e-5, "epochs": 5,
        "batch_size": 64, "patience": 2, "update_rule": "check_mode",
        "num_psi": 3, "eval_k": 20, "hop_k": 1, "max_nodes": 1000,
        "seed": 0, "full_adjacency_eval": False, "out": "out",
    },
    "eval": {
        "edges": None, "features": None, "split": None, "ckpt": None,
        "k": 20, "full_adjacency_eval": False, "out": "out",
    },
    "analyze": {
        "edges": None, "features": None, "split": None, "samples": None,
        "out": "out",
    },
}
PINNED_FLAGS["sweep"] = {
    **PINNED_FLAGS["flex-tune"], "param": "gamma",
    "grid": "0.0,0.25,0.5,0.75,0.9,0.9999", "seeds": "0,1,2",
}


class TestConfigPrecedence:
    def test_flags_beat_file_beat_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"synth": {"n": 40, "seed": 9}}))
        out = tmp_path / "out"
        assert run(["synth", "--config", cfg_file, "--family", "er", "--p", 0.2,
                    "--feature-mode", "constant:4", "--n", 50, "--out", out]) == 0
        manifest = read_manifest(out / "synth.manifest.json")
        assert manifest["config"]["n"] == 50      # flag wins
        assert manifest["config"]["seed"] == 9    # file beats default

    def test_config_int_counts_as_float_and_null_only_where_default_is_none(self, tmp_path):
        from counterlink.cli import build_parser, merge_config

        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"flex-tune": {"gamma": 1, "tau": None,
                                                      "epochs": 3}}))
        args = build_parser().parse_args(["flex-tune", "--config", str(cfg_file)])
        cfg = merge_config("flex-tune", args)
        assert cfg["gamma"] == 1.0 and isinstance(cfg["gamma"], float)
        assert cfg["tau"] is None and cfg["epochs"] == 3

    def test_every_config_key_checked_against_its_flag_type(self, tmp_path):
        from counterlink.cli import DEFAULTS, build_parser, merge_config
        from counterlink.errors import ConfigError

        cfg_file = tmp_path / "run.json"
        parser = build_parser()

        def merged(command, key, val):
            cfg_file.write_text(json.dumps({command: {key: val}}))
            args = parser.parse_args([command, "--config", str(cfg_file)])
            return merge_config(command, args)[key]

        for command, defaults in DEFAULTS.items():
            for key, default in defaults.items():
                if default is None:  # tau is a number, every other None a path
                    right, wrong = (0.5, "0.5") if key == "tau" else ("a/path", 7)
                else:
                    right, wrong = default, 7 if isinstance(default, str) else "7"
                assert merged(command, key, right) == right, (command, key)
                with pytest.raises(ConfigError, match=f"{command}.{key} must be"):
                    merged(command, key, wrong)

    def test_flags_and_defaults_are_pinned(self):
        # The CLI derives most flags from the config dataclasses; this table
        # keeps a derived flag from appearing, vanishing, or changing its
        # type or default unnoticed.
        import argparse

        from counterlink.cli import build_parser, merge_config

        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert list(commands) == list(PINNED_FLAGS)
        for command, pinned in PINNED_FLAGS.items():
            actions = {a.dest: a for a in commands[command]._actions
                       if a.dest not in ("help", "config")}
            assert sorted(actions) == sorted(pinned), command
            for key, default in pinned.items():
                action = actions[key]
                assert action.help == f"(default {default})", (command, key)
                if isinstance(default, bool):
                    assert action.const is True and action.type is None, (command, key)
                else:
                    kind = type(default) if default is not None else (
                        float if key == "tau" else str)
                    assert action.type is kind, (command, key)
            assert merge_config(command, parser.parse_args([command])) == pinned, command

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"synth": {"wings": 2}}))
        assert run(["synth", "--config", cfg_file, "--out", tmp_path]) == 2


class TestPipeline:
    def test_full_pipeline_end_to_end(self, tmp_path):
        started = time.perf_counter()
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)

        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 20,
                    "--patience", 20, "--lr", 1e-2, "--dropout", 0.0,
                    "--hidden", 16, "--eval-k", 3, "--seed", 1,
                    "--out", d["gnn"]]) == 0
        assert run(["pretrain-ggm", *graph_flags, "--epochs", 10,
                    "--patience", 10, "--lr", 1e-2, "--batch-size", 0,
                    "--noise-dim", 4, "--num-psi", 1, "--seed", 1,
                    "--out", d["ggm"]]) == 0
        assert run(["flex-tune", *graph_flags,
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--epochs", 2, "--patience", 2, "--batch-size", 32,
                    "--lr-gnn", 1e-4, "--lr-ggm", 1e-3, "--gamma", 0.6,
                    "--num-psi", 1, "--eval-k", 3, "--seed", 1,
                    "--out", d["tuned"]]) == 0
        assert run(["eval", *graph_flags, "--ckpt", d["tuned"] / "gnn_tuned.ckpt",
                    "--k", 3, "--out", d["eval"]]) == 0
        assert run(["analyze", *graph_flags,
                    "--samples", d["tuned"] / "samples.json",
                    "--out", d["analysis"]]) == 0

        tuned = read_manifest(d["tuned"] / "flex-tune.manifest.json")["metrics"]
        assert tuned["selected_pretrained"] == (tuned["best_epoch"] == 0)
        header = (d["tuned"] / "cotrain_trace.csv").read_text().splitlines()[0]
        assert header.endswith(",valid_hits,seconds")

        # manifests chain with hashes present
        for stage, dirname in [("synth", "graph"), ("split", "split"),
                               ("pretrain-gnn", "gnn"), ("pretrain-ggm", "ggm"),
                               ("flex-tune", "tuned"), ("eval", "eval"),
                               ("analyze", "analysis")]:
            doc = read_manifest(d[dirname] / f"{stage}.manifest.json")
            assert doc["stage"] == stage
            for rec in doc["outputs"].values():
                assert len(rec["sha256"]) == 64
        assert time.perf_counter() - started < 900  # well under 15 minutes

    def test_eval_reproduces_manifest_hits_bit_exactly(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 5, "--patience", 5,
                    "--hidden", 8, "--eval-k", 3, "--seed", 2,
                    "--out", d["gnn"]]) == 0
        train_manifest = read_manifest(d["gnn"] / "pretrain-gnn.manifest.json")
        assert run(["eval", *graph_flags, "--ckpt", d["gnn"] / "gnn.ckpt",
                    "--k", 3, "--out", d["eval"]]) == 0
        eval_manifest = read_manifest(d["eval"] / "eval.manifest.json")
        assert eval_manifest["metrics"]["valid_hits"] == train_manifest["metrics"]["valid_hits"]
        assert eval_manifest["metrics"]["test_hits"] == train_manifest["metrics"]["test_hits"]

    def test_flex_tune_reports_test_hits_against_pretrained(self, tmp_path, capsys):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 5, "--patience", 5,
                    "--hidden", 8, "--eval-k", 3, "--seed", 2, "--out", d["gnn"]]) == 0
        assert run(["pretrain-ggm", *graph_flags, "--epochs", 2, "--patience", 2,
                    "--noise-dim", 4, "--num-psi", 1, "--out", d["ggm"]]) == 0
        capsys.readouterr()
        assert run(["flex-tune", *graph_flags,
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--epochs", 1, "--patience", 1, "--batch-size", 32,
                    "--lr-gnn", 1e-2, "--num-psi", 1, "--eval-k", 3,
                    "--out", d["tuned"]]) == 0
        printed = capsys.readouterr().out
        tuned = read_manifest(d["tuned"] / "flex-tune.manifest.json")["metrics"]
        # The pre-trained predictor's test Hits@K on the same eval adjacency.
        base = read_manifest(d["gnn"] / "pretrain-gnn.manifest.json")["metrics"]["test_hits"]
        assert tuned["base_test_hits"] == base
        assert tuned["test_delta"] == tuned["test_hits"] - base
        assert (f"test Hits@3 {tuned['test_hits']:.4f} (pre-trained {base:.4f}, "
                f"delta {tuned['test_delta']:+.4f})") in printed

    def test_rerun_is_hash_identical(self, tmp_path):
        d = pipeline_dirs(tmp_path)
        hashes = {}
        for round_no in range(2):
            run_pipeline_through_split(d)
            graph_flags = ["--edges", d["graph"] / "edges.tsv",
                           "--features", d["graph"] / "features.csv",
                           "--split", d["split"] / "split.json"]
            assert run(["pretrain-gnn", *graph_flags, "--epochs", 5,
                        "--patience", 5, "--hidden", 8, "--eval-k", 3,
                        "--seed", 2, "--out", d["gnn"]]) == 0
            trace_rows = [
                line.split(",")[:3]  # epoch, train_loss, valid_hits; seconds is wall clock
                for line in (d["gnn"] / "gnn_trace.csv").read_text().splitlines()
            ]
            current = {
                name: sha256_file(path)
                for name, path in [
                    ("edges", d["graph"] / "edges.tsv"),
                    ("features", d["graph"] / "features.csv"),
                    ("split", d["split"] / "split.json"),
                    ("ckpt", d["gnn"] / "gnn.ckpt"),
                ]
            }
            current["trace"] = trace_rows
            if round_no == 0:
                hashes = current
            else:
                assert current == hashes

    def test_staleness_warning_on_changed_split(self, tmp_path, capsys):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 2, "--patience", 2,
                    "--hidden", 8, "--eval-k", 3, "--out", d["gnn"]]) == 0
        assert run(["pretrain-ggm", *graph_flags, "--epochs", 2, "--patience", 2,
                    "--noise-dim", 4, "--num-psi", 1, "--out", d["ggm"]]) == 0
        # regenerate the split with a different seed: same path, new content
        run_pipeline_through_split(d)
        capsys.readouterr()
        code = run(["flex-tune", *graph_flags,
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--epochs", 1, "--patience", 1, "--batch-size", 32,
                    "--num-psi", 1, "--eval-k", 3, "--out", d["tuned"]])
        err = capsys.readouterr().err
        assert code == 0
        # note: split content is identical (same seed), so no warning expected;
        # force a real change instead
        doc = json.loads((d["split"] / "split.json").read_text())
        (d["split"] / "split.json").write_text(json.dumps(doc, indent=1))
        code = run(["flex-tune", *graph_flags,
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--epochs", 1, "--patience", 1, "--batch-size", 32,
                    "--num-psi", 1, "--eval-k", 3, "--out", d["tuned"]])
        err = capsys.readouterr().err
        assert code == 0
        assert "stale" in err


class TestSweepCommand:
    def test_default_gamma_grid_is_the_canonical_one(self):
        from counterlink.cli import DEFAULTS

        assert DEFAULTS["sweep"]["grid"] == "0.0,0.25,0.5,0.75,0.9,0.9999"

    def test_numeric_error_exit_code_is_4(self, monkeypatch, tmp_path):
        from counterlink import cli
        from counterlink.errors import NumericError

        def boom(cfg):
            raise NumericError("loss diverged")

        monkeypatch.setitem(cli.HANDLERS, "synth", boom)
        assert run(["synth", "--out", tmp_path]) == 4

    def test_single_point_sweep(self, tmp_path, capsys):
        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        graph_flags = ["--edges", d["graph"] / "edges.tsv",
                       "--features", d["graph"] / "features.csv",
                       "--split", d["split"] / "split.json"]
        assert run(["pretrain-gnn", *graph_flags, "--epochs", 3, "--patience", 3,
                    "--hidden", 8, "--eval-k", 3, "--out", d["gnn"]]) == 0
        assert run(["pretrain-ggm", *graph_flags, "--epochs", 3, "--patience", 3,
                    "--noise-dim", 4, "--num-psi", 1, "--out", d["ggm"]]) == 0
        out = tmp_path / "sweep"
        assert run(["sweep", *graph_flags,
                    "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
                    "--ggm-ckpt", d["ggm"] / "ggm.ckpt",
                    "--param", "gamma", "--grid", "0.5", "--seeds", "0",
                    "--epochs", 1, "--patience", 1, "--batch-size", 32,
                    "--num-psi", 1, "--eval-k", 3, "--out", out]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["grid"] == [0.5]
        assert len(doc["means"]) == 1
        assert sorted(doc) == ["errors", "grid", "means", "param", "per_point", "stds"]
        runs = read_manifest(out / "sweep.manifest.json")["metrics"]["runs"]
        assert [(r["value"], r["seed"]) for r in runs] == [(0.5, 0)]
        run_ = runs[0]
        assert run_["selected_pretrained"] == (run_["best_epoch"] == 0)
        # The paired delta against the pre-trained predictor on the same eval
        # adjacency, as flex-tune reports it.
        base = read_manifest(d["gnn"] / "pretrain-gnn.manifest.json")["metrics"]["test_hits"]
        assert run_["base_test_hits"] == base
        assert run_["test_hits"] == doc["per_point"][0][0]
        assert run_["test_delta"] == run_["test_hits"] - base
        kept = " (pre-trained state kept)" if run_["selected_pretrained"] else ""
        assert (f"sweep gamma=0.5 seed 0: best epoch {run_['best_epoch']}{kept}, "
                f"test Hits@3 {run_['test_hits']:.4f} (pre-trained {base:.4f}, "
                f"delta {run_['test_delta']:+.4f})"
                in capsys.readouterr().out.splitlines())


def pretrained_dirs(tmp_path, *gnn_flags):
    """Pipeline dirs with a split and both pre-trained models; the graph flags."""
    d = pipeline_dirs(tmp_path)
    run_pipeline_through_split(d)
    graph_flags = ["--edges", d["graph"] / "edges.tsv",
                   "--features", d["graph"] / "features.csv",
                   "--split", d["split"] / "split.json"]
    assert run(["pretrain-gnn", *graph_flags, "--epochs", 5, "--patience", 5,
                "--hidden", 8, "--eval-k", 3, "--seed", 2, *gnn_flags,
                "--out", d["gnn"]]) == 0
    assert run(["pretrain-ggm", *graph_flags, "--epochs", 2, "--patience", 2,
                "--noise-dim", 4, "--num-psi", 1, "--out", d["ggm"]]) == 0
    return d, [*graph_flags, "--gnn-ckpt", d["gnn"] / "gnn.ckpt",
               "--ggm-ckpt", d["ggm"] / "ggm.ckpt"]


TUNE_FLAGS = ["--epochs", 1, "--patience", 1, "--batch-size", 32, "--lr-gnn", 1e-2,
              "--num-psi", 1, "--eval-k", 3, "--gamma", 0.5, "--seed", 0]


class TestEvalAdjacency:
    @pytest.mark.parametrize("command,flags", [
        ("flex-tune", []), ("sweep", ["--grid", "0.5,0.9", "--seeds", "0"])])
    def test_stage_normalizes_the_eval_adjacency_once(self, tmp_path, monkeypatch,
                                                      command, flags):
        from counterlink import analysis, cli, cotrain, gnn, graphs

        d, tune_flags = pretrained_dirs(tmp_path)
        calls = []
        real = graphs.normalize_adjacency
        # Every module-level name a stage could reach it by; batch adjacencies
        # are normalized through graphs' own name and are not counted.
        for module in (cli, gnn, cotrain, analysis):
            monkeypatch.setattr(module, "normalize_adjacency",
                                lambda a: calls.append(a.shape) or real(a), raising=False)
        assert run([command, *tune_flags, *TUNE_FLAGS, *flags, "--out", d["tuned"]]) == 0
        assert len(calls) == 1

    def test_full_adjacency_eval_reaches_every_scorer(self, tmp_path):
        from counterlink.autodiff import load_params
        from counterlink.gnn import GcnParams, evaluate_hits
        from counterlink.graphs import load_graph, normalize_adjacency
        from counterlink.splits import load_split

        full = ["--full-adjacency-eval"]
        d, tune_flags = pretrained_dirs(tmp_path, *full)
        assert run(["flex-tune", *tune_flags, *TUNE_FLAGS, *full, "--out", d["tuned"]]) == 0
        sweep = tmp_path / "sweep"
        assert run(["sweep", *tune_flags, *TUNE_FLAGS, *full, "--grid", "0.5",
                    "--seeds", "0", "--out", sweep]) == 0

        graph = load_graph(d["graph"] / "edges.tsv", d["graph"] / "features.csv")
        split = load_split(d["split"] / "split.json", graph)
        norms = {"full": normalize_adjacency(graph.adjacency),
                 "observed": normalize_adjacency(split.observed_graph.adjacency)}

        def hits(ckpt, bucket, adjacency="full"):
            params, _ = load_params(ckpt, GcnParams)
            return evaluate_hits(params, norms[adjacency], graph.features,
                                 split.pos(bucket), split.neg(bucket), 3)

        pre = read_manifest(d["gnn"] / "pretrain-gnn.manifest.json")["metrics"]
        tuned = read_manifest(d["tuned"] / "flex-tune.manifest.json")["metrics"]
        swept = read_manifest(sweep / "sweep.manifest.json")["metrics"]["runs"][0]
        per_point = json.loads((sweep / "sweep.json").read_text())["per_point"]
        base, tuned_ckpt = d["gnn"] / "gnn.ckpt", d["tuned"] / "gnn_tuned.ckpt"
        assert pre["valid_hits"] == hits(base, "valid")
        assert pre["test_hits"] == hits(base, "test")
        assert tuned["valid_hits"] == hits(tuned_ckpt, "valid")
        assert tuned["test_hits"] == hits(tuned_ckpt, "test")
        assert tuned["base_test_hits"] == swept["base_test_hits"] == pre["test_hits"]
        # The sweep's one run is the flex-tune run: same config and seed.
        assert swept["test_hits"] == per_point[0][0] == tuned["test_hits"]
        # The flag changes the scores here, so the equalities above test it.
        assert pre["test_hits"] != hits(base, "test", "observed")

    @pytest.mark.parametrize("flags,normalized", [([], 1), (["--full-adjacency-eval"], 2)],
                             ids=["observed", "full"])
    def test_pretrain_gnn_normalizes_each_adjacency_once(self, tmp_path, monkeypatch,
                                                         flags, normalized):
        # Without the flag it scores on the adjacency it trains on.
        from counterlink import analysis, cli, cotrain, gnn, graphs

        d = pipeline_dirs(tmp_path)
        run_pipeline_through_split(d)
        calls = []
        real = graphs.normalize_adjacency
        for module in (cli, gnn, cotrain, analysis):
            monkeypatch.setattr(module, "normalize_adjacency",
                                lambda a: calls.append(a.shape) or real(a), raising=False)
        assert run(["pretrain-gnn", "--edges", d["graph"] / "edges.tsv",
                    "--features", d["graph"] / "features.csv",
                    "--split", d["split"] / "split.json", "--epochs", 2, "--patience", 2,
                    "--hidden", 8, "--eval-k", 3, *flags, "--out", d["gnn"]]) == 0
        assert len(calls) == normalized


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    return pretrained_dirs(tmp_path_factory.mktemp("pretrained"))


class TestTrainingValuesInRange:
    """Out-of-range training values exit 2 before any training, and the
    message names the flag."""

    @pytest.mark.parametrize("command,flag,value", [
        ("pretrain-gnn", "--lr", -1),
        ("pretrain-gnn", "--patience", -1),
        ("pretrain-ggm", "--lr", "nan"),
        ("pretrain-ggm", "--patience", -1),
        ("flex-tune", "--lr-gnn", -1e-3),
        ("flex-tune", "--lr-ggm", "inf"),
        ("flex-tune", "--patience", -1),
        ("flex-tune", "--alpha", "nan"),
        ("flex-tune", "--tau", "nan"),
        ("flex-tune", "--tau-offset", "nan"),
        ("sweep", "--alpha", "inf"),
        ("pretrain-gnn", "--batch-size", -1),
        ("pretrain-ggm", "--batch-size", -1),
        ("flex-tune", "--batch-size", -1),
        ("flex-tune", "--eval-k", 0),
        ("pretrain-ggm", "--hop-k", 0),
        ("pretrain-ggm", "--max-nodes", 1),
        ("flex-tune", "--hop-k", 0),
        ("flex-tune", "--max-nodes", 1),
    ])
    def test_rejected_with_exit_2(self, pretrained, tmp_path, command, flag, value):
        d, tune_flags = pretrained
        args = {
            "pretrain-gnn": [*tune_flags[:6], "--epochs", 1, "--patience", 1, "--hidden", 8,
                             "--eval-k", 3],
            "pretrain-ggm": [*tune_flags[:6], "--epochs", 1, "--patience", 1,
                             "--noise-dim", 4],
            "flex-tune": [*tune_flags, *TUNE_FLAGS],
            "sweep": [*tune_flags, *TUNE_FLAGS, "--grid", "0.5", "--seeds", "0"],
        }[command]
        out = tmp_path / "out"
        code, err = run_child([command, *args, flag, value, "--out", out])
        assert code == 2, err
        assert flag[2:].replace("-", "_") in err and "Traceback" not in err
        assert not any(out.iterdir())


# Checkpoint corruptions that still parse: (model, entry, replacement), where
# a replacement of None drops the entry.
def drop_row(w):
    return w[1:]


# (model, entry, its new value: None deletes it, a function maps the old one)
BAD_CHECKPOINTS = {
    "missing_weight": ("gnn", "gnn.b1", None),
    "missing_dropout": ("gnn", "meta.dropout", None),
    "nan_hidden": ("gnn", "meta.hidden", np.array([np.nan])),
    "empty_hidden": ("gnn", "meta.hidden", np.array([])),
    "short_bias": ("gnn", "gnn.b0", np.zeros(1)),
    "short_second_weight": ("gnn", "gnn.w1", drop_row),
    "first_weight_not_feature_width": ("gnn", "gnn.w0", drop_row),
    "hidden_not_the_weights": ("gnn", "meta.hidden", np.array([7.0])),
    "missing_head": ("ggm", "ggm.w_mu", None),
    "nan_noise_dim": ("ggm", "meta.noise_dim", np.array([np.nan])),
    "empty_noise_dim": ("ggm", "meta.noise_dim", np.array([])),
    "short_input_bias": ("ggm", "ggm.b_in", np.zeros(1)),
    "two_axis_head_bias": ("ggm", "ggm.b_lv", np.zeros((1, 16))),
    "zdim_not_the_heads": ("ggm", "meta.zdim", np.array([3.0])),
}


class TestMalformedCheckpoint:
    """A checkpoint that parses but lacks an entry, holds a meta value that is
    not one finite number, or holds an array whose shape does not fit the
    others, the meta values or the features, exits 2 naming the file and the
    entry."""

    @pytest.mark.parametrize("command,case", [
        *(("eval", case) for case, (model, _, _) in BAD_CHECKPOINTS.items()
          if model == "gnn"),
        *(("flex-tune", case) for case in BAD_CHECKPOINTS),
        *(("sweep", case) for case in BAD_CHECKPOINTS),
    ])
    def test_rejected_with_exit_2(self, pretrained, tmp_path, command, case):
        d, flags = pretrained
        model, entry, value = BAD_CHECKPOINTS[case]
        named = load_checkpoint(d[model] / f"{model}.ckpt")
        if value is None:
            del named[entry]
        else:
            named[entry] = value(named[entry]) if callable(value) else value
        bad = tmp_path / f"{model}.ckpt"
        save_checkpoint(bad, named)
        ckpts = {"gnn": d["gnn"] / "gnn.ckpt", "ggm": d["ggm"] / "ggm.ckpt", model: bad}
        args = {
            "eval": ["--ckpt", ckpts["gnn"], "--k", 3],
            "flex-tune": ["--gnn-ckpt", ckpts["gnn"], "--ggm-ckpt", ckpts["ggm"], *TUNE_FLAGS],
            "sweep": ["--gnn-ckpt", ckpts["gnn"], "--ggm-ckpt", ckpts["ggm"], *TUNE_FLAGS,
                      "--grid", "0.5", "--seeds", "0"],
        }[command]
        code, err = run_child([command, *flags[:6], *args, "--out", tmp_path / "out"])
        assert code == 2, err
        assert f"{bad}: checkpoint" in err and repr(entry) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["flex-tune", "sweep"])
    @pytest.mark.parametrize("noise_dim", [5, 1e15], ids=["one_too_many", "1e15"])
    def test_noise_width_that_does_not_fit_the_weights_is_2(self, pretrained, tmp_path,
                                                            command, noise_dim):
        # The generator was trained with noise_dim 4. Unchecked, 5 failed in
        # the input product without naming the file, and 1e15 in allocating
        # the input with a traceback.
        d, flags = pretrained
        named = load_checkpoint(d["ggm"] / "ggm.ckpt")
        named["meta.noise_dim"] = np.array([noise_dim])
        bad = tmp_path / "ggm.ckpt"
        save_checkpoint(bad, named)
        sweep = ["--grid", "0.5", "--seeds", "0"] if command == "sweep" else []
        code, err = run_child([command, *flags[:8], "--ggm-ckpt", bad, *TUNE_FLAGS, *sweep,
                               "--out", tmp_path / "out"])
        assert code == 2, err
        assert f"{bad}: checkpoint entry 'meta.noise_dim' is {int(noise_dim)}" in err
        assert "Traceback" not in err


class TestSweepGridValues:
    @pytest.mark.parametrize("param,value,message", [
        ("gamma", "1.5", "gamma must be in [0, 1]"),
        ("lr_gnn", "-1", "lr_gnn must be a finite number >= 0, got -1.0"),
        ("alpha", "nan", "alpha must be a finite number >= 0, got nan"),
    ])
    def test_invalid_value_is_2_before_any_run(self, pretrained, tmp_path, param, value,
                                               message):
        _, flags = pretrained
        out = tmp_path / "out"
        code, err = run_child(["sweep", *flags, *TUNE_FLAGS, "--param", param,
                               f"--grid=0.5,{value}", "--seeds", "0", "--out", out])
        assert code == 2, err
        assert message in err and "Traceback" not in err
        assert not (out / "sweep.json").exists()


class TestReadingStagesVerifySplit:
    """Every stage that reads split.json re-checks it before any work: a
    positive moved to the wrong bucket, or a positive that is not one of the
    graph's edges, exits 5 naming the bucket and the pair."""

    def stage_args(self, pretrained, tmp_path, command, split):
        d, _ = pretrained
        graph = ["--edges", d["graph"] / "edges.tsv",
                 "--features", d["graph"] / "features.csv", "--split", split]
        ckpts = ["--gnn-ckpt", d["gnn"] / "gnn.ckpt", "--ggm-ckpt", d["ggm"] / "ggm.ckpt"]
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": []}))
        return [command, *graph, *{
            "flex-tune": ckpts,
            "sweep": ckpts,
            "eval": ["--ckpt", d["gnn"] / "gnn.ckpt"],
            "analyze": ["--samples", samples],
        }.get(command, []), "--out", tmp_path / "out"]

    @pytest.mark.parametrize("command", [
        "pretrain-gnn", "pretrain-ggm", "flex-tune", "eval", "analyze", "sweep"])
    def test_moved_positive_is_5(self, pretrained, tmp_path, command):
        # Backward CN split: train holds CN >= 2 and test CN 0.
        doc = json.loads((pretrained[0]["split"] / "split.json").read_text())
        moved = doc["edges"]["train_pos"].pop(0)
        doc["edges"]["test_pos"].append(moved)
        split = tmp_path / "split.json"
        split.write_text(json.dumps(doc))
        code, err = run_child(self.stage_args(pretrained, tmp_path, command, split))
        assert code == 5, err
        assert "1 bucket violation" in err and f"'bucket': 'test', 'edge': {moved}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corruption", ["self_pair", "reversed_copy"])
    def test_malformed_positive_is_5(self, pretrained, tmp_path, corruption):
        # A train self-pair used to reach the graph constructor and exit 2;
        # a reversed copy of a test edge used to load and be scored twice.
        doc = json.loads((pretrained[0]["split"] / "split.json").read_text())
        edges = doc["edges"]
        if corruption == "self_pair":
            edges["train_pos"][0] = [5, 5]
            message = "train_pos holds [5, 5], which is not an edge of the graph"
        else:
            u, v = edges["test_pos"][0]
            edges["test_pos"].append([v, u])
            message = f"test_pos repeats the edge {[v, u]}, already in test_pos"
        split = tmp_path / "split.json"
        split.write_text(json.dumps(doc))
        code, err = run_child(self.stage_args(pretrained, tmp_path, "eval", split))
        assert code == 5, err
        assert message in err and "Traceback" not in err
