import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import counterlink
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

    @pytest.mark.parametrize("doc", [
        {"records": []},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[0, 9, 0.75]]}]},
        {"samples": [{"block_size": 4, "label": 1, "target": [0, 1], "gamma": 0.5,
                      "edges": [[-1, 2, 0.75]]}]},
    ], ids=["no_samples_key", "record_without_edges", "edge_outside_block",
            "negative_edge_id"])
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
        assert runs[0]["selected_pretrained"] == (runs[0]["best_epoch"] == 0)
        kept = " (pre-trained state kept)" if runs[0]["selected_pretrained"] else ""
        assert (f"sweep gamma=0.5 seed 0: best epoch {runs[0]['best_epoch']}{kept}"
                in capsys.readouterr().out.splitlines())
