"""Command-line pipeline: synth, split, pretrain, co-tune, evaluate, analyze.

Every command reads files, writes files plus a JSON manifest (input hashes,
config, seed, wall clock, metrics), and is re-runnable: identical inputs and
seed produce identical outputs. Configuration precedence is flags over
config-file section over defaults, which COMMANDS and the config classes hold.

Exit codes: 0 success, 2 config error, 3 dependency error, 4 numeric error,
5 validation error.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields

from .analysis import (
    alignment_report,
    cn_distribution,
    degree_bias_scan,
    link_heuristic_histogram,
    run_sweep,
)
from .autodiff import load_params, save_params
from .cotrain import CotrainConfig, flex_tune, generate_samples, train_subgraphs
from .errors import ConfigError, CounterlinkError, InputError
from .generator import (GgmTrainConfig, NoiseSpec, SiviParams, dump_samples, load_samples,
                        pretrain_ggm)
from .gnn import GcnParams, TrainConfig, evaluate_hits, pretrain_gnn
from .graphs import load_graph, normalize_adjacency
from .manifest import require_artifact, staleness_warnings, write_manifest
from .splits import SplitSpec, generate_split, load_split, save_split, verify_split
from .synth import SyntheticGraphSpec, synth_graph, write_graph_files

# Comma-separated list flags and the type of their items.
LIST_ITEMS = {"grid": float, "seeds": int}
# The stage that writes each input path flag's file.
PRODUCED_BY = {
    "edges": "synth", "features": "synth", "split": "split",
    "gnn_ckpt": "pretrain-gnn", "ggm_ckpt": "pretrain-ggm",
    "ckpt": "pretrain-gnn or flex-tune", "samples": "flex-tune",
}


def _flag_type(key, default):
    """A flag takes its default's type; a None default is a path, or tau."""
    if default is None:
        return float if key == "tau" else str
    return type(default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="counterlink",
        description="Counterfactual subgraph generation for link prediction "
                    "under structural shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="JSON config file; the section named after the "
                            "command supplies values (flags still win)")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            kind = _flag_type(key, default)
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True,
                               default=None, help=f"(default {default})")
            else:
                p.add_argument(flag, type=kind, default=None,
                               help=f"(default {default})")
    return parser


def merge_config(command, args) -> dict:
    """Defaults, then the config file's section for command, then flags. The
    command's config classes are built from the result; a refused value's
    message names the file when the class would take the same values with
    the file's at their defaults."""
    cfg = dict(DEFAULTS[command])
    section = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{args.config}: unreadable JSON config: {exc}")
        section = doc.get(command, {}) if isinstance(doc, dict) else None
        if not isinstance(section, dict):
            raise ConfigError(
                f"{args.config}: expected a JSON object whose {command!r} section is an object"
            )
        strays = set(doc) - set(COMMANDS)
        if strays:
            raise ConfigError(f"{args.config}: config sections {sorted(strays)} name no "
                              f"subcommand; expected some of {list(COMMANDS)}")
        unknown = set(section) - set(cfg)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys for {command}: "
                              f"{sorted(unknown)}")
        for key, val in section.items():
            cfg[key] = _config_value(args.config, command, key, val)
    flags = {key: getattr(args, key) for key in DEFAULTS[command]
             if getattr(args, key) is not None}
    cfg.update(flags)
    for key in LIST_ITEMS:
        if key in cfg:  # a value no flag set is the config file's or the default
            _csv_list(cfg, key, None if key in flags else args.config)
    file_at_defaults = {**cfg, **{key: DEFAULTS[command][key]
                                  for key in set(section) - set(flags)}}
    for cls in COMMANDS[command][2]:
        try:
            _from_flags(cls, cfg)
        except CounterlinkError as exc:
            try:
                _from_flags(cls, file_at_defaults)
            except CounterlinkError:
                raise exc from None
            raise ConfigError(f"{args.config}: {exc}") from None
    return cfg


def _config_value(path, command, key, val):
    """val if it has the flag's type: an int passes (as a float) for a float,
    a bool never for a number, null only where the default is None."""
    default = DEFAULTS[command][key]
    kind = _flag_type(key, default)
    if val is None and default is None:
        return None
    if isinstance(val, bool) != (kind is bool) or not isinstance(
            val, {float: (int, float)}.get(kind, kind)):
        raise ConfigError(f"{path}: {command}.{key} must be {kind.__name__}"
                          f"{' or null' if default is None else ''}, got {val!r}")
    return float(val) if kind is float else val


def _csv_list(cfg, key, source=None):
    """A non-empty comma-separated flag value, parsed item by item; an error
    names the source file, if the value came from one."""
    kind = LIST_ITEMS[key]
    try:
        items = [kind(x) for x in str(cfg[key]).split(",") if x != ""]
    except ValueError:
        items = []
    if not items:
        raise ConfigError(f"{source + ': ' if source else ''}--{key} must be a non-empty "
                          f"comma-separated list of {kind.__name__} values, got {cfg[key]!r}")
    return items


def _from_flags(cls, cfg, **given):
    """A config dataclass built from the flags named like its fields; values
    in `given` win."""
    return cls(**{**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg},
                  **given})


def _eval_norm(cfg, graph, split):
    """The normalized adjacency Hits@K is scored on: the full graph's with
    --full-adjacency-eval, else the training-visible graph's. The only place
    a stage normalizes a whole-graph adjacency for scoring; pretrain-gnn
    calls it only for the full graph, and otherwise scores on the adjacency
    it trains on."""
    scored = graph if cfg["full_adjacency_eval"] else split.observed_graph
    return normalize_adjacency(scored.adjacency)


def _outcome(run, k, valid=""):
    """'best epoch ..., test Hits@K ... (pre-trained ..., delta ...)' for a
    CotrainResult.selection() record; valid is inserted before the test."""
    kept = " (pre-trained state kept)" if run["selected_pretrained"] else ""
    return (f"best epoch {run['best_epoch']}{kept}, {valid}test Hits@{k} "
            f"{run['test_hits']:.4f} (pre-trained {run['base_test_hits']:.4f}, "
            f"delta {run['test_delta']:+.4f})")


def _write_csv(path, rows):
    """rows as CSV under a header of the first row's keys."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Handlers: each does its command's own work on the inputs the runner loaded
# (graph after --features, split after --split) and returns the manifest's
# outputs and metrics plus its stdout lines.


def cmd_synth(cfg):
    g = synth_graph(_from_flags(SyntheticGraphSpec, cfg))
    edges_path = os.path.join(cfg["out"], "edges.tsv")
    feats_path = os.path.join(cfg["out"], "features.csv")
    write_graph_files(g, edges_path, feats_path)
    return ({"edges": edges_path, "features": feats_path},
            {"num_nodes": g.num_nodes, "edge_count": g.edge_count},
            [f"synth: {g.num_nodes} nodes, {g.edge_count} edges -> {cfg['out']}"])


def cmd_split(cfg, graph):
    split = generate_split(graph, _from_flags(SplitSpec, cfg))
    report = verify_split(graph, split)
    split_path = os.path.join(cfg["out"], "split.json")
    save_split(split, split_path)
    return ({"split": split_path},
            {"bucket_counts": report.bucket_counts,
             "interpretation": report.interpretation},
            [f"split: {report.bucket_counts} ({report.interpretation}) -> {split_path}"])


def cmd_pretrain_gnn(cfg, graph, split):
    result = pretrain_gnn(
        split.observed_graph, split, _from_flags(TrainConfig, cfg),
        hidden=cfg["hidden"], layers=cfg["layers"],
        eval_norm=_eval_norm(cfg, graph, split) if cfg["full_adjacency_eval"] else None,
    )
    ckpt = os.path.join(cfg["out"], "gnn.ckpt")
    save_params(ckpt, result.params,
                extra_meta={"best_valid": result.best_valid, "test_hits": result.test_hits})
    trace_path = os.path.join(cfg["out"], "gnn_trace.csv")
    _write_csv(trace_path, result.trace)
    return ({"checkpoint": ckpt, "trace": trace_path},
            {"best_epoch": result.best_epoch, "valid_hits": result.best_valid,
             "test_hits": result.test_hits},
            [f"pretrain-gnn: best epoch {result.best_epoch}, "
             f"valid Hits@{cfg['eval_k']} {result.best_valid:.4f}, "
             f"test Hits@{cfg['eval_k']} {result.test_hits:.4f}"])


def cmd_pretrain_ggm(cfg, graph, split):
    spec = _from_flags(NoiseSpec, cfg)
    result = pretrain_ggm(split.observed_graph, split,
                          _from_flags(GgmTrainConfig, cfg), spec)
    ckpt = os.path.join(cfg["out"], "ggm.ckpt")
    save_params(ckpt, result.params,
                extra_meta={"final_kl": result.final_kl, "best_loss": result.best_loss})
    trace_path = os.path.join(cfg["out"], "ggm_trace.csv")
    _write_csv(trace_path, result.trace)
    return ({"checkpoint": ckpt, "trace": trace_path},
            {"best_epoch": result.best_epoch, "best_loss": result.best_loss,
             "final_kl": result.final_kl},
            [f"pretrain-ggm: best epoch {result.best_epoch}, "
             f"loss {result.best_loss:.4f}, kl {result.final_kl:.4f}"])


def _load_gnn(path, graph):
    """The predictor in the checkpoint at path; its first layer must take the
    graph's feature columns."""
    params, _ = load_params(path, GcnParams)
    rows, width = params.weights[0].shape[0], graph.features.shape[1]
    if rows != width:
        raise InputError(f"{path}: checkpoint entry 'gnn.w0' has {rows} rows, not the "
                         f"{width} feature columns")
    return params


def _pretrained(cfg, graph):
    """Both pre-trained models, warnings about their upstream manifests, and
    the co-tuning config; an unset tau is the generator's final KL plus
    tau_offset."""
    gnn_params = _load_gnn(cfg["gnn_ckpt"], graph)
    ggm_params, ggm_meta = load_params(cfg["ggm_ckpt"], SiviParams)
    rows, width = ggm_params.w_in.shape[0], graph.features.shape[1]
    if rows != width + 1 + ggm_params.noise_dim:
        raise InputError(f"{cfg['ggm_ckpt']}: checkpoint entry 'meta.noise_dim' is "
                         f"{ggm_params.noise_dim}, but 'ggm.w_in' has {rows} rows, not "
                         f"{width} feature columns + 1 + meta.noise_dim")
    for key, stage in (("gnn_ckpt", "pretrain-gnn"), ("ggm_ckpt", "pretrain-ggm")):
        for note in staleness_warnings(cfg[key], stage, {"split": cfg["split"]}):
            print(f"warning: {note}", file=sys.stderr)
    tau = cfg["tau"]
    if tau is None and "final_kl" in ggm_meta:
        tau = ggm_meta["final_kl"] + cfg["tau_offset"]
    noise = _from_flags(NoiseSpec, cfg, noise_dim=ggm_params.noise_dim)
    return gnn_params, ggm_params, _from_flags(CotrainConfig, cfg, tau=tau, noise=noise)


def cmd_flex_tune(cfg, graph, split):
    gnn_params, ggm_params, run_cfg = _pretrained(cfg, graph)
    subgraphs = train_subgraphs(split.observed_graph, split, run_cfg)
    result = flex_tune(gnn_params, ggm_params, split.observed_graph, split,
                       run_cfg, eval_norm=_eval_norm(cfg, graph, split), subgraphs=subgraphs)
    gnn_out = os.path.join(cfg["out"], "gnn_tuned.ckpt")
    ggm_out = os.path.join(cfg["out"], "ggm_tuned.ckpt")
    save_params(gnn_out, result.gnn,
                extra_meta={"best_valid": result.best_valid, "test_hits": result.test_hits})
    save_params(ggm_out, result.ggm, extra_meta={"tau": result.tau})
    trace_path = os.path.join(cfg["out"], "cotrain_trace.csv")
    _write_csv(trace_path, result.trace)
    samples = generate_samples(result.ggm, split.observed_graph, split, run_cfg,
                               bucket="train", subgraphs=subgraphs[: len(split.train_pos)])
    samples_path = os.path.join(cfg["out"], "samples.json")
    dump_samples(samples, samples_path)
    cfg["tau"] = result.tau  # the manifest records the tau the run used
    selection = result.selection()
    valid = f"valid Hits@{cfg['eval_k']} {result.best_valid:.4f}, "
    return ({"gnn_tuned": gnn_out, "ggm_tuned": ggm_out, "trace": trace_path,
             "samples": samples_path},
            {**selection, "valid_hits": result.best_valid, "tau": result.tau},
            ["flex-tune: " + _outcome(selection, cfg["eval_k"], valid)])


def cmd_eval(cfg, graph, split):
    params = _load_gnn(cfg["ckpt"], graph)
    a_norm = _eval_norm(cfg, graph, split)
    valid = evaluate_hits(params, a_norm, graph.features, split.valid_pos,
                          split.valid_neg, cfg["k"])
    test = evaluate_hits(params, a_norm, graph.features, split.test_pos,
                         split.test_neg, cfg["k"])
    csv_path = os.path.join(cfg["out"], "eval.csv")
    _write_csv(csv_path, [{"bucket": "valid", "hits": valid}, {"bucket": "test", "hits": test}])
    return ({"csv": csv_path}, {"valid_hits": valid, "test_hits": test},
            [f"Hits@{cfg['k']} valid: {valid:.6f}", f"Hits@{cfg['k']} test: {test:.6f}"])


def cmd_analyze(cfg, graph, split):
    records = load_samples(cfg["samples"], graph.num_nodes)
    gen_hist = cn_distribution(records, source="generated")
    train_hist = link_heuristic_histogram(graph, split.train_pos, "CN", "train")
    valid_hist = link_heuristic_histogram(graph, split.valid_pos, "CN", "valid")
    report = alignment_report(train_hist, valid_hist, gen_hist)
    scan = degree_bias_scan(records)
    doc = {
        "histograms": [h.as_dict() for h in (train_hist, valid_hist, gen_hist)],
        "alignment": report.as_dict(),
        "degree_bias_slope": scan.slope,
    }
    json_path = os.path.join(cfg["out"], "analysis.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    hist_csv = os.path.join(cfg["out"], "cn_distribution.csv")
    rows = []
    for h in (train_hist, valid_hist, gen_hist):
        for lo, count in zip(h.bucket_edges[:-1], h.counts):
            rows.append({"source": h.source, "bucket_start": lo, "count": int(count)})
    _write_csv(hist_csv, rows)
    scatter_csv = os.path.join(cfg["out"], "degree_bias.csv")
    _write_csv(scatter_csv, scan.as_rows())
    return ({"analysis": json_path, "cn_distribution": hist_csv,
             "degree_bias": scatter_csv},
            {"gen_gap": report.gen_gap, "train_gap": report.train_gap,
             "degree_bias_slope": scan.slope},
            [f"analyze: gen gap {report.gen_gap:.4f} vs train gap "
             f"{report.train_gap:.4f}; degree-bias slope {scan.slope:.4f}"])


def cmd_sweep(cfg, graph, split):
    gnn_params, ggm_params, base = _pretrained(cfg, graph)
    result = run_sweep(cfg["param"], _csv_list(cfg, "grid"), base,
                       _csv_list(cfg, "seeds"), gnn_params, ggm_params,
                       split.observed_graph, split,
                       eval_norm=_eval_norm(cfg, graph, split))
    json_path = os.path.join(cfg["out"], "sweep.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2)
    csv_path = os.path.join(cfg["out"], "sweep.csv")
    _write_csv(csv_path, [{"value": v, "mean_hits": m, "std_hits": s}
                          for v, m, s in zip(result.grid, result.means, result.stds)])
    lines = [f"sweep {cfg['param']}={v}: Hits@{cfg['eval_k']} {m:.4f} +/- {s:.4f}"
             for v, m, s in zip(result.grid, result.means, result.stds)]
    lines += [f"sweep {cfg['param']}={run['value']} seed {run['seed']}: "
              + _outcome(run, cfg["eval_k"]) for run in result.selections]
    return ({"sweep_json": json_path, "sweep_csv": csv_path},
            {"param": cfg["param"], "means": result.means, "runs": result.selections},
            lines)


GRAPH = ("edges", "features")
SPLIT = GRAPH + ("split",)
TUNING = SPLIT + ("gnn_ckpt", "ggm_ckpt")
# Per command: its handler; its input path flags, in the order run_stage
# checks them; the config classes whose fields are its flags, with the
# fields' defaults; and its own flags.
COMMANDS = {
    "synth": (cmd_synth, (), (SyntheticGraphSpec,), {}),
    "split": (cmd_split, GRAPH, (SplitSpec,), {}),
    "pretrain-gnn": (cmd_pretrain_gnn, SPLIT, (TrainConfig,),
                     {"hidden": 128, "layers": 2, "full_adjacency_eval": False}),
    "pretrain-ggm": (cmd_pretrain_ggm, SPLIT, (GgmTrainConfig, NoiseSpec), {}),
    "flex-tune": (cmd_flex_tune, TUNING, (CotrainConfig, NoiseSpec),
                  {"full_adjacency_eval": False}),
    "eval": (cmd_eval, SPLIT + ("ckpt",), (), {"k": 20, "full_adjacency_eval": False}),
    "analyze": (cmd_analyze, SPLIT + ("samples",), (), {}),
    "sweep": (cmd_sweep, TUNING, (CotrainConfig, NoiseSpec),
              {"full_adjacency_eval": False, "param": "gamma",
               "grid": "0.0,0.25,0.5,0.75,0.9,0.9999", "seeds": "0,1,2"}),
}


def _defaults(paths, classes, own):
    """A command's flags and their defaults: its input paths, the fields of
    its config classes, its own flags, then --out. zero_noise and the nested
    noise are never flags, nor is noise_dim where a ggm checkpoint fixes it."""
    skip = {"zero_noise", "noise", *(["noise_dim"] if "ggm_ckpt" in paths else [])}
    return {**dict.fromkeys(paths),
            **{f.name: f.default for cls in classes for f in fields(cls) if f.name not in skip},
            **own, "out": "out"}


DEFAULTS = {command: _defaults(*spec[1:]) for command, spec in COMMANDS.items()}


def run_stage(command, cfg):
    """The protocol every command shares, in this order: each path flag is
    required (exit 2); each input file must exist as a regular file, checked
    in flag order (exit 3), with the graph loaded once --features passes and
    the split loaded and verified once --split passes; --out is created
    (exit 2 if it cannot be); the handler runs under the clock; then the
    manifest is written and the handler's lines are printed."""
    handler, paths = COMMANDS[command][:2]
    for key in paths:
        if cfg[key] is None:
            raise ConfigError(f"--{key.replace('_', '-')} is required")
    loaded = {}
    for key in paths:
        require_artifact(cfg[key], PRODUCED_BY[key])
        if key == "features":
            loaded["graph"] = load_graph(cfg["edges"], cfg["features"])
        elif key == "split":
            loaded["split"] = load_split(cfg["split"], loaded["graph"])
    try:
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {cfg['out']!r} is not a usable directory: "
                          f"{exc.strerror or exc}")
    t0 = time.perf_counter()
    outputs, metrics, lines = handler(cfg, **loaded)
    write_manifest(cfg["out"], command, cfg, cfg.get("seed", 0),
                   {key: cfg[key] for key in paths}, outputs,
                   time.perf_counter() - t0, metrics=metrics)
    for line in lines:
        print(line)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run_stage(args.command, merge_config(args.command, args))
        return 0
    except CounterlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
