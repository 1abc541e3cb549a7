"""The benchmark's workloads: CLI stages, their flags, and what each must show.

Every workload generates its graph with `counterlink synth` at structure
seed 0 (the graphs the notes' baselines describe), then relabels the nodes
with a permutation drawn from the input variant, `seed % VARIANTS`, and
passes the variant to every stage as its `--seed`. The seed therefore
changes every input file and every random stream of the pipeline, but not
the graph's shape, so the amount of work per pass and the split's bucket
sizes stay the same across seeds, and run-to-run spread measures the
machine, not the input size (see NOTES.md, "Why relabel"). The digests of
every variant's outputs are recorded in `reference.json`, so every seed is
checked against a recorded result.

Every training stage runs with `--patience` equal to `--epochs`, so early
stopping cannot change the amount of work. Why each workload exists and
which layers it stresses is in NOTES.md.
"""

import os
from dataclasses import dataclass

# Output directory of each stage, and the files whose digests must repeat.
OUT_DIR = {
    "split": "split",
    "pretrain-gnn": "gnn",
    "pretrain-ggm": "ggm",
    "flex-tune": "tuned",
    "eval": "eval",
    "analyze": "analysis",
    "sweep": "sweep",
}
ARTIFACTS = {
    "split": ("split.json",),
    "pretrain-gnn": ("gnn.ckpt",),
    "pretrain-ggm": ("ggm.ckpt",),
    "flex-tune": ("gnn_tuned.ckpt", "ggm_tuned.ckpt", "samples.json"),
    "eval": ("eval.csv",),
    "analyze": ("analysis.json",),
    "sweep": ("sweep.json",),
}
TRAINING_STAGES = ("pretrain-gnn", "pretrain-ggm", "flex-tune", "sweep")
VARIANTS = 10

# Split bucket sizes of the structure-seed-0 graphs; relabelling keeps them.
CN300_BUCKETS = {"train": 978, "valid": 741, "test": 631}
SP1500_BUCKETS = {"train": 8523, "valid": 2935, "test": 582}

CN300 = ("--family", "sbm", "--n", "300", "--blocks", "2", "--p-in", "0.1",
         "--p-out", "0.004", "--feature-mode", "node-onehot")
# Ten blocks of 150 nodes: the cn300 block density, and about 1.1 expected
# neighbours outside a node's own block, as in a 3000-node, 20-block graph
# at p_out 0.0004.
SP1500 = ("--family", "sbm", "--n", "1500", "--blocks", "10", "--p-in", "0.1",
          "--p-out", "0.00085", "--feature-mode", "degree-onehot:16")

# Spans every workload fires: loading, verification, manifests, streams.
COMMON_SPANS = (
    "graphs.load_graph", "splits.load_split", "splits.verify_split",
    "bruteforce.heuristic_brute", "autodiff.load_checkpoint",
    "gnn.gcn_forward", "gnn.evaluate_hits", "graphs.Csr.matmul_dense",
    "manifest.write_manifest", "manifest.sha256_file", "rng.stream_rng",
    "splits.generate_split", "splits.sample_negatives", "autodiff.backward",
    "autodiff.adam_step", "autodiff.save_checkpoint",
)


@dataclass(frozen=True)
class Workload:
    name: str
    graph: tuple  # synth flags
    buckets: dict  # split bucket sizes every run must reproduce
    stages: tuple  # timed stages, in order
    flags: dict  # stage -> flags
    threads: int  # COUNTERLINK_THREADS
    setup_repeats: int  # set-up runs per benchmark run; setup_s is their median
    expect: tuple  # spans that must fire in a traced pass
    forbid: tuple  # span name prefixes that must not fire

    def flag(self, stage, name):
        """The value given to one flag of one stage."""
        flags = self.flags[stage]
        return flags[flags.index(name) + 1]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="pipeline-cn300",
            graph=CN300,
            buckets=CN300_BUCKETS,
            stages=("split", "pretrain-gnn", "pretrain-ggm", "flex-tune",
                    "eval", "analyze", "sweep"),
            flags={
                "split": ("--heuristic", "CN", "--direction", "backward",
                          "--t1", "2", "--t2", "1"),
                "pretrain-gnn": ("--hidden", "32", "--epochs", "50", "--patience", "50"),
                "pretrain-ggm": ("--batch-size", "64", "--epochs", "1", "--patience", "1"),
                "flex-tune": ("--gamma", "0.9", "--epochs", "1", "--patience", "1"),
                "eval": ("--k", "20"),
                "analyze": (),
                # Two co-tuning runs, one per sweep thread.
                "sweep": ("--param", "gamma", "--grid", "0.5,0.9", "--seeds", "0",
                          "--epochs", "1", "--patience", "1"),
            },
            threads=2,
            setup_repeats=15,
            expect=COMMON_SPANS + (
                "graphs.extract_for_links", "graphs.make_batch",
                "graphs.LabeledSubgraphBatch.block_diag_csr",
                "graphs.common_neighbors", "gnn.normalize_dense_adjacency",
                "generator.encode_semi_implicit", "generator.reparameterize",
                "generator.decode_logits", "generator.recon_loss",
                "generator.kl_gaussian", "generator.sivi_elbo",
                "generator.generate", "generator.decode_node_aware",
                "generator.threshold_edges", "generator.dump_samples",
                "cotrain.cotrain_losses", "cotrain.gnn_step", "cotrain.ggm_step",
                "cotrain.resolve_tau", "cotrain.generate_samples",
                "cotrain.flex_tune", "analysis.cn_distribution",
                "analysis.link_heuristic_histogram", "analysis.degree_bias_scan",
                "analysis.run_sweep",
            ),
            forbid=("graphs.shortest_path_length",),
        ),
        Workload(
            name="split-sp1500",
            graph=SP1500,
            buckets=SP1500_BUCKETS,
            stages=("split", "pretrain-gnn", "eval"),
            flags={
                "split": ("--heuristic", "SP", "--direction", "forward",
                          "--t1", "3", "--t2", "4"),
                "pretrain-gnn": ("--hidden", "32", "--epochs", "5", "--patience", "5"),
                "eval": ("--k", "20"),
            },
            threads=1,
            setup_repeats=9,
            expect=COMMON_SPANS + ("graphs.shortest_path_length",),
            forbid=("generator.", "cotrain.", "analysis.",
                    "graphs.extract_for_links"),
        ),
    )
}


def stage_argv(wl, stage, variant, inputs, dirs):
    """argv for one stage; `dirs` maps each stage already run to its output dir."""
    argv = [stage, "--edges", inputs["edges"], "--features", inputs["features"]]
    if stage != "split":
        argv += ["--split", os.path.join(dirs["split"], "split.json")]
    if stage in ("flex-tune", "sweep"):
        argv += ["--gnn-ckpt", os.path.join(dirs["pretrain-gnn"], "gnn.ckpt"),
                 "--ggm-ckpt", os.path.join(dirs["pretrain-ggm"], "ggm.ckpt")]
    if stage == "eval":
        argv += ["--ckpt", eval_checkpoint(dirs)]
    if stage == "analyze":
        argv += ["--samples", os.path.join(dirs["flex-tune"], "samples.json")]
    if stage in ("split",) + TRAINING_STAGES:
        argv += ["--seed", str(variant)]
    return argv + list(wl.flags[stage]) + ["--out", dirs[stage]]


def eval_checkpoint(dirs):
    if "flex-tune" in dirs:
        return os.path.join(dirs["flex-tune"], "gnn_tuned.ckpt")
    return os.path.join(dirs["pretrain-gnn"], "gnn.ckpt")
