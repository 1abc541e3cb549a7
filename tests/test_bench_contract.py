"""The benchmark's tracer patches package functions by name; keep them there.

perfbench/tracer.py and perfbench/workloads.py are loaded by path and not
imported as a package, so this test reads the tracer's TIMED and COUNTED
tables and the spans each workload expects without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("modname,path", tracer.TIMED + tracer.COUNTED,
                         ids=lambda x: str(x))
def test_traced_name_resolves(modname, path):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{tracer.PACKAGE}.{modname}.{path} is gone"
        owner = getattr(owner, attr)
    assert callable(owner)


def test_hooks_name_traced_functions():
    traced = {f"{m}.{p}" for m, p in tracer.TIMED}
    assert set(tracer.HOOKS) <= traced


def test_hook_arguments_are_parameters():
    # A hook reads the hooked call's arguments by name (bound["links"]), so
    # renaming a parameter would break the traced run, not this suite.
    read = set()
    for name, hook in tracer.HOOKS.items():
        modname, path = name.split(".", 1)
        fn = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        for attr in path.split("."):
            fn = getattr(fn, attr)
        params = inspect.signature(fn).parameters
        for arg in re.findall(r'bound\["(\w+)"\]', inspect.getsource(hook)):
            assert arg in params, f"{name} has no parameter {arg!r}"
            read.add(arg)
    assert read == {"links", "split", "path"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_spans_are_timed(name):
    # A span the tracer does not time can never fire, so the traced
    # self-test would fail on it long after the rename that caused it.
    timed = {f"{m}.{p}" for m, p in tracer.TIMED}
    assert set(workloads.WORKLOADS[name].expect) <= timed


# Per workload, a small graph of the same family and the flags that keep its
# stages short: pipeline-cn300 scores few enough pairs for Hits@3, and the
# split-sp1500 graph's shortest-path values fill all three of the workload's
# buckets (below 3, exactly 3, and 4 or more).
SMALL = {
    "pipeline-cn300": (
        ["--family", "sbm", "--n", "40", "--blocks", "2", "--p-in", "0.4",
         "--p-out", "0.05", "--feature-mode", "node-onehot", "--seed", "0"],
        {"pretrain-gnn": ["--eval-k", "3", "--epochs", "2", "--patience", "2"],
         "flex-tune": ["--eval-k", "3"], "eval": ["--k", "3"],
         "sweep": ["--eval-k", "3"]},
    ),
    "split-sp1500": (
        ["--family", "sbm", "--n", "120", "--blocks", "3", "--p-in", "0.1",
         "--p-out", "0.005", "--feature-mode", "degree-onehot:16", "--seed", "1"],
        {},
    ),
}


# Tape records per Adam step of each training stage, which the small graphs
# give as the benchmark's graphs do: they count ops, not blocks or nodes. A
# fused op must replace the ops it fuses one for one or fewer, never more.
RECORDS_PER_STEP = {
    "pipeline-cn300": {"pretrain-gnn": 5, "pretrain-ggm": 67, "flex-tune": 42,
                       "sweep": 42},
    "split-sp1500": {"pretrain-gnn": 5},
}


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    """Per workload, its stages and flags run in-process on the small graph
    under the tracer: the collected trace and each stage's output dir."""
    from counterlink import cli

    done = {}

    def run(workload):
        if workload in done:
            return done[workload]
        tmp_path = tmp_path_factory.mktemp(workload)
        wl = workloads.WORKLOADS[workload]
        graph_flags, small = SMALL[workload]
        synth = tmp_path / "synth"
        assert cli.main(["synth", *graph_flags, "--out", str(synth)]) == 0
        inputs = {"edges": str(synth / "edges.tsv"), "features": str(synth / "features.csv")}
        dirs = {}
        trace = tracer.Tracer()
        trace.install()
        try:
            for stage in wl.stages:
                dirs[stage] = str(tmp_path / workloads.OUT_DIR[stage])
                argv = workloads.stage_argv(wl, stage, 0, inputs, dirs) + small.get(stage, [])
                with trace.stage_span(stage):
                    assert cli.main(argv) == 0, stage
        finally:
            trace.uninstall()
        done[workload] = trace.collect(), dirs
        return done[workload]

    return run


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_pipeline_spans_fire(workload, traced_pipeline):
    # The expected spans are checked against a traced pass only in a
    # --trace 1 benchmark run; this runs the workload's stages and flags
    # in-process on a small graph, so a kernel that stops calling a traced
    # function, or starts calling a forbidden one, fails here too.
    wl = workloads.WORKLOADS[workload]
    collected, _ = traced_pipeline(workload)
    fired = {name for _, name in collected.agg}
    assert set(wl.expect) - fired == set()
    assert [name for name in fired if name.startswith(wl.forbid)] == []
    per_step = {stage: collected.counted("autodiff.Tape.record", stage=stage)
                / collected.layer("autodiff.adam_step", stage)[0]
                for stage in workloads.TRAINING_STAGES if stage in wl.stages}
    assert per_step == RECORDS_PER_STEP[workload]


def test_only_the_split_stage_runs_the_reference_heuristics(traced_pipeline):
    # The split stage re-checks what it generated one pair at a time; the
    # stages that read split.json verify it with the batched heuristics.
    collected, dirs = traced_pipeline("split-sp1500")
    doc = json.loads((Path(dirs["split"]) / "split.json").read_text())
    positives = sum(len(doc["edges"][f"{b}_pos"]) for b in ("train", "valid", "test"))
    brute = {stage: collected.layer("bruteforce.heuristic_brute", stage)[0]
             for stage in workloads.WORKLOADS["split-sp1500"].stages}
    assert brute == {"split": positives, "pretrain-gnn": 0, "eval": 0}
    for stage in ("pretrain-gnn", "eval"):
        assert collected.layer("graphs.shortest_path_length", stage)[0] > 0, stage
