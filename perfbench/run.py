"""counterlink benchmark: one workload, run as one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each pass runs the workload's CLI
stages one after another through `counterlink.cli.main(argv)` in this
process, on inputs generated during set-up from `--seed`, and passes repeat
until `--seconds` would be exceeded. Outputs are checked after every pass.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. Every stage
and every set-up repetition runs between two probes (probe.py), and its
wall time is scaled to the probe's reference speed: `run_ref_s` is the
mean scaled time of a pass over all passes, `setup_s` the median scaled
set-up time. `--trace 1` runs one untraced and at least two traced passes
and reports the per-layer metrics, including the tracing overhead against
the untraced pass. Human-readable lines come first; the last line of
stdout is one JSON object. The exit code is 0 only when every output check
passed. Work files go to `.bench_work/` in the checkout.

Output digests are compared with those recorded in `reference.json` for
the workload's input variant. `--record` adds this run's digests there; use
it only after a change that alters the program's outputs on purpose.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import REFERENCE_S, Probe
from tracer import TIMED, Tracer
from workloads import (
    ARTIFACTS, OUT_DIR, TRAINING_STAGES, VARIANTS, WORKLOADS, eval_checkpoint,
    stage_argv,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GRAPH_STRUCTURE_SEED = "0"
# Outputs computed without floating point, whose bytes are the same on any
# platform; the other digests are compared only on the recorded platform.
PORTABLE = ("edges", "features", "split/split.json")


class SetupError(Exception):
    """A set-up stage failed, so there is nothing to measure."""


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def ratio(num, den):
    return num / den if den else 0.0


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def run_stage(cli, argv, ledger):
    """One CLI call; returns (ok, seconds, captured stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception:  # a traceback is a failed operation, not a crash
        traceback.print_exc()
        rc = "traceback"
    seconds = time.perf_counter() - t0
    return ledger.check(rc == 0, f"{argv[0]} exited with {rc}"), seconds, out.getvalue()


def relabel(src, dst, variant):
    """Write the synth graph with node ids permuted by the input variant."""
    dst.mkdir(parents=True, exist_ok=True)
    rows = (src / "features.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    perm = list(range(len(rows)))
    random.Random(variant).shuffle(perm)
    feats = [""] * len(rows)
    for old, row in enumerate(rows):
        feats[perm[old]] = row
    edges = sorted(
        tuple(sorted((perm[int(u)], perm[int(v)])))
        for u, v in (line.split("\t") for line in
                     (src / "edges.tsv").read_text(encoding="utf-8").splitlines())
    )
    (dst / "features.csv").write_text("".join(feats), encoding="utf-8")
    (dst / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges),
                                   encoding="utf-8")
    return {"edges": str(dst / "edges.tsv"), "features": str(dst / "features.csv")}


def digests(dirs, stages):
    return {f"{OUT_DIR[s]}/{name}": sha256(Path(dirs[s]) / name)
            for s in stages for name in ARTIFACTS[s]}


def check_split(dirs, wl, ledger):
    counts = read_json(Path(dirs["split"]) / "split.manifest.json")["metrics"]["bucket_counts"]
    ledger.check(counts == wl.buckets, f"split buckets {counts}, expected {wl.buckets}")
    return counts


def set_up(wl, variant, work, ledger, probe):
    """Import the package and generate the inputs, between two probes.

    Returns the set-up time at the reference speed.
    """
    before = probe.seconds()
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n == "counterlink" or n.startswith("counterlink.")]:
        del sys.modules[name]
    cli = importlib.import_module("counterlink.cli")
    synth = work / "synth"
    ok, _, _ = run_stage(
        cli, ["synth", *wl.graph, "--seed", GRAPH_STRUCTURE_SEED, "--out", str(synth)], ledger)
    if not ok:
        raise SetupError("synth")
    inputs = relabel(synth, work / "input", variant)
    seconds = time.perf_counter() - t0
    seconds *= REFERENCE_S / ((before + probe.seconds()) / 2)
    return cli, inputs, seconds, {k: sha256(p) for k, p in inputs.items()}


class Pass:
    def __init__(self, kind):
        self.kind = kind
        self.times = {}
        self.probes = []  # probe seconds before each stage and after the last
        self.out = {}
        self.dirs = {}
        self.trace = None
        self.wall = 0.0

    @property
    def run_s(self):
        return sum(self.times.values())

    @property
    def ref_times(self):
        """Stage seconds at the reference speed: each scaled by the probes around it."""
        return {stage: t * REFERENCE_S / ((before + after) / 2)
                for (stage, t), before, after
                in zip(self.times.items(), self.probes, self.probes[1:])}

    @property
    def run_ref_s(self):
        return sum(self.ref_times.values())


def mean_run_ref_s(passes):
    """Reference seconds per pass over all of them: the whole measured time counts."""
    return statistics.fmean(p.run_ref_s for p in passes)


def run_pass(cli, wl, variant, inputs, work, ledger, probe, tracer=None):
    """The workload's timed stages in order, each between two probes;
    traced when a tracer is given."""
    p = Pass("traced" if tracer else "untraced")
    t0 = time.perf_counter()
    base = work / "pass"
    shutil.rmtree(base, ignore_errors=True)
    if tracer:
        tracer.install()
    try:
        for stage in wl.stages:
            p.dirs[stage] = str(base / OUT_DIR[stage])
            argv = stage_argv(wl, stage, variant, inputs, p.dirs)
            p.probes.append(probe.seconds())
            with tracer.stage_span(stage) if tracer else contextlib.nullcontext():
                ok, p.times[stage], p.out[stage] = run_stage(cli, argv, ledger)
            if not ok:
                break
        p.probes.append(probe.seconds())
    finally:
        if tracer:
            tracer.uninstall()
            p.trace = tracer.collect()
    p.wall = time.perf_counter() - t0
    return p


def check_pass(p, wl, reference, ledger):
    """Artifact digests against the reference, eval against training, sweep errors."""
    if len(p.times) < len(wl.stages):
        return {}
    made = digests(p.dirs, wl.stages)
    for name, digest in made.items():
        if name in reference:
            ledger.check(digest == reference[name],
                         f"{p.kind} pass: {name} differs from the reference digest")
    if "eval" in wl.stages:
        source = "flex-tune" if "flex-tune" in p.dirs else "pretrain-gnn"
        trained = read_json(Path(eval_checkpoint(p.dirs)).parent
                            / f"{source}.manifest.json")["metrics"]["test_hits"]
        evaluated = read_json(Path(p.dirs["eval"]) / "eval.manifest.json")["metrics"]
        printed = [line for line in p.out["eval"].splitlines() if " test: " in line]
        expected = f"Hits@{wl.flag('eval', '--k')} test: {trained:.6f}"
        ledger.check(printed == [expected] and evaluated["test_hits"] == trained,
                     f"eval printed {printed}, manifest {evaluated['test_hits']}, "
                     f"{source} recorded {trained}")
    if "sweep" in wl.stages:
        doc = read_json(Path(p.dirs["sweep"]) / "sweep.json")
        for value, points in zip(doc["grid"], doc["per_point"]):
            for err in [None] * len(points) + doc["errors"].get(str(value), []):
                ledger.check(err is None, f"sweep point {value}: {err}")
    return made


# ---------------------------------------------------------------------------
# Metrics


def layer_metrics(pt, wl):
    m = {}
    for modname, path in TIMED:
        name = f"{modname}.{path}"
        m[f"{name}.calls"], m[f"{name}.s"], m[f"{name}.self_s"] = pt.layer(name)
    for stage in OUT_DIR:
        m[f"cli.{stage}.s"] = pt.layer(f"cli.{stage}")[1]
    v, sets = pt.values, pt.sets
    m["graphs.extract.repeat_ratio"] = ratio(
        v.get("graphs.extract.links", 0), len(sets.get("graphs.extract.distinct", ())))
    m["splits.verify_split.per_split"] = ratio(
        m["splits.verify_split.calls"], len(sets.get("splits.verify_split.distinct", ())))
    m["splits.sample_negatives.has_edge_per_negative"] = ratio(
        pt.counted("graphs.Graph.has_edge", inside="splits.sample_negatives"),
        v.get("splits.sample_negatives.returned", 0))
    for stage in TRAINING_STAGES:
        m[f"autodiff.tape_records_per_step.{stage}"] = ratio(
            pt.counted("autodiff.Tape.record", stage=stage),
            pt.layer("autodiff.adam_step", stage)[0])
    m["cotrain.best_epoch"] = ratio(v.get("cotrain.best_epoch.sum", 0),
                                    m["cotrain.flex_tune.calls"])
    m["analysis.run_sweep.parallel_efficiency"] = ratio(
        pt.layer("cotrain.flex_tune", "sweep")[1], wl.threads * m["analysis.run_sweep.s"])
    m["manifest.sha256_file.bytes"] = v.get("manifest.sha256_file.bytes", 0)
    return m


def stage_metrics(passes, wl, work_units):
    """The stage-level figures at the reference speed; means over untraced passes."""
    def mean(stage):
        return statistics.fmean(p.ref_times[stage] for p in passes)

    edges, train = work_units
    out = {}
    if "split" in wl.stages:
        out["split_edges_per_s"] = (edges / mean("split"), "1/s")
    if "pretrain-gnn" in wl.stages:
        out["gnn_links_per_s"] = (
            train * 2 * int(wl.flag("pretrain-gnn", "--epochs")) / mean("pretrain-gnn"), "1/s")
    if "pretrain-ggm" in wl.stages:
        out["ggm_blocks_per_s"] = (
            train * int(wl.flag("pretrain-ggm", "--epochs")) / mean("pretrain-ggm"), "1/s")
    if "flex-tune" in wl.stages:
        out["cotune_blocks_per_s"] = (
            train * 2 * int(wl.flag("flex-tune", "--epochs")) / mean("flex-tune"), "1/s")
    if "eval" in wl.stages:
        out["eval_s"] = (mean("eval"), "s")
    if "sweep" in wl.stages:
        runs = (len(wl.flag("sweep", "--grid").split(","))
                * len(wl.flag("sweep", "--seeds").split(",")))
        out["sweep_runs_per_min"] = (runs * 60.0 / mean("sweep"), "1/min")
    return out


def openblas(name):
    """Call one of OpenBLAS's query functions; None if it cannot be found."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            fn = getattr(dll, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_char_p if name == "get_corename" else ctypes.c_int
                return fn()
    return None


def environment(seed, variant, wl):
    import numpy as np
    from numpy._core import _multiarray_umath

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    core = (openblas("get_corename") or b"?").decode()
    # Floating-point results can differ with the numpy and BLAS builds, the
    # BLAS kernel chosen for the CPU and numpy's SIMD paths.
    features = sorted(k for k, v in _multiarray_umath.__cpu_features__.items() if v)
    cpu = hashlib.sha256(" ".join(features).encode()).hexdigest()[:12]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": openblas("get_num_threads"),
        "COUNTERLINK_THREADS": os.environ["COUNTERLINK_THREADS"],
        "workload": wl.name,
        "seed": seed,
        "variant": variant,
        "platform": f"numpy {np.__version__}; {blas} {core}; cpu features {cpu}",
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD's commit of the checkout; None outside a git work tree."""
    try:
        # The ceiling keeps git from reporting a repository that encloses
        # a checkout which is not one itself.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_reference(wl, variant, env, record, ledger):
    """Digests recorded for this workload and variant, as far as they apply here.

    A recording run replaces the entry, so it compares against none.
    """
    doc = read_json(REFERENCE) if REFERENCE.exists() else {"platform": None, "digests": {}}
    if record:
        return doc, {}
    recorded = doc["digests"].get(wl.name, {}).get(str(variant))
    ledger.check(recorded is not None, f"no digests recorded for {wl.name} variant {variant}")
    recorded = recorded or {}
    if doc["platform"] not in (None, env["platform"]):
        print(f"reference: recorded on '{doc['platform']}'; on this platform only "
              f"{', '.join(PORTABLE)} are compared")
        recorded = {k: v for k, v in recorded.items() if k in PORTABLE}
    return doc, recorded


def save_reference(doc, wl, variant, env, digests_made):
    if doc["digests"] and doc["platform"] != env["platform"]:
        print(f"error: {REFERENCE.name} was recorded on '{doc['platform']}'", file=sys.stderr)
        return False
    doc["platform"] = env["platform"]
    doc["digests"].setdefault(wl.name, {})[str(variant)] = digests_made
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded digests of {wl.name} variant {variant} in {REFERENCE.name}")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"store this run's output digests in {REFERENCE.name}")
    args = parser.parse_args(argv)

    if not (SRC / "counterlink" / "cli.py").is_file():
        print(f"error: no counterlink sources under {SRC}", file=sys.stderr)
        return 2
    spec = read_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    # BLAS is pinned to one thread before numpy loads, so the two-thread
    # sweep stays within two cores (see NOTES.md).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["COUNTERLINK_THREADS"] = str(wl.threads)
    sys.path.insert(0, str(SRC))
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()

    # Set-up, repeated; every repetition must rebuild identical inputs.
    probe = Probe()
    try:
        setups = [set_up(wl, variant, work, ledger, probe)
                  for _ in range(wl.setup_repeats)]
    except SetupError as exc:
        print(f"error: set-up stage {exc} failed", file=sys.stderr)
        return 1
    cli, inputs, _, setup_made = setups[-1]
    for _, _, _, made in setups[:-1]:
        ledger.check(made == setup_made, "set-up outputs differ between repetitions")
    setup_s = statistics.median(s[2] for s in setups)
    print(f"set-up: {len(setups)} repetitions, median {setup_s:.4f} s at reference speed")
    env = environment(args.seed, variant, wl)
    print("env " + json.dumps(env, sort_keys=True))

    # Set-up outputs against the recorded digests; passes against both.
    doc, recorded = load_reference(wl, variant, env, args.record, ledger)
    for name, digest in setup_made.items():
        if name in recorded:
            ledger.check(digest == recorded[name],
                         f"set-up: {name} differs from the digest recorded for variant {variant}")
    reference = {**setup_made, **recorded}

    tracer = Tracer() if args.trace else None
    passes, counts = [], None
    plan = ["untraced", "traced", "traced"] if args.trace else ["untraced"]
    start = time.perf_counter()
    while plan:
        # Start every pass from a collected heap, so when the cyclic
        # collector runs, and with it peak memory, does not depend on
        # what ran before.
        gc.collect()
        p = run_pass(cli, wl, variant, inputs, work, ledger, probe,
                     tracer if plan.pop(0) == "traced" else None)
        passes.append(p)
        reference.update({k: v for k, v in check_pass(p, wl, reference, ledger).items()
                          if k not in reference})
        if "split" in p.times:
            counts = check_split(p.dirs, wl, ledger)
        print(f"pass {len(passes)} {p.kind}: " + ", ".join(
            f"{s} {t:.3f} s" for s, t in p.times.items())
            + f"; total {p.run_s:.3f} s, at reference speed {p.run_ref_s:.3f} s; probes "
            + " ".join(f"{x:.3f}" for x in p.probes))
        if not plan:
            # Another round only if it fits in --seconds at the median pace.
            kinds = ["untraced", "traced"] if args.trace else ["untraced"]
            need = sum(statistics.median(q.wall for q in passes if q.kind == k)
                       for k in kinds)
            if time.perf_counter() - start + need <= args.seconds:
                plan = kinds

    untraced = [p for p in passes if p.kind == "untraced" and len(p.times) == len(wl.stages)]
    traced = [p for p in passes if p.kind == "traced" and len(p.times) == len(wl.stages)]
    ledger.check(bool(untraced) and (not args.trace or len(traced) >= 2),
                 "not every pass completed")
    metrics, stages = {}, {}
    if untraced:
        metrics = {
            "setup_s": setup_s,
            "run_ref_s": mean_run_ref_s(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
        print(f"wall run_s = {statistics.fmean(p.run_s for p in untraced):.6g} s "
              "(mean pass, not scaled)")
        if counts is not None:
            stages = stage_metrics(untraced, wl, (sum(counts.values()), counts["train"]))
            for name, (value, unit) in stages.items():
                print(f"stage {name} = {value:.6g} {unit}")
    if traced and untraced:
        metrics = trace_metrics(traced, metrics["run_ref_s"], wl, ledger)
        write_trace(work, tracer, metrics)

    failed = len(ledger.failures)
    print(f"failed_share = {ratio(failed, ledger.attempted):.6g} "
          f"({failed} of {ledger.attempted} operations)")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in report.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if args.record and not ledger.failures and not save_reference(doc, wl, variant, env, reference):
        return 1
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": failed, "metrics": report}
    (work / "result.json").write_text(json.dumps(
        {"env": env, "result": result, "stages": stages,
         "passes": [{"kind": p.kind, "times": p.times, "probes": p.probes}
                    for p in passes]}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def trace_metrics(traced, untraced_run_ref_s, wl, ledger):
    """Per-layer medians over traced passes, after the tracer's self-tests."""
    layers = [layer_metrics(p.trace, wl) for p in traced]
    for a, b in zip(traced, traced[1:]):
        mi_a, mi_b = a.trace.machine_independent(), b.trace.machine_independent()
        diff = sorted(k for k in set(mi_a) | set(mi_b) if mi_a.get(k) != mi_b.get(k))
        ledger.check(not diff, f"counters differ between traced passes: {diff[:10]}")
    for name in wl.expect:
        ledger.check(all(m[f"{name}.calls"] > 0 for m in layers),
                     f"span {name} never fired on {wl.name}")
    for prefix in wl.forbid:
        fired = [k for k, v in layers[0].items()
                 if k.startswith(prefix) and k.endswith(".calls") and v]
        ledger.check(not fired, f"spans {fired} fired on {wl.name}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["bench.tracing_overhead"] = (
        mean_run_ref_s(traced) / untraced_run_ref_s - 1.0)
    for name in sorted(k for k in metrics if k.endswith(".self_s")):
        if metrics[name] > 0:
            base = name[: -len(".self_s")]
            print(f"layer {base}: {metrics[base + '.s']:.4f} s, self "
                  f"{metrics[name]:.4f} s, {metrics[base + '.calls']:.0f} calls")
    return metrics


def write_trace(work, tracer, metrics):
    """Spans as CSV and every per-layer figure as JSON, written once at the end."""
    with open(work / "spans.csv", "w", encoding="utf-8") as fh:
        fh.write("span_id,parent_id,name,start_s,end_s,run_id,thread\n")
        for span_id, parent, name, start, end, run_id, thread in tracer.spans:
            fh.write(f"{span_id},{parent or ''},{name},{start:.6f},{end:.6f},{run_id},{thread}\n")
    (work / "layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True),
                                      encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
