"""Span tracer that wraps counterlink's public functions from outside.

Nothing in the package is edited: `Tracer.install` replaces each traced
function with a timing wrapper in every module that holds a reference to it,
because `from .x import f` binds a copy of `f` in the importing module and
patching only the defining module would miss those calls. Methods are
patched on their class. `uninstall` restores every original.

Spans (id, parent id, name, start, end, run id, thread) and counters live in
memory per thread and are merged by `collect`, which also starts a new
collection period, so one tracer can compare two passes of a workload.
"""

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
import time

# Timed functions: (module, attribute path). Each gets `.s` (inclusive
# seconds), `.self_s` (inclusive minus traced children on the same thread)
# and `.calls`.
TIMED = (
    ("graphs", "extract_for_links"),
    ("graphs", "make_batch"),
    ("graphs", "LabeledSubgraphBatch.block_diag_csr"),
    ("graphs", "shortest_path_length"),
    ("graphs", "common_neighbors"),
    ("graphs", "load_graph"),
    ("graphs", "Csr.matmul_dense"),
    ("bruteforce", "heuristic_brute"),
    ("splits", "generate_split"),
    ("splits", "verify_split"),
    ("splits", "load_split"),
    ("splits", "sample_negatives"),
    ("autodiff", "backward"),
    ("autodiff", "adam_step"),
    ("autodiff", "save_checkpoint"),
    ("autodiff", "load_checkpoint"),
    ("gnn", "gcn_forward"),
    ("gnn", "normalize_dense_adjacency"),
    ("gnn", "evaluate_hits"),
    ("generator", "encode_semi_implicit"),
    ("generator", "reparameterize"),
    ("generator", "decode_logits"),
    ("generator", "recon_loss"),
    ("generator", "kl_gaussian"),
    ("generator", "sivi_elbo"),
    ("generator", "generate"),
    ("generator", "decode_node_aware"),
    ("generator", "threshold_edges"),
    ("generator", "dump_samples"),
    ("cotrain", "cotrain_losses"),
    ("cotrain", "gnn_step"),
    ("cotrain", "ggm_step"),
    ("cotrain", "resolve_tau"),
    ("cotrain", "generate_samples"),
    ("cotrain", "flex_tune"),
    ("analysis", "cn_distribution"),
    ("analysis", "link_heuristic_histogram"),
    ("analysis", "degree_bias_scan"),
    ("analysis", "run_sweep"),
    ("manifest", "write_manifest"),
    ("manifest", "sha256_file"),
    ("rng", "stream_rng"),
)

# Hot methods that are only counted, keyed by (stage, innermost span, name),
# because a span each would cost more than the work they do.
COUNTED = (
    ("graphs", "Graph.has_edge"),
    ("autodiff", "Tape.record"),
)


def _hook_extract(tracer, bound, result):
    links = [(min(e.u, e.v), max(e.u, e.v)) for e in bound["links"]]
    tracer.add("graphs.extract.links", len(links))
    tracer.remember("graphs.extract.distinct", links)


def _hook_verify(tracer, bound, result):
    split = bound["split"]
    key = hash(tuple(split.pos(b).tobytes() for b in ("train", "valid", "test")))
    tracer.remember("splits.verify_split.distinct", [key])


def _hook_negatives(tracer, bound, result):
    tracer.add("splits.sample_negatives.returned", len(result))


def _hook_sha(tracer, bound, result):
    tracer.add("manifest.sha256_file.bytes", os.path.getsize(bound["path"]))


def _hook_flex(tracer, bound, result):
    tracer.add("cotrain.best_epoch.sum", result.best_epoch)


HOOKS = {
    "graphs.extract_for_links": _hook_extract,
    "splits.verify_split": _hook_verify,
    "splits.sample_negatives": _hook_negatives,
    "manifest.sha256_file": _hook_sha,
    "cotrain.flex_tune": _hook_flex,
}


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []  # frames: [name, start, child seconds, span id, parent id]
        self.spans = []
        self.agg = {}  # (stage, name) -> [calls, inclusive s, self s]
        self.counts = {}  # (stage, innermost span, name) -> calls
        self.values = {}  # name -> number
        self.sets = {}  # name -> set


class PassTrace:
    """Merged trace of one collection period."""

    def __init__(self, states):
        self.agg, self.counts, self.values, self.sets = {}, {}, {}, {}
        for st in states:
            for key, (calls, incl, self_s) in st.agg.items():
                a = self.agg.setdefault(key, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += incl
                a[2] += self_s
            for key, n in st.counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
            for key, n in st.values.items():
                self.values[key] = self.values.get(key, 0) + n
            for key, s in st.sets.items():
                self.sets.setdefault(key, set()).update(s)

    def layer(self, name, stage=None):
        """(calls, inclusive s, self s) of one span name, over all stages or one."""
        out = [0, 0.0, 0.0]
        for (st, nm), a in self.agg.items():
            if nm == name and (stage is None or st == stage):
                out = [x + y for x, y in zip(out, a)]
        return out

    def counted(self, name, stage=None, inside=None):
        return sum(
            n for (st, top, nm), n in self.counts.items()
            if nm == name and (stage is None or st == stage)
            and (inside is None or top == inside)
        )

    def machine_independent(self):
        """Every count that must repeat exactly when the same pass reruns.

        The hashed byte count is left out: the gnn and ggm trace CSVs that
        manifests hash carry wall-clock seconds, whose printed width varies.
        """
        out = {f"{st}/{nm}.calls": a[0] for (st, nm), a in self.agg.items()}
        out.update({"/".join(k): n for k, n in self.counts.items()})
        out.update({k: n for k, n in self.values.items()
                    if k != "manifest.sha256_file.bytes"})
        out.update({f"{k}.size": len(s) for k, s in self.sets.items()})
        return out


PACKAGE = "counterlink"


class Tracer:
    def __init__(self):
        self.runs = 0
        self.run_id = ""
        self.stage = ""
        self._stage_span = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._patches = []
        self.spans = []
        self.t0 = time.perf_counter()

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def add(self, name, amount):
        values = self._state().values
        values[name] = values.get(name, 0) + amount

    def remember(self, name, items):
        self._state().sets.setdefault(name, set()).update(items)

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        st = self._state()
        parent = st.stack[-1][3] if st.stack else self._stage_span
        frame = [name, 0.0, 0.0, next(self._ids), parent]
        st.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        st = self._state()
        st.stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        if st.stack:
            st.stack[-1][2] += dur
        a = st.agg.get((self.stage, name))
        if a is None:
            a = st.agg[(self.stage, name)] = [0, 0.0, 0.0]
        a[0] += 1
        a[2] += dur - child
        # Inclusive time counts only the outermost of nested same-name spans.
        if not any(f[0] == name for f in st.stack):
            a[1] += dur
        st.spans.append((span_id, parent, name, start - self.t0, end - self.t0,
                         self.run_id, st.ident))

    @contextlib.contextmanager
    def stage_span(self, stage):
        """One CLI stage; spans that start on other threads nest under it."""
        self.stage = stage
        frame = self.enter(f"cli.{stage}")
        self._stage_span = frame[3]
        try:
            yield
        finally:
            self.exit(frame)
            self._stage_span = None
            self.stage = ""

    def collect(self):
        """Merge and reset every thread's counters; keep the spans."""
        with self._lock:
            states, self._states = self._states, []
        self._local = threading.local()
        for st in states:
            self.spans.extend(st.spans)
        return PassTrace(states)

    # -- patching ------------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st = tracer._state()
            key = (tracer.stage, st.stack[-1][0] if st.stack else "", name)
            st.counts[key] = st.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function; spans until `uninstall` share one run id."""
        self.runs += 1
        self.run_id = f"run{self.runs}"
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for modname, path in table:
                owner = sys.modules[f"{PACKAGE}.{modname}"]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                wrapper = make(f"{modname}.{path}", original)
                if classes:
                    self._set(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._set(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
