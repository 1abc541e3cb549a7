"""What a training step keeps: the gradients it updates, and nothing after it.

Every training step (pre-training's GCN and auto-encoder steps, co-tuning's
predictor and generator steps) calls backward with the leaves it updates.
These tests run the real training loops with backward, Tape or Adam wrapped,
so they check the loops themselves, not a copy of their steps.
"""

import gc
import math
import tracemalloc
import weakref

import pytest

from counterlink import autodiff as ad
from counterlink.cotrain import CotrainConfig, flex_tune, train_subgraphs
from counterlink.errors import InputError
from counterlink.generator import GgmTrainConfig, pretrain_ggm
from counterlink.gnn import TrainConfig, pretrain_gnn
from test_cotrain import pipeline_fixture


def two_batch_runs(fixture, update_rule="check_mode"):
    """One epoch of each training stage on the fixture, two batches each."""
    g, split, obs, gnn, ggm, spec = fixture
    half = math.ceil(split.train_pos.shape[0] / 2)
    cot = CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3, epochs=1,
                        patience=1, noise=spec, eval_k=3, seed=9, update_rule=update_rule)
    subs = train_subgraphs(obs, split, cot)
    cot = CotrainConfig(**{**cot.__dict__, "batch_size": math.ceil(len(subs) / 2)})
    return {
        "pretrain-gnn": lambda: pretrain_gnn(
            obs, split, TrainConfig(epochs=1, patience=1, lr=1e-2, batch_size=half,
                                    seed=3, eval_k=3), hidden=8, layers=2),
        "pretrain-ggm": lambda: pretrain_ggm(
            obs, split, GgmTrainConfig(epochs=1, patience=1, lr=1e-2, batch_size=half,
                                       seed=3), spec),
        "flex-tune": lambda: flex_tune(gnn, ggm, obs, split, cot, subgraphs=subs),
    }


@pytest.fixture(scope="module")
def fixture():
    return pipeline_fixture()


# The leaves each run's backward calls must ask for, in call order: one step
# per pre-training batch, a predictor then a generator step per co-tuning one.
STEP_LEAVES = {"pretrain-gnn": ["gnn."] * 2, "pretrain-ggm": ["ggm."] * 2,
               "flex-tune": ["gnn.", "ggm."] * 2}


class TestBackwardWrt:
    @pytest.mark.parametrize("update_rule", ["check_mode", "literal_minmax"])
    def test_every_step_asks_for_its_leaves_and_gets_the_full_bytes(
            self, fixture, update_rule, monkeypatch):
        real = ad.backward
        seen = []

        def checked(loss, wrt=None):
            got, full = real(loss, wrt=wrt), real(loss)
            seen.append(({n.split(".")[0] + "." for n in wrt}, all(
                got.of(t).tobytes() == full.of(t).tobytes() for t in wrt.values())))
            return got

        monkeypatch.setattr(ad, "backward", checked)
        for name, run in two_batch_runs(fixture, update_rule).items():
            seen.clear()
            run()
            assert seen == [({prefix}, True) for prefix in STEP_LEAVES[name]], name

    def test_joint_tape_refuses_the_predictor_leaves_to_the_generator_step(self, fixture):
        from test_cotrain import TestSteps

        g, split, obs, gnn, ggm, spec = fixture
        cfg = CotrainConfig(alpha=1.05, gamma=0.5, noise=spec, epochs=1, patience=1)
        _, bundle = TestSteps().make_bundle(cfg, gnn, ggm, split, obs)
        descend = ad.sub(ad.mul(bundle.lp, ad.Tensor(cfg.alpha)), bundle.gen)
        grads = ad.backward(descend, wrt=bundle.ggm_leaves)
        full = ad.backward(descend)
        for t in bundle.ggm_leaves.values():
            assert grads.of(t).tobytes() == full.of(t).tobytes()
        for t in (*bundle.gnn_leaves.values(), bundle.lp, bundle.kl):
            with pytest.raises(InputError):
                grads.of(t)


def step_tapes(monkeypatch):
    """Patch ad.Tape to note, for each tape made, how many earlier ones are
    still alive; returns (the notes, the weak references)."""
    refs, alive_at_birth = [], []

    class Tracked(ad.Tape):
        def __init__(self):
            super().__init__()
            alive_at_birth.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(self))

    monkeypatch.setattr(ad, "Tape", Tracked)
    return alive_at_birth, refs


class TestTapeLifetime:
    def test_no_tape_outlives_its_step(self, fixture, monkeypatch):
        # With the cyclic collector off, a tape is freed only when its
        # reference count drops to zero: a backward closure holding a Tensor
        # (and so its tape) would keep every array of the step alive.
        runs = two_batch_runs(fixture)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, run in runs.items():
                alive_at_birth, refs = step_tapes(monkeypatch)
                run()
                assert len(refs) == (4 if name == "flex-tune" else 2), name
                assert alive_at_birth == [0] * len(refs), name
                assert [r() for r in refs] == [None] * len(refs), name
        finally:
            if enabled:
                gc.enable()


def traced_steps(run, monkeypatch, steps_per_batch):
    """Traced memory above what was traced when run started: the peak up to
    the end of the first batch (its last Adam step), the peak of the whole
    run, and what was held as each step made its tape."""
    real_step, at_step, at_tape = ad.adam_step, [], []

    def stepped(*args):
        out = real_step(*args)
        at_step.append(tracemalloc.get_traced_memory()[1])
        return out

    class Traced(ad.Tape):
        def __init__(self):
            super().__init__()
            at_tape.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(ad, "adam_step", stepped)
    monkeypatch.setattr(ad, "Tape", Traced)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return at_step[steps_per_batch - 1] - base, peak - base, [m - base for m in at_tape]


class TestMemoryGuard:
    @pytest.mark.parametrize("name,steps", [("flex-tune", 2), ("pretrain-ggm", 1)])
    def test_second_batch_does_not_stack_on_the_first(self, fixture, name, steps,
                                                      monkeypatch):
        # tracemalloc counts numpy's buffers exactly, so these bounds do not
        # depend on the machine. A step that kept the previous step's tape,
        # gradients or batch would start with about half the epoch's peak
        # already held; here a step starts with its batch and little else.
        first, epoch, held = traced_steps(two_batch_runs(fixture)[name], monkeypatch, steps)
        assert epoch < 1.5 * first, (first, epoch)
        assert max(held) < 0.25 * epoch, (held, epoch)


def selection_runs(fixture):
    """Each training stage on the fixture for up to 6 epochs with patience 1."""
    g, split, obs, gnn, ggm, spec = fixture
    return {
        "pretrain-gnn": lambda: pretrain_gnn(
            obs, split, TrainConfig(epochs=6, patience=1, lr=1e-2, seed=3, eval_k=3),
            hidden=8, layers=2),
        "pretrain-ggm": lambda: pretrain_ggm(
            obs, split, GgmTrainConfig(epochs=6, patience=1, lr=1e-2, batch_size=0,
                                       seed=3), spec),
        "flex-tune": lambda: flex_tune(
            gnn, ggm, obs, split,
            CotrainConfig(alpha=1.05, gamma=0.5, lr_gnn=1e-3, lr_ggm=1e-3, epochs=6,
                          patience=1, batch_size=16, noise=spec, eval_k=3, seed=9)),
    }


def named(*params):
    return {k: v for p in params for k, v in p.named().items()}


class TestModelSelection:
    @pytest.mark.parametrize("name", ["pretrain-gnn", "pretrain-ggm", "flex-tune"])
    def test_the_run_stops_patience_after_its_best_epoch_and_keeps_that_state(
            self, fixture, name, monkeypatch):
        # The live state is copied after every epoch; the kept one must equal
        # the copy at best_epoch (the pre-trained pair for flex-tune's 0).
        real, live = ad.train_epochs, {0: named(fixture[3], fixture[4])}

        def recorded(epochs, patience, run_epoch, snapshot, *args, **kwargs):
            def run_and_copy(epoch):
                row = run_epoch(epoch)
                state = snapshot()
                live[epoch] = named(*state) if isinstance(state, tuple) else named(state)
                return row
            return real(epochs, patience, run_and_copy, snapshot, *args, **kwargs)

        monkeypatch.setattr(ad, "train_epochs", recorded)
        result = selection_runs(fixture)[name]()
        score, higher = {"pretrain-ggm": ("loss", False)}.get(name, ("valid_hits", True))
        scores = [row[score] for row in result.trace]
        first_best = scores.index(max(scores) if higher else min(scores))
        assert result.trace[first_best]["epoch"] == result.best_epoch
        head = 1 if name == "flex-tune" else 0  # flex-tune's epoch-0 row
        epochs = [row["epoch"] for row in result.trace]
        assert epochs == list(range(1 - head, len(epochs) + 1 - head))
        assert len(result.trace) == min(6, result.best_epoch + 1) + head
        kept = (named(result.gnn, result.ggm) if name == "flex-tune"
                else named(result.params))
        for key, value in live[result.best_epoch].items():
            assert (kept[key] == value).all(), key
