"""Loss, optimizer, schedule, evaluation, and end-to-end loop behavior."""

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dtasnn import training
from dtasnn.config import load_config
from dtasnn.data import SynthSpec, gen_synthetic
from dtasnn.gradcheck import CHECK_NAMES, run_suite
from dtasnn.network import NetworkSpec, build, load_checkpoint, named_leaves
from dtasnn.neuron import LifParams
from dtasnn.ops import BatchNormState
from dtasnn.training import (MetricsRecord, NumericsError, TrainConfig,
                             clip_gradients, cosine_lr, cross_entropy, evaluate,
                             sgd_step, stack_batch, train)
from dtasnn.tensor import ComputationRecord, Tensor, backward

import tapes
from oracles import cross_entropy_ref, fd_grad

TINY_NET = NetworkSpec(time_steps=4, in_channels=2, stem_channels=4,
                       stages=((4, 1, 1),), num_classes=2,
                       lif=LifParams())
TINY_DATA = SynthSpec(classes=2, time_steps=4, channels=2, height=6, width=6, seed=5)
# CIFAR's input shape, 3x32x32, on a narrow backbone
CIFAR_NET = NetworkSpec(time_steps=2, in_channels=3, stem_channels=8,
                        stages=((8, 1, 1), (16, 1, 2)), num_classes=10, lif=LifParams())
CIFAR_DATA = SynthSpec(classes=10, time_steps=2, channels=3, height=32, width=32, seed=7)
DESK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.cfg")


def test_desk_step_keeps_every_gradient_float32():
    # one float64 scalar in a backward rule promotes every gradient upstream
    cfg = load_config(DESK_CFG)
    net = build(cfg.network_spec(), seed=0)
    x, labels = stack_batch(gen_synthetic(cfg.synth_spec(0), 8))
    with ComputationRecord():
        backward(cross_entropy(net.forward(x, training=True), labels))
    dtypes = {n: None if p.grad is None else p.grad.dtype for n, p in net.named_parameters()}
    assert {n: d for n, d in dtypes.items() if d != np.float32} == {}


def one_step_inputs(model):
    """A built network and one batch (input, labels) of the desk or cifar spec."""
    if model == "desk":
        cfg = load_config(DESK_CFG)
        spec, data, batch = cfg.network_spec(), cfg.synth_spec(0), cfg.batch_size
    else:
        spec, data, batch = CIFAR_NET, CIFAR_DATA, 4
    return build(spec, seed=0), *stack_batch(gen_synthetic(data, batch))


@pytest.mark.parametrize("model", ["desk", "cifar"])
def test_tape_keeps_only_what_a_backward_reads(monkeypatch, model):
    # with the cyclic GC off, an output outlives the forward only if a
    # backward closure names its memory or the caller holds it
    net, x, labels = one_step_inputs(model)
    outputs, holders = [], []

    def watch(out, backward_fn):
        outputs.append(weakref.ref(out.values))
        if any(isinstance(v, Tensor) for v in tapes.closure_values(backward_fn)):
            holders.append(backward_fn.__qualname__)

    tapes.watch_outputs(monkeypatch, watch)
    gc.disable()
    try:
        with ComputationRecord() as rec:
            logits = net.forward(x, training=True)
            loss = cross_entropy(logits, labels)
            named = {id(tapes.owner(a))
                     for a in tapes.tape_arrays(rec) + [logits.values, loss.values]}
            alive = [a for a in (r() for r in outputs) if a is not None]
            stray = [a.shape for a in alive if id(tapes.owner(a)) not in named]
            backward(loss)
    finally:
        gc.enable()
    assert stray == [] and holders == []
    assert len(outputs) > 40 and len(alive) < len(outputs)


@pytest.mark.parametrize("model", ["desk", "cifar"])
def test_forward_frees_stem_activations_before_the_head(monkeypatch, model):
    # no backward reads the stem conv's output or the stem's float spikes (the
    # gate keeps them as bytes), so neither may live on to the head
    net, x, labels = one_step_inputs(model)
    first, alive_at_head = {}, {}

    def watch(out, backward_fn):
        name = backward_fn.__qualname__.split(".")[0]
        if name == "linear":
            alive_at_head.update({n: ref() is not None for n, ref in first.items()})
        if name in ("conv2d", "batch_norm_lif"):
            first.setdefault(name, weakref.ref(out.values))

    tapes.watch_outputs(monkeypatch, watch)
    gc.disable()
    try:
        with ComputationRecord():
            backward(cross_entropy(net.forward(x, training=True), labels))
    finally:
        gc.enable()
    assert alive_at_head == {"conv2d": False, "batch_norm_lif": False}


@pytest.mark.parametrize("model", ["desk", "cifar"])
def test_tape_keeps_no_binary_float_array(model):
    # spikes, the data batch and every copy or grid made of them are kept
    # as bytes; parameters are not the tape's to pack
    net, x, labels = one_step_inputs(model)
    params = {id(tapes.owner(p.values)) for p in net.parameters()}
    with ComputationRecord() as rec:
        loss = cross_entropy(net.forward(x, training=True), labels)
        kept = [a for a in tapes.tape_arrays(rec) if id(tapes.owner(a)) not in params]
        backward(loss)
    binary = [a.shape for a in kept
              if a.dtype.kind == "f" and np.all((a == 0) | (a == 1))]
    assert binary == []
    assert any(a.dtype == np.uint8 and a.ndim == 4 for a in kept)


# tape bytes of one training step, parameters excluded: the fused batch-norm
# and spiking nodes keep no potentials, and depth-wise convs no band matrices
# (before them: 16326024 and 6025328)
@pytest.mark.parametrize("model,limit", [("desk", 14212464), ("cifar", 4583512)])
def test_step_tape_bytes_pinned(model, limit):
    net, x, labels = one_step_inputs(model)
    with ComputationRecord() as rec:
        loss = cross_entropy(net.forward(x, training=True), labels)
        held = tapes.tape_bytes(rec, net.parameters())
        backward(loss)
    assert held <= limit


def test_no_gradcheck_entry_keeps_a_tensor_in_its_backward(monkeypatch):
    # a closure that needs an input's shape captures the shape, not the Tensor
    holders = set()

    def watch(out, backward_fn):
        if any(isinstance(v, Tensor) for v in tapes.closure_values(backward_fn)):
            holders.add(backward_fn.__qualname__)

    tapes.watch_outputs(monkeypatch, watch)
    results = run_suite()
    assert tuple(r.name for r in results) == CHECK_NAMES
    assert holders == set()


# Eight training steps of the desk model (configs/synthetic.cfg, B=64) in a
# fresh process, whose allocator holds no earlier test's heap; prints the
# minor page faults of each step as a JSON list.
_FAULT_PROBE = """
import json, resource, sys
import numpy as np
from dtasnn.config import load_config
from dtasnn.data import gen_synthetic
from dtasnn.network import build
from dtasnn.tensor import ComputationRecord, backward, zero_grads
from dtasnn.training import cross_entropy, sgd_step, stack_batch

cfg = load_config(sys.argv[1])
net = build(cfg.network_spec(), seed=0)
params = net.parameters()
names = [n for n, _ in net.named_parameters()]
velocities = [np.zeros_like(p.values) for p in params]
x, labels = stack_batch(gen_synthetic(cfg.synth_spec(0), 64))
faults = []
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    zero_grads(params)
    with ComputationRecord():
        backward(cross_entropy(net.forward(x, training=True), labels))
    sgd_step(params, velocities, 0.05, 0.9, 5e-5, names)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_steady_state_training_steps_fault_in_no_fresh_pages():
    # a step frees its tape during its backward; with glibc's default
    # thresholds those pages go back to the kernel and every later step
    # faults thousands back in, against none once the heap keeps them
    src = os.path.dirname(os.path.dirname(os.path.abspath(training.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE, DESK_CFG], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    assert len(faults) == 8
    assert statistics.median(faults[2:]) < 500, faults


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        assert cross_entropy(logits, [0, 3, 5, 9]).item() == pytest.approx(
            math.log(10.0), rel=1e-6)

    def test_saturated_logit(self):
        logits = np.zeros((1, 4), dtype=np.float32)
        logits[0, 2] = 1000.0
        assert cross_entropy(Tensor(logits), [2]).item() == pytest.approx(0.0, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0])

    def test_grad_matches_fd(self, rng):
        lv = rng.standard_normal((3, 4))
        labels = [0, 2, 1]
        logits = Tensor(lv, requires_grad=True, dtype=np.float64)
        with ComputationRecord():
            backward(cross_entropy(logits, labels))
        num = fd_grad(lambda v: float(cross_entropy(
            Tensor(v, dtype=np.float64), labels).item()), lv, h=1e-5)
        np.testing.assert_allclose(logits.grad, num, atol=1e-8)

    def test_grad_is_softmax_minus_onehot(self, rng):
        lv = rng.standard_normal((2, 3))
        logits = Tensor(lv, requires_grad=True, dtype=np.float64)
        with ComputationRecord():
            backward(cross_entropy(logits, [1, 0]))
        e = np.exp(lv - lv.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        soft[0, 1] -= 1.0
        soft[1, 0] -= 1.0
        np.testing.assert_allclose(logits.grad, soft / 2.0, rtol=1e-10)


    @pytest.mark.parametrize("n,k", [(64, 2), (16, 10), (3, 4), (1, 5), (4, 1)])
    def test_float64_matches_log_softmax_oracle(self, rng, n, k):
        lv = rng.standard_normal((n, k)) * 3.0
        labels = [int(v) for v in rng.integers(0, k, n)]
        logits = Tensor(lv, requires_grad=True, dtype=np.float64)
        with ComputationRecord() as rec:
            loss = cross_entropy(logits, labels)
            recorded = len(rec.nodes)
            backward(loss)
        assert recorded == 1
        want_loss, want_grad = cross_entropy_ref(lv, labels)
        assert loss.item() == pytest.approx(want_loss, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(logits.grad, want_grad, rtol=1e-10, atol=1e-15)


class TestSgd:
    def _param(self, values):
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        return t

    def test_vanilla_update(self):
        p = self._param([1.0, 2.0])
        p.grad = np.array([0.5, -1.0])
        v = [np.zeros(2)]
        sgd_step([p], v, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.values, [0.95, 2.1])

    def test_no_grad_no_velocity_no_motion(self):
        p = self._param([1.0, -1.0])
        p.grad = np.zeros(2)
        sgd_step([p], [np.zeros(2)], lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.values, [1.0, -1.0])

    def test_two_steps_constant_grad_displacement(self):
        # v1 = g, v2 = (1+m) g: total displacement is lr*g*(2+m)
        lr, m, g = 0.1, 0.9, 0.7
        p = self._param([0.0])
        v = [np.zeros(1)]
        for _ in range(2):
            p.grad = np.array([g])
            sgd_step([p], v, lr=lr, momentum=m, weight_decay=0.0)
        assert p.values[0] == pytest.approx(-lr * g * (2 + m), rel=1e-12)

    def test_nonfinite_gradient_named(self):
        p = self._param([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericsError, match="stem.weight"):
            sgd_step([p], [np.zeros(1)], lr=0.1, momentum=0.9, weight_decay=0.0,
                     names=["stem.weight"])

    def test_nonfinite_gradient_moves_no_parameter(self):
        # the bad gradient is the last one, after two good ones
        params = [self._param([1.0, 2.0]), self._param([3.0]), self._param([4.0])]
        params[0].grad, params[1].grad = np.array([0.5, -1.0]), np.array([2.0])
        params[2].grad = np.array([np.nan])
        velocities = [np.array([0.1, 0.2]), np.array([0.3]), np.array([0.4])]
        values_before = [p.values.tobytes() for p in params]
        velocities_before = [v.tobytes() for v in velocities]
        with pytest.raises(NumericsError, match="param\\[2\\]"):
            sgd_step(params, velocities, lr=0.1, momentum=0.9, weight_decay=0.01)
        assert [p.values.tobytes() for p in params] == values_before
        assert [v.tobytes() for v in velocities] == velocities_before

    def test_weight_decay_shrinks_norms_monotonically(self):
        p = self._param(np.ones(4) * 3.0)
        v = [np.zeros(4)]
        norms = [np.linalg.norm(p.values)]
        for _ in range(10):
            p.grad = None  # zero data gradient
            sgd_step([p], v, lr=0.1, momentum=0.9, weight_decay=0.1)
            norms.append(np.linalg.norm(p.values))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_clip_rescales_global_norm(self):
        a, b = self._param([3.0]), self._param([4.0])
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_gradients([a, b], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(float(a.grad[0] ** 2 + b.grad[0] ** 2))
        assert total == pytest.approx(1.0)


class TestCosine:
    def test_boundaries_and_midpoint(self):
        assert cosine_lr(0, 100, 0.1, 0.0) == pytest.approx(0.1)
        assert cosine_lr(100, 100, 0.1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(50, 100, 0.1, 0.0) == pytest.approx(0.05)

    def test_monotone_non_increasing(self):
        lrs = [cosine_lr(e, 250, 0.1, 1e-4) for e in range(251)]
        assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1, 0.0)


class TestEvaluate:
    def test_constant_logits_tie_to_lowest_class(self):
        net = build(TINY_NET, seed=0)
        for _, st in named_leaves(net):
            if isinstance(st, BatchNormState):
                st.batches_tracked = 1
        net.head.weight.values[...] = 0.0
        net.head.bias.values[...] = 0.0
        samples = gen_synthetic(TINY_DATA, 40)
        rec = evaluate(net, samples, batch_size=8)
        class0 = sum(1 for s in samples if s.label == 0) / len(samples)
        assert rec.accuracy == pytest.approx(class0)

    def test_perfect_oracle_network(self):
        # bias-only head cannot be perfect, so cheat by scoring each sample
        # against a label-revealing logit pattern through a stub
        class Stub:
            def forward(self, x, training):
                labels = x.values[0, :, 0, 0, 0] * 0  # shape (B,)
                b = x.shape[1]
                logits = np.zeros((b, 2), dtype=np.float32)
                logits[np.arange(b), self._labels] = 10.0
                return Tensor(logits)

        stub = Stub()
        samples = gen_synthetic(TINY_DATA, 20)
        stub._labels = np.array([s.label for s in samples[:20]])

        # run in one batch so the stub's label table aligns
        rec = evaluate(stub, samples, batch_size=20)
        assert rec.accuracy == 1.0

    def test_metrics_invariant_to_batch_size(self):
        net = build(TINY_NET, seed=1)
        samples = gen_synthetic(TINY_DATA, 30)
        cfg = TrainConfig(batch_size=8, epochs=1, lr0=0.05, seed=0)
        train(net, samples, [], cfg)
        recs = [evaluate(net, samples, batch_size=b) for b in (1, 7, 30)]
        for r in recs[1:]:
            assert r.accuracy == recs[0].accuracy
            assert r.loss == pytest.approx(recs[0].loss, rel=1e-5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(build(TINY_NET, seed=0), [], batch_size=4)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_bitwise_unchanged(self):
        net = build(TINY_NET, seed=0)
        before = [p.values.copy() for p in net.parameters()]
        samples = gen_synthetic(TINY_DATA, 16)
        cfg = TrainConfig(batch_size=8, epochs=2, lr0=0.0, lr_min=0.0,
                          weight_decay=0.0, seed=0)
        train(net, samples, [], cfg)
        for a, b in zip(before, net.parameters()):
            np.testing.assert_array_equal(a, b.values)

    def test_single_sample_overfit(self):
        net = build(TINY_NET, seed=2)
        sample = gen_synthetic(TINY_DATA, 2)[:1]
        cfg = TrainConfig(batch_size=1, epochs=200, lr0=0.05,
                          weight_decay=0.0, seed=0)
        metrics = train(net, sample, [], cfg)
        losses = [m.loss for m in metrics if m.split == "train"]
        assert min(losses) < 0.01
        # loss non-increasing in at least 45 of the first 50 steps
        drops = sum(1 for a, b in zip(losses[:50], losses[1:51]) if b <= a + 1e-9)
        assert drops >= 45

    def test_seeded_determinism_of_metric_stream(self):
        def run():
            net = build(TINY_NET, seed=3)
            samples = gen_synthetic(TINY_DATA, 24)
            heldout = gen_synthetic(replace(TINY_DATA, seed=6), 12)
            cfg = TrainConfig(batch_size=8, epochs=3, lr0=0.05, seed=9)
            return [(m.epoch, m.split, m.loss, m.accuracy, m.lr)
                    for m in train(net, samples, heldout, cfg)]

        assert run() == run()

    def test_freeing_tapes_leaves_parameters_bitwise_unchanged(self, monkeypatch, tmp_path):
        desk = load_config(DESK_CFG)
        # (spec, data, training samples, batch size, epochs)
        cases = [(TINY_NET, TINY_DATA, 12, 4, 2),
                 (desk.network_spec(), desk.synth_spec(0), 128, 64, 1),
                 (CIFAR_NET, CIFAR_DATA, 8, 4, 1)]

        def run(tag):
            runs = []
            for i, (spec, data, n, batch, epochs) in enumerate(cases):
                net = build(spec, seed=4)
                ckpt = tmp_path / f"{tag}{i}.dtasnn"
                cfg = TrainConfig(batch_size=batch, epochs=epochs, lr0=0.05, seed=1,
                                  checkpoint_path=str(ckpt))
                val = gen_synthetic(replace(data, seed=data.seed + 1), batch)
                metrics = train(net, gen_synthetic(data, n), val, cfg)
                runs.append((ckpt.read_bytes(), [p.values.tobytes() for p in net.parameters()],
                             [replace(m, wall_seconds=0.0) for m in metrics]))
            return runs

        freed = run("freed")
        kept, steps = [], []

        def keep_output(out, backward_fn):
            if out.rec is not None:
                kept.append(out)

        def backward_keeping_tape(loss):
            kept.append(list(loss.rec.nodes))
            backward(loss)

        def sgd_step_ending_the_step(*args, **kwargs):
            try:
                sgd_step(*args, **kwargs)
            finally:
                steps.append(len(kept))
                kept.clear()

        # every output and every node of a step stay alive until the step
        # ends, as when the engine freed nothing early
        tapes.watch_outputs(monkeypatch, keep_output)
        monkeypatch.setattr(training, "backward", backward_keeping_tape)
        monkeypatch.setattr(training, "sgd_step", sgd_step_ending_the_step)
        held = run("held")
        assert len(steps) == 6 + 2 + 2 and min(steps) > 20
        for (ckpt_a, params_a, metrics_a), (ckpt_b, params_b, metrics_b) in zip(freed, held):
            assert ckpt_a == ckpt_b
            assert params_a == params_b
            assert metrics_a == metrics_b

    # abort: False runs to the end; True raises on a non-finite gradient
    # after backward (in sgd_step); "loss" raises on a non-finite loss
    # inside the record's block, before backward runs
    @pytest.mark.parametrize("abort", [False, True, "loss"])
    def test_last_step_tape_freed_when_train_returns(self, monkeypatch, abort):
        net = build(TINY_NET, seed=4)
        params = {id(p.values) for p in net.parameters()}
        step = {"rec": None, "outputs": []}
        taped = []

        def watch_step_outputs(out, backward_fn):
            if out.rec is None:  # evaluate, not a training step
                return
            if step["rec"] is None or step["rec"]() is not out.rec:
                step["rec"], step["outputs"] = weakref.ref(out.rec), []
            step["outputs"].append(weakref.ref(out.values))

        def cross_entropy_watching_tape(logits, labels):
            loss = cross_entropy(logits, labels)
            if loss.rec is not None:  # a training step, not evaluate
                # every array the closures name but the parameters, which
                # the network holds
                taped[:] = [weakref.ref(a) for a in tapes.tape_arrays(loss.rec)
                            if id(tapes.owner(a)) not in params]
            return loss

        def backward_then_poison(loss):
            backward(loss)
            net.head.weight.grad[0, 0] = np.inf

        tapes.watch_outputs(monkeypatch, watch_step_outputs)
        monkeypatch.setattr(training, "cross_entropy", cross_entropy_watching_tape)
        if abort is True:
            monkeypatch.setattr(training, "backward", backward_then_poison)
        elif abort == "loss":
            net.head.bias.values[0] = np.inf
        cfg = TrainConfig(batch_size=4, epochs=1, lr0=0.05, seed=1)
        # with the cyclic GC off, only the engine's own freeing releases a tape
        gc.disable()
        try:
            if abort:
                with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
                    train(net, gen_synthetic(TINY_DATA, 8), [], cfg)
            else:
                train(net, gen_synthetic(TINY_DATA, 8), gen_synthetic(TINY_DATA, 4), cfg)
            outputs = step["outputs"]
            alive = [r for r in taped + outputs if r() is not None]
        finally:
            gc.enable()
        assert taped and outputs and not alive, \
            f"{len(alive)} of {len(taped)} tape arrays and {len(outputs)} outputs alive"

    def test_nonfinite_loss_aborts_keeping_last_checkpoint(self, tmp_path):
        net = build(TINY_NET, seed=0)
        samples = gen_synthetic(TINY_DATA, 8)
        ckpt = tmp_path / "ckpt.dtasnn"
        cfg = TrainConfig(batch_size=4, epochs=2, lr0=0.05, seed=0,
                          checkpoint_path=str(ckpt))
        net.stem_conv.weight.values[0, 0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            train(net, samples, samples, cfg)
        # the initial checkpoint written before the first step is intact
        loaded = load_checkpoint(ckpt)
        assert loaded.spec == net.spec

    def test_without_validation_checkpoint_holds_trained_network(self, tmp_path):
        net = build(TINY_NET, seed=0)
        ckpt = tmp_path / "ckpt.dtasnn"
        cfg = TrainConfig(batch_size=4, epochs=2, lr0=0.05, seed=0,
                          checkpoint_path=str(ckpt))
        train(net, gen_synthetic(TINY_DATA, 8), [], cfg)
        saved = load_checkpoint(ckpt).state_arrays()
        assert len(saved) == len(net.state_arrays())
        for a, b in zip(saved, net.state_arrays()):
            np.testing.assert_array_equal(a, b)
        untrained = build(TINY_NET, seed=0).state_arrays()
        assert any(not np.array_equal(a, b) for a, b in zip(saved, untrained))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(build(TINY_NET, seed=0), [], [], TrainConfig(epochs=1))

    def test_negative_epochs_rejected(self):
        assert TrainConfig(epochs=0).epochs == 0
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)

    def test_metrics_json_schema(self):
        rec = MetricsRecord(epoch=3, split="val", loss=0.5, accuracy=0.75,
                            lr=0.01, wall_seconds=1.25)
        import json
        parsed = json.loads(rec.to_json())
        assert parsed == {"epoch": 3, "split": "val", "loss": 0.5, "acc": 0.75,
                          "lr": 0.01, "sec": 1.25}
