"""Training benchmark for dtasnn: workloads, timed rounds and correctness gates.

A round does what ``dtasnn train`` does for one epoch: ``build`` a network
from the seed, ``training.train`` it with a validation set and a checkpoint
path, then load the checkpoint back with ``load_checkpoint`` and compare its
eval logits with the in-memory network's. Every round starts from the same
seed, so every round must report the same losses and train the same network.
After each round, ``evaluate`` runs over the test set a fixed number of times,
so the eval passes are spread over the whole run, as the training rounds are:
the host's speed drifts over tens of seconds, and passes kept to one part of
the run would measure only that part. After the rounds, more eval passes run
until the run's time is used up.

Import this module only after BLAS has been pinned to one thread and the
checkout's ``src`` is on ``sys.path``; ``run.py`` does both.
"""

from __future__ import annotations

import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from dtasnn import data, network, training
from dtasnn.tensor import ComputationRecord, backward

from spans import LAYERS, RecordCounter, Tracer, median

SETUP_REPS = 3          # setup_s is the median of this many data generations and builds


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration: synthetic data shape, network and run size."""

    name: str
    classes: int
    channels: int
    size: int              # input height and width
    time_steps: int
    stem: int
    stages: tuple
    dta: bool              # both attention branches on or off
    batch: int
    train_samples: int     # one epoch per round
    test_samples: int      # validation set inside train, and the eval phase
    rounds: int            # fixed, so losses and peak RSS compare across commits
    eval_passes: int       # evaluate calls after each round; fixed, so the
                           # cyclic GC runs at the same points in every run

    def net_spec(self) -> network.NetworkSpec:
        return network.NetworkSpec(
            time_steps=self.time_steps, in_channels=self.channels,
            stem_channels=self.stem, stages=self.stages,
            num_classes=self.classes, dta_enabled=(self.dta, self.dta))

    def synth_spec(self, seed: int) -> data.SynthSpec:
        return data.SynthSpec(classes=self.classes, time_steps=self.time_steps,
                              channels=self.channels, height=self.size,
                              width=self.size, seed=seed)

    def train_config(self, seed: int, checkpoint_path: str) -> training.TrainConfig:
        # the optimizer settings of configs/synthetic.cfg, one epoch per round
        return training.TrainConfig(batch_size=self.batch, epochs=1, lr0=0.1,
                                    weight_decay=5e-5, seed=seed,
                                    checkpoint_path=checkpoint_path)

    def steps_per_round(self) -> int:
        return math.ceil(self.train_samples / self.batch)

    def eval_batches(self) -> int:
        return math.ceil(self.test_samples / self.batch)


DESK = dict(classes=2, channels=2, size=8, time_steps=6, stem=8,
            stages=((8, 1, 1), (16, 1, 2)), batch=64, train_samples=512,
            test_samples=256)

WORKLOADS = {
    "desk-train": Workload(name="desk-train", dta=True, rounds=6, eval_passes=4, **DESK),
    # Each cifar-train step leaves ~0.6 GB of tape that the cyclic GC frees
    # late, so the taped step count (warm-up included) stays at seven.
    "cifar-train": Workload(name="cifar-train", classes=10, channels=3, size=32,
                            time_steps=4, stem=16, stages=((32, 1, 1), (64, 1, 2)),
                            dta=True, batch=16, train_samples=32, test_samples=32,
                            rounds=3, eval_passes=3),
    "desk-nodta": Workload(name="desk-nodta", dta=False, rounds=12, eval_passes=6, **DESK),
}


@dataclass
class Inputs:
    train_set: list
    test_set: list
    fixed_x: object        # first test batch, for the checkpoint logit check


@dataclass
class Round:
    train_samples_per_s: float
    losses: list           # (split, loss, accuracy) of every metrics record
    train_loss: float
    net: object


@dataclass
class Outcome:
    """Counts of attempted and failed operations plus gate messages."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def op(self, count: int, ok: bool, message: str = "") -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(message)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def make_inputs(w: Workload, seed: int) -> Inputs:
    train_set = data.gen_synthetic(w.synth_spec(seed), w.train_samples)
    test_set = data.gen_synthetic(w.synth_spec(seed + 1), w.test_samples)
    x, _ = training.stack_batch(test_set[:w.batch])
    return Inputs(train_set, test_set, x)


def warm_up(net, inputs: Inputs, batch: int) -> float:
    """One taped training step without the parameter update; returns its loss."""
    x, labels = training.stack_batch(inputs.train_set[:batch])
    with ComputationRecord():
        loss = training.cross_entropy(net.forward(x, training=True), labels)
        backward(loss)
    return loss.item()


def setup(w: Workload, seed: int, outcome: Outcome) -> tuple[Inputs, float]:
    """Data generation and build, SETUP_REPS times, then one warm-up step.

    Returns the inputs and the set-up time: the median of the repetitions plus
    the warm-up. The warm-up is not repeated, because each taped cifar-train
    step holds ~0.6 GB until the cyclic GC frees it.
    """
    times, runs = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = make_inputs(w, seed)
        net = network.build(w.net_spec(), seed)
        times.append(time.perf_counter() - t0)
        runs.append((inputs, [a.tobytes() for a in net.state_arrays()]))
    t0 = time.perf_counter()
    loss = warm_up(net, inputs, w.batch)
    warm_s = time.perf_counter() - t0
    first, first_state = runs[0]
    outcome.gate(all(same_samples(first.train_set, i.train_set)
                     and same_samples(first.test_set, i.test_set) and state == first_state
                     for i, state in runs[1:]),
                 "setup with one seed gave different data or networks")
    outcome.gate(math.isfinite(loss), f"warm-up loss {loss}")
    return inputs, median(times) + warm_s


def same_samples(a, b) -> bool:
    return len(a) == len(b) and all(
        s.label == t.label and s.input.tobytes() == t.input.tobytes() for s, t in zip(a, b))


def state_bits(net, inputs: Inputs) -> bytes:
    """Parameters, batch-norm buffers and eval logits on the fixed batch."""
    logits = net.forward(inputs.fixed_x, training=False).values
    return b"".join(a.tobytes() for a in net.state_arrays() + [logits])


def run_round(w: Workload, seed: int, inputs: Inputs, ckpt: str, outcome: Outcome,
              tracer: Tracer | None = None) -> Round | None:
    """Build, train one epoch with validation and checkpointing, round-trip the
    checkpoint. Returns None when training raised."""
    net = network.build(w.net_spec(), seed)
    if tracer is not None:
        tracer.attach(net)
    steps = w.steps_per_round() + w.eval_batches()
    try:
        t0 = time.perf_counter()
        records = training.train(net, inputs.train_set, inputs.test_set,
                                 w.train_config(seed, ckpt))
        wall = time.perf_counter() - t0
    except Exception:  # a failed round is counted, and the run goes on
        outcome.op(steps, False, "train raised:\n" + traceback.format_exc())
        return None
    losses = [(r.split, r.loss, r.accuracy) for r in records]
    finite = all(math.isfinite(loss) for _, loss, _ in losses)
    outcome.op(steps, finite, f"non-finite loss in {losses}")
    val_seconds = sum(r.wall_seconds for r in records if r.split == "val")
    try:
        loaded = network.load_checkpoint(ckpt)
        same = state_bits(loaded, inputs) == state_bits(net, inputs)
        message = "the loaded checkpoint's state or logits differ from the trained network's"
    except Exception:
        same, message = False, "checkpoint round trip raised:\n" + traceback.format_exc()
    outcome.op(1, same, message)
    return Round(train_samples_per_s=len(inputs.train_set) / (wall - val_seconds),
                 losses=losses, net=net,
                 train_loss=[loss for split, loss, _ in losses if split == "train"][-1])


def eval_phase(w: Workload, net, inputs: Inputs, passes: int, outcome: Outcome,
               deadline: float = 0.0) -> list[tuple[float, float]]:
    """Evaluate the test set *passes* times, then until *deadline*; returns
    (samples/s, loss) per pass."""
    results = []
    while len(results) < passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            rec = training.evaluate(net, inputs.test_set, w.batch)
        except Exception:
            outcome.op(w.eval_batches(), False, "evaluate raised:\n" + traceback.format_exc())
            break
        results.append((len(inputs.test_set) / (time.perf_counter() - t0), rec.loss))
        outcome.op(w.eval_batches(), math.isfinite(rec.loss), f"eval loss {rec.loss}")
    return results


def check_evals(results: list, outcome: Outcome) -> None:
    losses = {loss for _, loss in results}
    outcome.gate(len(losses) <= 1, f"eval passes of one run disagree: {losses}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_rounds(rounds: list, outcome: Outcome, what: str) -> None:
    done = [r for r in rounds if r is not None]
    outcome.gate(len({repr(r.losses) for r in done}) <= 1,
                 f"{what}: rounds with one seed report different losses")


def run_untraced(w: Workload, seed: int, seconds: float, inputs: Inputs,
                 ckpt: str, outcome: Outcome) -> dict:
    """Timed rounds, each followed by its eval passes, then eval passes until
    the run's time is used up; returns the end-to-end figures."""
    start = time.perf_counter()
    rounds, evals = [], []
    for _ in range(w.rounds):
        r = run_round(w, seed, inputs, ckpt, outcome)
        rounds.append(r)
        if r is not None:
            evals += eval_phase(w, r.net, inputs, w.eval_passes, outcome)
    # before the last passes, whose number depends on the machine's speed
    peak = peak_rss_mb()
    check_rounds(rounds, outcome, "untraced")
    done = [r for r in rounds if r is not None]
    if not done:
        return {}
    evals += eval_phase(w, done[-1].net, inputs, 0, outcome, start + seconds)
    check_evals(evals, outcome)
    return {
        "train_samples_per_s": median([r.train_samples_per_s for r in done]),
        "eval_samples_per_s": median([rate for rate, _ in evals]),
        "peak_rss_mb": peak,
        "train_loss_end": done[-1].train_loss,
    }


def run_traced(w: Workload, seed: int, seconds: float, inputs: Inputs, ckpt: str,
               outcome: Outcome) -> tuple[dict, Tracer]:
    """Untraced and traced rounds in turn, then a traced eval phase; returns
    the per-layer figures.

    ``tensor.records_alive`` is counted in the untraced rounds, where only the
    record counter is installed: the objects the tracer allocates change when
    the cyclic GC runs, and so how many dead records a traced round leaves.
    """
    start = time.perf_counter()
    tracer, counter = Tracer(), RecordCounter()
    plain, traced = [], []
    for i in range(max(2, w.rounds)):
        if i % 2 == 0:
            with counter:
                plain.append(run_round(w, seed, inputs, ckpt, outcome))
            counter.count()
        else:
            with tracer:
                traced.append(run_round(w, seed, inputs, ckpt, outcome, tracer))
    done_traced = [r for r in traced if r is not None]
    with tracer:
        regenerated = data.gen_synthetic(w.synth_spec(seed), w.train_samples)
        if done_traced:
            check_evals(eval_phase(w, done_traced[-1].net, inputs, w.eval_passes,
                                   outcome, start + seconds), outcome)
    outcome.gate(same_samples(regenerated, inputs.train_set),
                 "traced data generation differs from setup")
    check_rounds(plain + traced, outcome, "traced against untraced")
    done_plain = [r for r in plain if r is not None]
    if not (done_plain and done_traced):
        return {}, tracer
    outcome.gate(all(a.values.tobytes() == b.values.tobytes() for a, b in zip(
        done_plain[-1].net.parameters(), done_traced[-1].net.parameters())),
        "traced training changed the parameters")
    overhead = (median([r.train_samples_per_s for r in done_plain])
                / median([r.train_samples_per_s for r in done_traced]))
    return layer_metrics(tracer, overhead, os.path.getsize(ckpt), max(counter.alive)), tracer


def not_run(w: Workload) -> set:
    """Per-layer metrics of the layers *w* never runs; only these may be n/a.

    With both DTA branches off, ``dta`` checks its input and returns it
    without recording a tape node, so the branches and the conv1d they call
    never run, and ``dta`` has no backward time or tape bytes.
    """
    if w.dta:
        return set()
    skipped = ("attention.t_xa.", "attention.t_na.", "attention.ltca.",
               "attention.gtca.", "ops.conv1d.")
    return {n for n in layer_metric_units() if n.startswith(skipped)} | {
        "attention.dta.bwd_ms", "attention.dta.tape_mb"}


# per-layer metric name -> unit; the order is the order of the printed table
def layer_metric_units() -> dict:
    units = {
        "training.step_ms.p50": "ms", "training.step_ms.p90": "ms",
        "training.steps": "count",
        "training.forward_ms": "ms", "training.backward_ms": "ms",
        "training.cross_entropy_ms": "ms", "training.stack_batch_ms": "ms",
        "training.evaluate_ms": "ms", "training.sgd_step_ms": "ms",
        "tensor.tape_nodes": "count", "tensor.tape_mb": "MB",
        "tensor.records_alive": "count",
    }
    for op in ("conv2d", "conv1d", "linear", "batch_norm_2d"):
        units.update({f"ops.{op}.calls": "count", f"ops.{op}.fwd_ms": "ms",
                      f"ops.{op}.bwd_ms": "ms", f"ops.{op}.tape_mb": "MB"})
    units.update({"neuron.lif_unroll.fwd_ms": "ms", "neuron.lif_unroll.bwd_ms": "ms",
                  "neuron.lif_unroll.tape_nodes": "count",
                  "neuron.lif_unroll.tape_mb": "MB", "neuron.firing_rate": "ratio"})
    for part in ("dta", "t_xa", "t_na", "ltca", "gtca"):
        units.update({f"attention.{part}.fwd_ms": "ms", f"attention.{part}.bwd_ms": "ms",
                      f"attention.{part}.tape_mb": "MB"})
    units.update({"network.stem.fwd_ms": "ms", "network.stem.bwd_ms": "ms"})
    for block in ("block0", "block1"):
        units.update({f"network.{block}.fwd_ms": "ms", f"network.{block}.bwd_ms": "ms",
                      f"network.{block}.tape_mb": "MB"})
    units.update({"network.head.fwd_ms": "ms", "network.head.bwd_ms": "ms",
                  "network.save_checkpoint_ms": "ms", "network.load_checkpoint_ms": "ms",
                  "network.checkpoint_bytes": "bytes"})
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({"data.gen_synthetic_ms": "ms", "trace.overhead_ratio": "ratio"})
    return units


# metric -> span whose time per step it reports
_SPAN_OF = {
    "training.forward_ms": "network.forward", "training.backward_ms": "tensor.backward",
    "training.cross_entropy_ms": "training.cross_entropy",
    "training.stack_batch_ms": "training.stack_batch",
    "training.sgd_step_ms": "training.sgd_step",
}


def layer_metrics(tracer: Tracer, overhead: float, checkpoint_bytes: int,
                  records_alive: int) -> dict:
    """Medians over traced training steps of every per-layer metric; a metric
    whose layer never ran in a step (attention with DTA off) is None."""
    steps = list(tracer.per_step().values())
    step_ms = [s["step_ms"] for s in steps]

    def per_step(kind, key):
        if not any(key in s[kind] for s in steps):
            return None
        return median([s[kind].get(key, 0.0) for s in steps])

    out = {
        "training.step_ms.p50": median(step_ms),
        "training.step_ms.p90": float(np.percentile(step_ms, 90)) if step_ms else None,
        "training.steps": len(steps),
        "training.evaluate_ms": median(tracer.durations_ms("training.evaluate")),
        "tensor.tape_nodes": per_step("tape_nodes", "tensor"),
        "tensor.tape_mb": per_step("tape_mb", "tensor"),
        "tensor.records_alive": records_alive,
        "neuron.firing_rate": (tracer.spike_sum / tracer.spike_count
                               if tracer.spike_count else None),
        "network.save_checkpoint_ms": median(tracer.durations_ms("network.save_checkpoint")),
        "network.load_checkpoint_ms": median(tracer.durations_ms("network.load_checkpoint")),
        "network.checkpoint_bytes": checkpoint_bytes,
        "data.gen_synthetic_ms": median(tracer.durations_ms("data.gen_synthetic")),
        "trace.overhead_ratio": overhead,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_step("self", layer)
    kinds = {"calls": "calls", "fwd_ms": "fwd", "bwd_ms": "bwd",
             "tape_mb": "tape_mb", "tape_nodes": "tape_nodes"}
    for name in layer_metric_units():
        if name in out:
            continue
        prefix, _, suffix = name.rpartition(".")
        if name in _SPAN_OF:
            out[name] = per_step("fwd", _SPAN_OF[name])
        else:
            out[name] = per_step(kinds[suffix], prefix)
    return out


def end_to_end_units() -> dict:
    return {"setup_s": "s", "train_samples_per_s": "samples/s",
            "eval_samples_per_s": "samples/s", "peak_rss_mb": "MB",
            "train_loss_end": "nats"}


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
    }
