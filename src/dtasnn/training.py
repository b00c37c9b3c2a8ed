"""SGD-with-momentum training over time-unrolled forwards.

Cross-entropy on time-averaged logits, classical momentum with coupled
weight decay, a per-epoch cosine learning-rate schedule, and JSON-lines
metrics emission. The loop is seed-deterministic: given the same
configuration and data it reproduces the same parameter trajectory.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .network import Network, save_checkpoint
from .tensor import ComputationRecord, Tensor, apply_primitive, backward, zero_grads


class NumericsError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 250
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-5
    lr_min: float = 0.0
    seed: int = 0
    clip: float = 0.0
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # lr0 == lr_min (including both zero) is the degenerate constant-rate run
        if not self.lr0 >= self.lr_min >= 0.0:
            raise ValueError(f"need lr0 >= lr_min >= 0, got {self.lr0} and {self.lr_min}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.clip >= 0.0:
            raise ValueError(f"clip must be >= 0, got {self.clip}")


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float
    lr: float
    wall_seconds: float

    def to_json(self) -> str:
        return json.dumps({"epoch": self.epoch, "split": self.split,
                           "loss": self.loss, "acc": self.accuracy,
                           "lr": self.lr, "sec": self.wall_seconds})


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the labelled class, as one tape node.

    The forward subtracts each row's maximum first: softmax is invariant to
    per-row shifts, so neither the loss nor the gradient changes. The
    gradient is ``(softmax - onehot) / n``, formed as ``softmax = e / sum(e)``
    with ``e = exp(z)`` of the shifted logits ``z``.
    """
    if logits.ndim != 2:
        raise tz.ShapeError(f"cross_entropy expects (B, K) logits, got {logits.shape}")
    n, k = logits.shape
    labels = list(labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} logits rows")
    for lbl in labels:
        if not 0 <= int(lbl) < k:
            raise ValueError(f"label {lbl} out of range [0, {k})")
    lv = logits.values
    z = lv - lv.max(axis=1, keepdims=True)
    e = np.exp(z)
    e_sum = e.sum(axis=1, keepdims=True)
    onehot = np.zeros((n, k), dtype=np.uint8)  # kept by the backward: bytes, not floats
    onehot[np.arange(n), [int(l) for l in labels]] = 1
    loss = -((z - np.log(e_sum)) * onehot).sum(axis=1).mean()

    def bwd(g):
        # the float ops of the backward through log-softmax, picking and
        # averaging as separate steps, so the bits are those of that graph
        g_picked = -g / n * onehot
        return (g_picked + (-g_picked).sum(axis=1, keepdims=True) / e_sum * e,)

    return apply_primitive((logits,), loss, bwd)


def cosine_lr(epoch: int, epochs: int, lr0: float, lr_min: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 to lr_min at the final epoch."""
    if not 0 <= epoch <= epochs:
        raise ValueError(f"epoch {epoch} outside [0, {epochs}]")
    if epochs == 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * epoch / epochs))


def sgd_step(params, velocities, lr: float, momentum: float, weight_decay: float,
             names=None) -> None:
    """v <- momentum*v + grad + wd*param; param <- param - lr*v, in place.

    A missing gradient counts as zero (weight decay still applies). Every
    gradient is checked before any parameter moves: a non-finite one aborts,
    naming its parameter, with all values and velocities left as they were.
    """
    if len(params) != len(velocities):
        raise ValueError(f"{len(params)} params but {len(velocities)} velocity buffers")
    for i, p in enumerate(params):
        g = p.grad
        if g is not None and not np.all(np.isfinite(g)):
            name = names[i] if names else f"param[{i}]"
            raise NumericsError(f"non-finite gradient in {name}: "
                                f"|g|_max={np.abs(g[np.isfinite(g)]).max(initial=0):.3e}, "
                                f"nan={int(np.isnan(g).sum())}, inf={int(np.isinf(g).sum())}")
    for p, v in zip(params, velocities):
        v *= momentum
        v += (0.0 if p.grad is None else p.grad) + weight_decay * p.values
        p.values -= (lr * v).astype(p.dtype, copy=False)


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def stack_batch(samples) -> tuple[Tensor, list[int]]:
    """Batch samples of (T, C, H, W) inputs into a (T, B, C, H, W) tensor."""
    x = np.stack([s.input for s in samples], axis=1)
    return Tensor(x), [s.label for s in samples]


def evaluate(net: Network, samples, batch_size: int, epoch: int = 0,
             lr: float = 0.0) -> MetricsRecord:
    """Eval-mode forward over a sample list; argmax ties go to the lowest class."""
    if not samples:
        raise ValueError("evaluate called with an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    t0 = time.perf_counter()
    total_loss = 0.0
    correct = 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        x, labels = stack_batch(chunk)
        logits = net.forward(x, training=False)
        total_loss += cross_entropy(logits, labels).item() * len(chunk)
        pred = np.argmax(logits.values, axis=1)
        correct += int((pred == np.asarray(labels)).sum())
    n = len(samples)
    return MetricsRecord(epoch=epoch, split="val", loss=total_loss / n,
                         accuracy=correct / n, lr=lr,
                         wall_seconds=time.perf_counter() - t0)


def train(net: Network, train_samples, val_samples, cfg: TrainConfig,
          epoch_transform=None, on_metrics=None) -> list[MetricsRecord]:
    """Full training loop; returns the metrics stream it emitted.

    ``epoch_transform(samples, rng)`` may rebuild the training list each epoch
    (augmentation). ``on_metrics(record)`` is called with each record as it is
    emitted. ``cfg.checkpoint_path`` is written before the first epoch, then
    after each epoch that improves validation accuracy, or, with no
    validation samples, after every epoch. A non-finite loss aborts with the
    last good checkpoint retained.
    """
    if not train_samples:
        raise ValueError("train called with an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = net.parameters()
    names = [n for n, _ in net.named_parameters()]
    velocities = [np.zeros_like(p.values) for p in params]
    metrics: list[MetricsRecord] = []

    def emit(rec: MetricsRecord):
        metrics.append(rec)
        if on_metrics is not None:
            on_metrics(rec)

    if cfg.checkpoint_path:
        save_checkpoint(cfg.checkpoint_path, net)
    best_acc = -1.0

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0, cfg.lr_min)
        samples = list(train_samples)
        if epoch_transform is not None:
            samples = epoch_transform(samples, rng)
        order = rng.permutation(len(samples))
        t0 = time.perf_counter()
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, labels = stack_batch([samples[i] for i in idx])
            zero_grads(params)
            with ComputationRecord():
                logits = net.forward(x, training=True)
                loss = cross_entropy(logits, labels)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise NumericsError(f"non-finite loss {loss_val} at epoch {epoch}")
                backward(loss)
            if cfg.clip > 0.0:
                clip_gradients(params, cfg.clip)
            sgd_step(params, velocities, lr, cfg.momentum, cfg.weight_decay, names)
            epoch_loss += loss_val * len(idx)
            correct += int((np.argmax(logits.values, axis=1) == np.asarray(labels)).sum())
        n = len(order)
        emit(MetricsRecord(epoch=epoch, split="train", loss=epoch_loss / n,
                           accuracy=correct / n, lr=lr,
                           wall_seconds=time.perf_counter() - t0))
        if val_samples:
            rec = evaluate(net, val_samples, cfg.batch_size, epoch=epoch, lr=lr)
            emit(rec)
            if cfg.checkpoint_path and rec.accuracy > best_acc:
                best_acc = rec.accuracy
                save_checkpoint(cfg.checkpoint_path, net)
        elif cfg.checkpoint_path:
            save_checkpoint(cfg.checkpoint_path, net)
    return metrics
