"""Membrane-shortcut residual spiking backbone with one attention block.

Dataflow: stem conv + batch norm -> spiking layer -> dual temporal-channel
attention on the spikes -> residual stages -> spiking layer -> global average
pool -> per-step classifier head, averaged over time.

Residual blocks are pre-activation (spike -> conv -> norm, twice) and their
identity path carries real-valued activations; the only binarization points
are the spiking layers. Activations keep the folded (T*B, C, H, W) layout,
time-major, from the stem to the head: convolutions and batch norm treat the
T*B samples as one batch, which is value-identical to a per-step loop for
those per-sample operations (batch norm is *defined* over the folded T*B
batch), and each spiking layer splits the leading axis into its T steps
itself. Only the attention block, which mixes time and channels, sees
(T, B, C, H, W), and only the per-step logits are unfolded, to be averaged
over time.

A batch norm whose output only a spiking layer reads (the stem's, and each
block's first) runs fused with that layer through ``_spike_layer(..., bn=...)``
as one tape node that keeps no membrane potentials
(:func:`~dtasnn.neuron.batch_norm_lif`). A block's second batch norm feeds
the residual add and stays its own node.

Every layer is a dataclass, and ``named_leaves`` walks their fields: it is the
one source of parameter names, of the optimizer's parameter order and of the
checkpoint's run order (parameters, then batch-norm buffers, in walk order).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import container
from . import tensor as tz
from .attention import TnaParams, TxaParams, dta, uniform_fan_in
from .container import CheckpointError
from .neuron import LifParams, batch_norm_lif, lif_unroll
from .ops import BatchNormState, batch_norm_2d, conv2d, linear
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative backbone description.

    ``stages`` is a tuple of (channels, block_count, stride); strides must be
    1 or 2. ``dta_enabled`` switches the two attention branches independently,
    which is how the ablation sweep builds its variants.
    """

    time_steps: int = 4
    in_channels: int = 3
    stem_channels: int = 16
    stages: tuple = ((16, 1, 1), (32, 1, 2))
    num_classes: int = 10
    dta_enabled: tuple = (True, True)
    lif: LifParams = field(default_factory=LifParams)

    def __post_init__(self):
        for name in ("time_steps", "in_channels", "stem_channels", "num_classes"):
            container.require_int(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.stages:
            raise ValueError("stages must be non-empty")
        for ch, blocks, stride in self.stages:
            for v in (ch, blocks, stride):
                container.require_int("stages entry", v)
            if ch < 1 or blocks < 1:
                raise ValueError(f"stages entry ({ch}, {blocks}, {stride}) has a count below 1")
            if stride not in (1, 2):
                raise ValueError(f"stages stride must be 1 or 2, got {stride}")
        if len(self.dta_enabled) != 2 or not all(isinstance(v, bool) for v in self.dta_enabled):
            raise ValueError(f"dta_enabled must be a pair of bools, got {self.dta_enabled!r}")


def spec_mismatch(a, b) -> str | None:
    """Dotted name of the first field where spec dataclasses *a* and *b* differ, or None."""
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(va):
            sub = spec_mismatch(va, vb)
            if sub is not None:
                return f"{f.name}.{sub}"
        elif va != vb:
            return f.name
    return None


def named_leaves(obj, prefix: str = ""):
    """``(name, leaf)`` for every Tensor and BatchNormState under the dataclass
    *obj*, in field order, named by the dotted field path; the items of a list
    field ``blocks`` are ``block0``, ``block1``, .... Fields are read through
    the instance, so a proxy that delegates attribute reads hides no leaf."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (Tensor, BatchNormState)):
            yield prefix + f.name, value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from named_leaves(item, f"{prefix}{f.name.removesuffix('s')}{i}.")
        elif hasattr(value, "__dataclass_fields__"):  # a sub-layer or a config value
            yield from named_leaves(value, f"{prefix}{f.name}.")


@dataclass(eq=False)
class Conv2dLayer:
    """Bias-free k x k convolution padded by (k-1)/2 (normalization follows
    every conv here)."""

    weight: Tensor  # (Cout, Cin, k, k)
    stride: int

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride,
                      padding=(self.weight.shape[-1] - 1) // 2)


@dataclass(eq=False)
class BatchNorm2dLayer:
    gamma: Tensor
    beta: Tensor
    state: BatchNormState

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm_2d(x, self.gamma, self.beta, self.state, training)


@dataclass(eq=False)
class LinearLayer:
    weight: Tensor  # (n_out, n_in)
    bias: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


def _spike_layer(x: Tensor, p: LifParams, steps: int, bn: BatchNorm2dLayer | None = None,
                 training: bool = False) -> Tensor:
    """Run the spiking dynamics over the *steps* time steps stacked along the
    leading axis of a (T*B, ...) tensor, after the batch norm *bn* when given
    (one fused node, :func:`~dtasnn.neuron.batch_norm_lif`)."""
    if bn is None:
        return lif_unroll(x, p, steps)
    return batch_norm_lif(x, bn.gamma, bn.beta, bn.state, training, p, steps)


@dataclass(eq=False)
class MsBlock:
    """Pre-activation residual block with a membrane (un-spiked) shortcut,
    over (T*B, C, H, W) activations of *steps* time steps."""

    conv1: Conv2dLayer
    bn1: BatchNorm2dLayer
    conv2: Conv2dLayer
    bn2: BatchNorm2dLayer
    downsample: Conv2dLayer | None  # 1x1 projection where the shape changes
    lif: LifParams
    steps: int

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv1(_spike_layer(x, self.lif, self.steps))
        h = _spike_layer(h, self.lif, self.steps, bn=self.bn1, training=training)
        h = self.bn2(self.conv2(h), training)
        identity = x if self.downsample is None else self.downsample(x)
        return h + identity


@dataclass(eq=False)
class Network:
    """A built backbone: its layers, the forward pass, and readers of its leaves."""

    spec: NetworkSpec
    stem_conv: Conv2dLayer
    stem_bn: BatchNorm2dLayer
    txa: TxaParams | None
    tna: TnaParams | None
    blocks: list[MsBlock]
    head: LinearLayer

    def forward(self, x: Tensor, training: bool) -> Tensor:
        """Logits (B, num_classes) from input (T, B, Cin, H, W)."""
        spec = self.spec
        if x.ndim != 5:
            raise ShapeError(f"network input must be (T, B, C, H, W), got {x.shape}")
        if x.shape[0] != spec.time_steps or x.shape[2] != spec.in_channels:
            raise ShapeError(
                f"input {x.shape} does not match spec (T={spec.time_steps}, "
                f"Cin={spec.in_channels})")
        t, b = x.shape[0], x.shape[1]
        # one name, rebound at each stage, so no activation that no backward
        # reads (the stem conv's output, the stem's float spikes, which the
        # gate keeps as bytes) stays alive to the end of the forward
        h = self.stem_conv(tz.reshape(x, (t * b,) + x.shape[2:]))
        h = _spike_layer(h, spec.lif, t, bn=self.stem_bn, training=training)
        folded = h.shape                                            # (T*B, C, H, W)
        h = tz.reshape(dta(tz.reshape(h, (t, b) + folded[1:]), self.txa, self.tna), folded)
        for block in self.blocks:
            h = block(h, training)
        pooled = tz.mean(_spike_layer(h, spec.lif, t), axes=(2, 3))  # (T*B, C)
        logits_steps = tz.reshape(self.head(pooled), (t, b, spec.num_classes))
        return tz.mean(logits_steps, axes=(0,))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in named_leaves(self) if isinstance(t, Tensor)]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters, then each batch norm's running mean, running variance
        and batch count, all in walk order."""
        arrays = [p.values for p in self.parameters()]
        for _, st in named_leaves(self):
            if isinstance(st, BatchNormState):
                arrays += [st.running_mean, st.running_var,
                           np.array([st.batches_tracked], dtype=np.float32)]
        return arrays


def build(spec: NetworkSpec, seed: int) -> Network:
    """Deterministically initialized network; same seed, same bits. The RNG
    draws for the stem conv, T-XA, T-NA, each block's convs, then the head."""
    rng = np.random.default_rng(seed)

    def conv(cin, cout, k, stride=1):
        return Conv2dLayer(uniform_fan_in(rng, (cout, cin, k, k), cin * k * k, np.float32), stride)

    def bn(channels):
        return BatchNorm2dLayer(Tensor(np.ones(channels), requires_grad=True, dtype=np.float32),
                                Tensor(np.zeros(channels), requires_grad=True, dtype=np.float32),
                                BatchNormState(channels))

    t, c = spec.time_steps, spec.stem_channels
    stem_conv = conv(spec.in_channels, c, 3)
    # an absent branch has no parameters, and so does not run
    txa = TxaParams.init(t, c, rng) if spec.dta_enabled[0] else None
    tna = TnaParams.init(t, c, rng) if spec.dta_enabled[1] else None
    blocks, cin = [], c
    for cout, count, first_stride in spec.stages:
        for i in range(count):
            stride = first_stride if i == 0 else 1
            conv1, conv2 = conv(cin, cout, 3, stride), conv(cout, cout, 3)
            downsample = conv(cin, cout, 1, stride) if stride != 1 or cin != cout else None
            blocks.append(MsBlock(conv1, bn(cout), conv2, bn(cout), downsample, spec.lif, t))
            cin = cout
    head = LinearLayer(uniform_fan_in(rng, (spec.num_classes, cin), cin, np.float32),
                       Tensor(np.zeros(spec.num_classes), requires_grad=True, dtype=np.float32))
    return Network(spec, stem_conv, bn(c), txa, tna, blocks, head)


# ---------------------------------------------------------------------------
# checkpoints: the spec as the container header, then one run per state array


def save_checkpoint(path, net: Network) -> None:
    """Write *net* to *path*, replacing any checkpoint there only once complete."""
    container.write(path, asdict(net.spec), net.state_arrays())


def load_checkpoint(path) -> Network:
    """The network of the checkpoint at *path*, or ``CheckpointError`` for any fault in it."""
    header, runs = container.read(path)
    net = build(container.decode(NetworkSpec, header), seed=0)
    got, sizes = [r.size for r in runs], [a.size for a in net.state_arrays()]
    if got != sizes:
        raise CheckpointError(f"{path}: tensor runs of {got} elements, expected {sizes}")
    it = iter(runs)
    for p in net.parameters():
        p.values[...] = next(it).reshape(p.shape).astype(p.dtype)
    for _, st in named_leaves(net):
        if isinstance(st, BatchNormState):
            st.running_mean[...] = next(it).astype(st.dtype)
            st.running_var[...] = next(it).astype(st.dtype)
            st.batches_tracked = int(next(it)[0])
    return net
