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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from . import tensor as tz
from .attention import TnaParams, TxaParams, dta, named_tensors
from .neuron import LifParams, lif_unroll
from .ops import BatchNormState, batch_norm_2d, conv2d, linear
from .tensor import ShapeError, Tensor


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint container."""


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
        if self.time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.in_channels < 1 or self.stem_channels < 1 or self.num_classes < 1:
            raise ValueError("channel and class counts must be positive")
        if not self.stages:
            raise ValueError("stages must be non-empty")
        for ch, blocks, stride in self.stages:
            for v in (ch, blocks, stride):
                container.require_int("stages entry", v)
            if ch < 1 or blocks < 1:
                raise ValueError(f"invalid stage ({ch}, {blocks}, {stride})")
            if stride not in (1, 2):
                raise ValueError(f"stage stride must be 1 or 2, got {stride}")
        if len(self.dta_enabled) != 2 or not all(isinstance(v, bool) for v in self.dta_enabled):
            raise ValueError(f"dta_enabled must be a pair of bools, got {self.dta_enabled!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        lif = d.get("lif", {})
        return cls(
            time_steps=d["time_steps"],
            in_channels=d["in_channels"],
            stem_channels=d["stem_channels"],
            stages=tuple(tuple(s) for s in d["stages"]),
            num_classes=d["num_classes"],
            dta_enabled=tuple(d["dta_enabled"]),
            lif=LifParams(tau=lif["tau"], v_th=lif["v_th"], alpha=lif["alpha"],
                          reset_detached=lif["reset_detached"]),
        )


def spec_mismatch(a: NetworkSpec, b: NetworkSpec) -> str | None:
    """Name of the first differing field, or None when compatible."""
    da, db = asdict(a), asdict(b)
    for key in da:
        if key == "lif":
            for sub in da["lif"]:
                if da["lif"][sub] != db["lif"][sub]:
                    return f"lif.{sub}"
        elif da[key] != db[key]:
            return key
    return None


class Conv2dLayer:
    """Bias-free k x k convolution padded by (k-1)/2 (normalization follows
    every conv here)."""

    def __init__(self, rng, cin, cout, k, stride=1):
        self.stride = stride
        self.padding = (k - 1) // 2
        bound = 1.0 / np.sqrt(cin * k * k)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(cout, cin, k, k)),
                             requires_grad=True, dtype=np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)

    def named_parameters(self, prefix):
        return [(f"{prefix}.weight", self.weight)]


class BatchNorm2dLayer:
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=np.float32)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=np.float32)
        self.state = BatchNormState(channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm_2d(x, self.gamma, self.beta, self.state, training)

    def named_parameters(self, prefix):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


class LinearLayer:
    def __init__(self, rng, n_in, n_out):
        bound = 1.0 / np.sqrt(n_in)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(n_out, n_in)),
                             requires_grad=True, dtype=np.float32)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True, dtype=np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self, prefix):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


def _spike_layer(x: Tensor, p: LifParams, steps: int) -> Tensor:
    """Run the spiking dynamics over the *steps* time steps stacked along the
    leading axis of a (T*B, ...) tensor."""
    return lif_unroll(x, p, steps)


class MsBlock:
    """Pre-activation residual block with a membrane (un-spiked) shortcut,
    over (T*B, C, H, W) activations of *steps* time steps."""

    def __init__(self, rng, cin, cout, stride, lif: LifParams, steps: int):
        self.lif = lif
        self.steps = steps
        self.conv1 = Conv2dLayer(rng, cin, cout, 3, stride=stride)
        self.bn1 = BatchNorm2dLayer(cout)
        self.conv2 = Conv2dLayer(rng, cout, cout, 3)
        self.bn2 = BatchNorm2dLayer(cout)
        self.downsample = None
        if stride != 1 or cin != cout:
            self.downsample = Conv2dLayer(rng, cin, cout, 1, stride=stride)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = self.bn1(self.conv1(_spike_layer(x, self.lif, self.steps)), training)
        h = self.bn2(self.conv2(_spike_layer(h, self.lif, self.steps)), training)
        identity = x if self.downsample is None else self.downsample(x)
        return h + identity

    def named_parameters(self, prefix):
        out = (self.conv1.named_parameters(f"{prefix}.conv1")
               + self.bn1.named_parameters(f"{prefix}.bn1")
               + self.conv2.named_parameters(f"{prefix}.conv2")
               + self.bn2.named_parameters(f"{prefix}.bn2"))
        if self.downsample is not None:
            out += self.downsample.named_parameters(f"{prefix}.downsample")
        return out

    def bn_layers(self):
        return [self.bn1, self.bn2]


class Network:
    """A built backbone: layers, parameters, and the forward pass."""

    def __init__(self, spec: NetworkSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(seed)
        lif = spec.lif
        self.stem_conv = Conv2dLayer(rng, spec.in_channels, spec.stem_channels, 3)
        self.stem_bn = BatchNorm2dLayer(spec.stem_channels)

        # an absent branch has no parameters, and so does not run
        enable_txa, enable_tna = spec.dta_enabled
        t, c = spec.time_steps, spec.stem_channels
        self.txa = TxaParams.init(t, c, rng) if enable_txa else None
        self.tna = TnaParams.init(t, c, rng) if enable_tna else None

        self.blocks: list[MsBlock] = []
        cin = spec.stem_channels
        for ch, count, stride in spec.stages:
            for i in range(count):
                self.blocks.append(MsBlock(rng, cin, ch, stride if i == 0 else 1, lif, t))
                cin = ch
        self.head = LinearLayer(rng, cin, spec.num_classes)

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
        h = self.stem_bn(self.stem_conv(tz.reshape(x, (t * b,) + x.shape[2:])), training)
        spikes = _spike_layer(h, spec.lif, t)                     # (T*B, C, H, W)
        a = dta(tz.reshape(spikes, (t, b) + spikes.shape[1:]), self.txa, self.tna)
        a = tz.reshape(a, spikes.shape)
        for block in self.blocks:
            a = block(a, training)
        pooled = tz.mean(_spike_layer(a, spec.lif, t), axes=(2, 3))  # (T*B, C)
        logits_steps = tz.reshape(self.head(pooled), (t, b, spec.num_classes))
        return tz.mean(logits_steps, axes=(0,))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = (self.stem_conv.named_parameters("stem_conv")
               + self.stem_bn.named_parameters("stem_bn"))
        for prefix, params in (("txa", self.txa), ("tna", self.tna)):
            if params is not None:
                out += [(f"{prefix}.{n}", t) for n, t in named_tensors(params)]
        for i, block in enumerate(self.blocks):
            out += block.named_parameters(f"block{i}")
        out += self.head.named_parameters("head")
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def bn_layers(self) -> list[BatchNorm2dLayer]:
        out = [self.stem_bn]
        for block in self.blocks:
            out += block.bn_layers()
        return out

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters plus batch-norm buffers, in declaration order."""
        arrays = [p.values for p in self.parameters()]
        for bn in self.bn_layers():
            st = bn.state
            arrays += [st.running_mean, st.running_var,
                       np.array([st.batches_tracked], dtype=np.float32)]
        return arrays


def build(spec: NetworkSpec, seed: int) -> Network:
    """Deterministically initialized network; same seed, same bits."""
    return Network(spec, seed)


# ---------------------------------------------------------------------------
# checkpoints: the spec as the container header, then one run per state array


def save_checkpoint(path, net: Network) -> None:
    """Write *net* to *path*, replacing any checkpoint there only once complete."""
    container.write(path, asdict(net.spec), net.state_arrays())


def load_checkpoint(path) -> Network:
    """Read a ``DTASNN02`` checkpoint, or a ``DTASNN01`` one (no CRC trailer)."""
    header, runs = container.read(path, CheckpointError)
    try:
        spec = NetworkSpec.from_dict(header)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint spec is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint spec: {exc}") from exc
    net = build(spec, seed=0)
    got, sizes = [r.size for r in runs], [a.size for a in net.state_arrays()]
    if got != sizes:
        raise CheckpointError(f"{path}: tensor runs of {got} elements, expected {sizes}")
    it = iter(runs)
    for p in net.parameters():
        p.values[...] = next(it).reshape(p.shape).astype(p.dtype)
    for bn in net.bn_layers():
        st = bn.state
        st.running_mean[...] = next(it).astype(st.dtype)
        st.running_var[...] = next(it).astype(st.dtype)
        st.batches_tracked = int(next(it)[0])
    return net
