"""Dual temporal-channel attention over spike tensors.

Two branches gate the output of a spiking layer:

* the identical cross-attention branch runs the same local 1-D-convolution
  attention twice, once targeting the time dimension and once the channel
  dimension, and multiplies the results;
* the non-identical branch folds time and channels into one axis and combines
  a local path (depth-wise, dilated depth-wise, point-wise convolutions) with
  a global path (spatial pooling into a squeeze/expand bottleneck).

The fused gate is ``sigmoid(cross * non_identical) * spikes``, so the output
vanishes wherever no spike fired and stays strictly below 1 in magnitude for
binary spikes.

Spike tensors are laid out (T, B, C, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .ops import conv1d, conv2d, linear
from .tensor import ShapeError, Tensor

# cross-attention 1-D kernel length, along time and along channels
K_TXA = 3
# the large-kernel-attention decomposition of the T-NA local path (Guo et al.,
# "Visual Attention Network", 2022): depth-wise K_DW x K_DW, then depth-wise
# K_DDW x K_DDW with dilation DILATION
K_DW, K_DDW, DILATION = 5, 7, 3


def uniform_fan_in(rng: np.random.Generator, shape: tuple, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


@dataclass
class TxaParams:
    """Learnable state of the identical cross-attention branch.

    One 1-D kernel per target dimension (time / channel) plus one scalar
    scale each. Scales start at zero so the branch begins as an identity.
    """

    tla_kernel: Tensor  # (C, C, K_TXA), slides along T
    cla_kernel: Tensor  # (T, T, K_TXA), slides along C
    p_t: Tensor
    p_c: Tensor

    @classmethod
    def init(cls, time_steps: int, channels: int, rng: np.random.Generator,
             dtype=np.float32) -> "TxaParams":
        k = K_TXA
        return cls(
            tla_kernel=uniform_fan_in(rng, (channels, channels, k), channels * k, dtype),
            cla_kernel=uniform_fan_in(rng, (time_steps, time_steps, k), time_steps * k, dtype),
            p_t=Tensor(np.zeros(1), requires_grad=True, dtype=dtype),
            p_c=Tensor(np.zeros(1), requires_grad=True, dtype=dtype),
        )


@dataclass
class TnaParams:
    """Learnable state of the non-identical branch over the fused T*C axis.

    Local path: depth-wise 5x5, dilated depth-wise 7x7 (dilation 3),
    point-wise 1x1 - the large-kernel-attention decomposition. Global path:
    squeeze/expand bottleneck with ratio r, the largest of 4, 3, 2, 1 that
    divides T*C. Encode/decode are 1x1 projections
    around the whole block; decode starts anywhere, but an all-zero decode
    reduces the block to an identity.
    """

    encode: Tensor       # (TC, TC, 1, 1)
    dw: Tensor           # (TC, 1, K_DW, K_DW), depth-wise
    ddw: Tensor          # (TC, 1, K_DDW, K_DDW), depth-wise, dilated
    pw: Tensor           # (TC, TC, 1, 1)
    mb_squeeze_w: Tensor  # (TC/r, TC)
    mb_squeeze_b: Tensor
    mb_expand_w: Tensor   # (TC, TC/r)
    mb_expand_b: Tensor
    decode: Tensor       # (TC, TC, 1, 1)

    @classmethod
    def init(cls, time_steps: int, channels: int, rng: np.random.Generator,
             dtype=np.float32) -> "TnaParams":
        tc = time_steps * channels
        hidden = tc // next(r for r in (4, 3, 2, 1) if tc % r == 0)
        return cls(
            encode=uniform_fan_in(rng, (tc, tc, 1, 1), tc, dtype),
            dw=uniform_fan_in(rng, (tc, 1, K_DW, K_DW), K_DW * K_DW, dtype),
            ddw=uniform_fan_in(rng, (tc, 1, K_DDW, K_DDW), K_DDW * K_DDW, dtype),
            pw=uniform_fan_in(rng, (tc, tc, 1, 1), tc, dtype),
            mb_squeeze_w=uniform_fan_in(rng, (hidden, tc), tc, dtype),
            mb_squeeze_b=Tensor(np.zeros(hidden), requires_grad=True, dtype=dtype),
            mb_expand_w=uniform_fan_in(rng, (tc, hidden), hidden, dtype),
            mb_expand_b=Tensor(np.zeros(tc), requires_grad=True, dtype=dtype),
            decode=uniform_fan_in(rng, (tc, tc, 1, 1), tc, dtype),
        )


def _require_5d(x: Tensor, name: str) -> None:
    if x.ndim != 5:
        raise ShapeError(f"{name} expects a (T, B, C, H, W) tensor, got {x.shape}")


def smp(x: Tensor) -> Tensor:
    """Spatial mean pooling: average a (T, B, C, H, W) tensor over H and W."""
    _require_5d(x, "smp")
    return tz.mean(x, axes=(3, 4))


# (T, B, C) -> conv1d lanes: (B, C, T) slides along time, (B, T, C) along channels
_LANES = {"t": (1, 2, 0), "c": (1, 0, 2)}


def local_attention(x: Tensor, pooled: Tensor, kernel: Tensor, scale: Tensor,
                    target_dim: str) -> Tensor:
    """One identical-branch pass: 1-D conv along the target dim, sigmoid,
    learnable scale, then a residual add broadcast over the spatial axes.

    ``target_dim`` is "t" (slide along time, mix channels) or "c" (slide
    along channels, mix time). ``pooled`` is the (T, B, C) spatial mean of x.
    """
    _require_5d(x, "local_attention")
    if pooled.shape != x.shape[:3]:
        raise ShapeError(f"pooled map {pooled.shape} does not match input {x.shape[:3]}")
    if target_dim not in _LANES:
        raise ValueError(f"target_dim must be 't' or 'c', got {target_dim!r}")
    perm = _LANES[target_dim]
    attn = scale * tz.sigmoid(conv1d(tz.transpose(pooled, perm), kernel))
    attn = tz.transpose(attn, np.argsort(perm))         # back to (T, B, C)
    return x + tz.reshape(attn, pooled.shape + (1, 1))


def t_xa(x: Tensor, p: TxaParams) -> Tensor:
    """Identical cross attention: product of the time- and channel-target passes."""
    pooled = smp(x)
    tla = local_attention(x, pooled, p.tla_kernel, p.p_t, "t")
    cla = local_attention(x, pooled, p.cla_kernel, p.p_c, "c")
    return tla * cla


def ltca(f: Tensor, p: TnaParams) -> Tensor:
    """Local path over (B, TC, H, W): depth-wise, dilated depth-wise, point-wise.

    All three convolutions are padded to preserve the spatial extents.
    """
    h = conv2d(f, p.dw, padding=(K_DW - 1) // 2)
    h = conv2d(h, p.ddw, padding=DILATION * (K_DDW - 1) // 2, dilation=DILATION)
    return conv2d(h, p.pw)


def gtca(f: Tensor, p: TnaParams) -> Tensor:
    """Global path: spatial average pool into the squeeze/expand bottleneck.

    Returns a (B, TC, 1, 1) map, broadcastable over the spatial axes.
    """
    B, tc = f.shape[0], f.shape[1]
    pooled = tz.mean(f, axes=(2, 3))
    h = tz.relu(linear(pooled, p.mb_squeeze_w, p.mb_squeeze_b))
    h = linear(h, p.mb_expand_w, p.mb_expand_b)
    return tz.reshape(h, (B, tc, 1, 1))


def t_na(x: Tensor, p: TnaParams) -> Tensor:
    """Non-identical attention over the fused time-channel axis.

    Folds (T, B, C, H, W) to (B, T*C, H, W), encodes with a 1x1 conv + GELU,
    gates the encoding with the local and global paths, decodes with a 1x1
    conv, and adds the fold back as a residual before unfolding.
    """
    _require_5d(x, "t_na")
    T, B, C, H, W = x.shape
    folded = tz.reshape(tz.transpose(x, (1, 0, 2, 3, 4)), (B, T * C, H, W))
    feat = tz.gelu(conv2d(folded, p.encode))
    attended = ltca(feat, p) * gtca(feat, p) * feat
    out = conv2d(attended, p.decode) + folded
    return tz.transpose(tz.reshape(out, (B, T, C, H, W)), (1, 0, 2, 3, 4))


def dta(spikes: Tensor, txa: TxaParams | None, tna: TnaParams | None) -> Tensor:
    """Fused gate: ``sigmoid(txa * tna) * spikes``.

    A branch runs exactly when its parameters are given; a missing branch
    contributes an all-ones factor, and with neither the spikes pass through
    untouched. The input must be binary, as produced by a spiking layer.
    """
    _require_5d(spikes, "dta")
    sv = spikes.values
    if not np.all((sv == 0) | (sv == 1)):
        raise ValueError("dta input must be binary spikes")
    if txa is None and tna is None:
        return spikes
    if tna is None:
        gate = t_xa(spikes, txa)
    elif txa is None:
        gate = t_na(spikes, tna)
    else:
        gate = t_xa(spikes, txa) * t_na(spikes, tna)
    return tz.sigmoid(gate) * spikes
