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
binary spikes. The gate is one primitive, :func:`dta_gate`. The
non-identical branch's product of its local map, global map and features,
with the point-wise conv before it and the decode conv after it, runs as one
:func:`~dtasnn.tensor.recompute` node, whose backward rebuilds them, so the
tape keeps no full-size array of theirs. The cross-attention branch hands the
gate only the two (T, B, C) maps its local attentions add over space, so no
full-size array is built or kept for it.

Spike tensors are laid out (T, B, C, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as _expit

from . import tensor as tz
from .ops import conv1d, conv2d, linear
from .tensor import ShapeError, Tensor, apply_primitive

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
    point-wise 1x1 - the large-kernel-attention decomposition; :func:`ltca`
    runs the two depth-wise convs, and the point-wise one opens
    :func:`t_na`'s recomputed tail. Global path: squeeze/expand bottleneck
    with ratio r, the largest of 4, 3, 2, 1 that divides T*C. Encode/decode
    are 1x1 projections around the whole block; decode starts anywhere, but
    an all-zero decode reduces the block to an identity.
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


def local_attention(pooled: Tensor, kernel: Tensor, scale: Tensor,
                    target_dim: str) -> Tensor:
    """One identical-branch map: 1-D conv of the (T, B, C) spatial mean
    *pooled* along the target dim, sigmoid, then the learnable scale.

    ``target_dim`` is "t" (slide along time, mix channels) or "c" (slide
    along channels, mix time). Returns a (T, B, C) map, which T-XA adds to
    the spikes over every spatial position.
    """
    if pooled.ndim != 3:
        raise ShapeError(f"pooled map must be (T, B, C), got {pooled.shape}")
    if target_dim not in _LANES:
        raise ValueError(f"target_dim must be 't' or 'c', got {target_dim!r}")
    perm = _LANES[target_dim]
    attn = scale * tz.sigmoid(conv1d(tz.transpose(pooled, perm), kernel))
    return tz.transpose(attn, np.argsort(perm))


def t_xa(x: Tensor, p: TxaParams) -> tuple[Tensor, Tensor]:
    """Identical cross attention's (T, B, C) maps ``(a, b)``: the time- and
    the channel-target pass over the spatial mean of x. T-XA itself is
    ``(x + a) * (x + b)`` over every spatial position; :func:`dta_gate`
    forms it without building it."""
    pooled = smp(x)
    return (local_attention(pooled, p.tla_kernel, p.p_t, "t"),
            local_attention(pooled, p.cla_kernel, p.p_c, "c"))


def ltca(f: Tensor, p: TnaParams) -> Tensor:
    """Local path's depth-wise part over (B, TC, H, W): depth-wise, then
    dilated depth-wise.

    Both convolutions are padded to preserve the spatial extents. The
    point-wise conv that ends the local path runs in :func:`t_na`'s
    recomputed tail.
    """
    h = conv2d(f, p.dw, padding=(K_DW - 1) // 2)
    return conv2d(h, p.ddw, padding=DILATION * (K_DDW - 1) // 2, dilation=DILATION)


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
    conv, and adds the fold back as a residual before unfolding. The tail
    from the local path's point-wise conv through the gating product
    ``local * glob * feat`` to the decode conv is one
    :func:`~dtasnn.tensor.recompute` node: it keeps the dilated depth-wise
    output, which the point-wise conv would keep anyway, and the global map
    and the features, which other nodes read anyway; its backward rebuilds
    the point-wise output and the two products on plain nodes, so none of
    them outlives the forward.
    """
    _require_5d(x, "t_na")
    T, B, C, H, W = x.shape
    folded = tz.reshape(tz.transpose(x, (1, 0, 2, 3, 4)), (B, T * C, H, W))
    feat = tz.gelu(conv2d(folded, p.encode))
    decoded = tz.recompute(
        lambda h, g, f: conv2d(conv2d(h, p.pw) * g * f, p.decode),
        ltca(feat, p), gtca(feat, p), feat)
    out = decoded + folded
    return tz.transpose(tz.reshape(out, (B, T, C, H, W)), (1, 0, 2, 3, 4))


def dta_gate(spikes: Tensor, a: Tensor | None, b: Tensor | None,
             tna: Tensor | None) -> Tensor:
    """The DTA gate ``sigmoid(t_xa * tna) * spikes`` as one node.

    *spikes* is (T, B, C, H, W) and must be binary. *a* and *b* are T-XA's
    (T, B, C) maps (:func:`t_xa`), or None when T-XA is off; *tna* is T-NA's
    output, or None when T-NA is off. A branch that is off is a factor of 1,
    and with both off the spikes are returned as they are. T-XA is
    ``(spikes + a) * (spikes + b)``, which is ``(1 + a) * (1 + b)`` where a
    spike fired and ``a * b`` where none did, so the node keeps the two maps
    in place of T-XA. It also keeps the sigmoid, *tna* when both branches
    run, and the spikes as uint8; the check that rejects non-binary spikes
    is the one that packs them.
    """
    _require_5d(spikes, "dta")
    sv = spikes.values
    fired = tz.binary_bytes(sv)
    if fired is None:
        raise ValueError("dta input must be binary spikes")
    dtype, with_txa, with_tna = sv.dtype, a is not None, tna is not None
    if not (with_txa or with_tna):
        return spikes
    if with_txa and not a.shape == b.shape == sv.shape[:3]:
        raise ShapeError(f"T-XA maps {a.shape} and {b.shape} do not match spikes {sv.shape}")
    if with_tna and tna.shape != sv.shape:
        raise ShapeError(f"T-NA output {tna.shape} does not match spikes {sv.shape}")
    ak = bk = tv = None
    if with_txa:
        ak, bk = tz.pack(a.values), tz.pack(b.values)
        pre = sv + a.values[..., None, None]
        pre *= sv + b.values[..., None, None]
        if with_tna:
            tv = tna.values
            pre *= tv
    else:
        pre = tna.values
    sig = _expit(pre).astype(dtype, copy=False)
    out = sig * sv

    def bwd(g):
        # the partial of the sigmoid's input is zero wherever no spike fired,
        # so only T-XA's fired factors (1 + a) and (1 + b) enter a product
        g_pre = g * fired
        g_pre *= sig
        g_pre *= 1.0 - sig
        g_x = g * sig
        partials = [g_x]
        if with_txa:
            am = ak.astype(dtype, copy=False)[..., None, None]
            bm = bk.astype(dtype, copy=False)[..., None, None]
            g_txa = g_pre if tv is None else g_pre * tv
            g_a = g_txa * (1 + bm)
            g_b = g_txa * (1 + am)
            del g_txa
            g_x += g_b
            g_x += g_a
            partials += [g_a.sum(axis=(3, 4)), g_b.sum(axis=(3, 4))]
            if with_tna:
                g_pre *= (1 + am) * (1 + bm)
        if with_tna:
            partials.append(g_pre)
        return partials

    inputs = (spikes,) + ((a, b) if with_txa else ()) + ((tna,) if with_tna else ())
    return apply_primitive(inputs, out, bwd)


def dta(spikes: Tensor, txa: TxaParams | None, tna: TnaParams | None) -> Tensor:
    """Fused gate ``sigmoid(txa * tna) * spikes`` (:func:`dta_gate`).

    A branch runs exactly when its parameters are given; a missing branch
    contributes an all-ones factor, and with neither the spikes pass through
    untouched. The input must be binary, as produced by a spiking layer.
    """
    _require_5d(spikes, "dta")
    a, b = (None, None) if txa is None else t_xa(spikes, txa)
    return dta_gate(spikes, a, b, None if tna is None else t_na(spikes, tna))
