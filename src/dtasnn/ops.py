"""Convolution, affine, and normalization primitives.

All convolutions use cross-correlation semantics (no kernel flip). conv2d
runs dense and depth-wise weights and has three kernel paths. The point-wise
kernel (1x1, no padding) is one batched matmul per image over the strided
input. The general kernel is an implicit GEMM (Chetlur et al., "cuDNN:
Efficient Primitives for Deep Learning", 2014) run over blocks of whole
images sized to L2 cache (:data:`BLOCK_BYTES`): per block it copies the input
into a zero-padded channels-last array, reshaped into stride x stride phases,
and runs one accumulating matmul per kernel tap over a shifted block of a
phase's rows, so no im2col column matrix and no batch-sized grid is built;
the backward sums the weight gradient over the blocks (split-K). The
depth-wise kernel is the Toeplitz lowering of Chellapilla et al. ("High
Performance Convolutional Neural Networks for Document Processing", 2006)
applied per channel: each kernel row is a banded matrix along the width, and
one batched matmul per kernel row applies it to every in-image input row.
Its backward rebuilds the bands from the weights rather than keep them.
Every kernel visits its taps or rows in a fixed order, so results are
deterministic for a fixed BLAS thread count.

Batch norm's float math lives in raw-array helpers
(:func:`batch_norm_forward`, :func:`batch_norm_affine`,
:func:`batch_norm_backward`), shared by :func:`batch_norm_2d`'s node and by
the fused batch-norm and spiking node of :mod:`dtasnn.neuron`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgemm as _dgemm, sgemm as _sgemm

from .tensor import GeometryError, ShapeError, Tensor, apply_primitive, pack


# general conv2d: the byte budget of one block of whole images, their padded
# input and output grids together, so a block's rows stay in cache. Measured
# on a host with 2 MiB of L2 per core: 1 MiB ran the cifar-train backward
# fastest but splits the desk model's convs, which fit one 3 MiB block; 3 MiB
# gave cifar-train's lowest steady peak RSS among 1-4 MiB
BLOCK_BYTES = 3 << 20

# batch norm: share of the running statistics kept per training batch, and
# the variance floor
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class MissingStatisticsError(RuntimeError):
    """Eval-mode batch norm ran before any training batch recorded statistics."""


def _rows_first(a: np.ndarray) -> np.ndarray:
    """(B, C, H, W) to a contiguous (C, H, B, W) copy."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3))


def _tap_span(offset: int, n_in: int, n_out: int, stride: int):
    """Output and input slices of one tap offset along one spatial axis.

    Output index i reads input index ``i * stride + offset``. Returns
    ``(out_slice, in_slice, count)`` over the outputs whose input lies in
    ``[0, n_in)``, or None when the tap reads padding only.
    """
    lo = max(0, -(offset // stride))
    hi = min(n_out, (n_in - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + offset
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride), hi - lo


def _addmm(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c += a @ b`` in place, for a C-contiguous 2-D *c*.

    numpy's matmul cannot accumulate into its output, so this calls BLAS gemm
    with beta = 1 on the transposed operands (``c.T += b.T @ a.T``; ``c.T`` is
    Fortran-ordered, which gemm updates without a copy).
    """
    if not c.flags.c_contiguous:
        raise ValueError("_addmm needs a C-contiguous accumulator")
    gemm = _sgemm if c.dtype == np.float32 else _dgemm
    gemm(1.0, b.T, a.T, beta=1.0, c=c.T, overwrite_c=True)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           dilation: int = 1) -> Tensor:
    """Bias-free 2-D cross-correlation of (B, C, H, W) with a dense or depth-wise weight.

    The weight's shape sets the kind: (Cout, C, kh, kw) is dense, and
    (C, 1, kh, kw) with C > 1 is depth-wise (one kernel per channel). Any other
    weight raises :class:`ShapeError`. ``dilation > 1`` spreads the taps.
    Three kernel paths (point-wise matmul, depth-wise banded GEMM, general
    implicit GEMM) share one contract and are oracle-tested against a naive
    loop nest. No path's node keeps the output or the input Tensor: each keeps
    only the arrays its backward reads, named below.

    The point-wise path (a dense 1x1 weight with no padding) multiplies the
    (Cout, C) weight into a contiguous copy of ``x[:, :, ::stride, ::stride]``,
    one batched matmul over the images in NCHW layout. Its backward is two
    batched matmuls; at stride 2 the input gradient is scattered into zeros.
    Its node keeps that strided copy, as uint8 when it is binary
    (:func:`~dtasnn.tensor.pack`), and the weights.

    The general path (every other dense weight) runs over blocks of whole
    images whose padded input and output grids fit :data:`BLOCK_BYTES`
    together. Per block it copies the images into the ``[padding:padding +
    H, padding:padding + W]`` window of a zeroed channels-last array of shape
    ``(images, Hq * stride, Wq * stride, C)``, ``Hq = ceil((H + 2 * padding)
    / stride)``, and reshapes that into ``stride x stride`` phases of ``Hq x
    Wq`` positions: phase (p, q) holds padded position ``(i * stride + p, j *
    stride + q)`` at (i, j). At stride 1 the reshape is a view; otherwise it
    is one copy of the block. Tap (u, v) reads phase ``(u * dilation %
    stride, v * dilation % stride)`` at a constant row shift of ``(u *
    dilation // stride) * Wq + v * dilation // stride``, so it is one matmul
    over contiguous rows, accumulated into an output on the same grid that
    is cropped to (Ho, Wo) into the preallocated output. A tap that crosses
    an image's edge reads or writes only rows that get cropped, so blocks
    need no halo, and a batch that fits one block runs as one. Per block the
    backward rebuilds the grid, adds each tap's weight gradient from rows
    still in cache (so the weight gradient sums over blocks, in another
    order than one whole-batch GEMM would), accumulates the phase gradient
    the same way, reverses the reshape and crops the window into the
    preallocated input gradient. Its node keeps a binary input (such as a
    spike map) as one uint8 zero-padded channels-last grid, which the
    forward fills block by block and the backward widens one block at a
    time, and any other input as the input array itself; it also keeps the
    per-tap weights. For a constant input such as a data batch it returns no
    input gradient.

    The depth-wise path turns kernel row u of channel c into the banded
    (W, Wo) matrix ``band[c, u]`` holding ``w[c, 0, u, v]`` at
    ``(wo * stride + v * dilation - padding, wo)``; columns that would read
    padding stay zero. In (C, H, B, W) layout the rows of one kernel row's
    in-image span are a (C, rows * B, W) view, so the forward is one batched
    matmul per kernel row, ``out[:, ro] += x[:, ri] @ band[:, u]``. The
    backward uses the same matrices: ``gx[:, ri] += g[:, ro] @ band[:, u].T``,
    and the weight gradient is the band entries of ``x[:, ri].T @ g[:, ro]``.
    It builds no padded copy. Its node keeps only the input and the weights:
    the backward re-lays the input and builds the transposed bands from the
    weights with the forward's scatter.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weight, got {x.shape} and {w.shape}")
    B, C, H, W = x.shape
    Cout, Cg, kh, kw = w.shape
    if Cg != C and not (Cg == 1 and Cout == C):
        raise ShapeError(
            f"conv2d weight {w.shape} fits a {C}-channel input neither as dense "
            f"(Cout, {C}, kh, kw) nor as depth-wise ({C}, 1, kh, kw)")
    Ho = (H + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    Wo = (W + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    if Ho < 1 or Wo < 1:
        raise GeometryError(
            f"conv2d output extent {Ho}x{Wo} invalid for input {H}x{W}, kernel "
            f"{kh}x{kw}, stride {stride}, padding {padding}, dilation {dilation}")

    xv, wv = x.values, w.values

    if Cg == C and kh == kw == 1 and padding == 0:
        # point-wise: (Cout, C) @ (C, Ho * Wo) for every image at once
        xs = np.ascontiguousarray(xv[:, :, ::stride, ::stride]).reshape(B, C, Ho * Wo)
        w2 = wv[:, :, 0, 0]
        out = np.matmul(w2, xs).reshape(B, Cout, Ho, Wo)
        xs, dtype = pack(xs), xv.dtype

        def bwd(g):
            g3 = g.reshape(B, Cout, Ho * Wo)
            gxs = np.matmul(w2.T, g3).reshape(B, C, Ho, Wo)
            if stride == 1:
                gx = gxs
            else:
                gx = np.zeros((B, C, H, W), dtype=dtype)
                gx[:, :, ::stride, ::stride] = gxs
            xst = xs.astype(dtype, copy=False).transpose(0, 2, 1)
            gw = np.matmul(g3, xst).sum(axis=0)[:, :, None, None]
            return gx, gw

    elif Cg != C:
        # depth-wise: kernel row u is one banded (W, Wo) matrix per channel,
        # band[c, u][wo * stride + v * dilation - padding, wo] = w[c, 0, u, v],
        # applied to all in-image rows of the (C, H, B, W) input at once
        wo, v = np.meshgrid(np.arange(Wo), np.arange(kw), indexing="ij")
        wi = wo * stride + v * dilation - padding
        inside = (wi >= 0) & (wi < W)
        wo, v, wi = wo[inside], v[inside], wi[inside]
        band = np.zeros((C, kh, W, Wo), dtype=xv.dtype)
        band[:, :, wi, wo] = wv[:, 0][:, :, v]
        rows = [(u, span) for u in range(kh)
                if (span := _tap_span(u * dilation - padding, H, Ho, stride)) is not None]

        def row_block(a, rs, nr):
            # rows rs of a (C, H, B, W) array as (C, nr * B, W): a view when
            # rs is contiguous
            return a[:, rs].reshape(C, nr * B, a.shape[3])

        x_r = _rows_first(xv)
        out_r = np.zeros((C, Ho, B, Wo), dtype=xv.dtype)
        for u, (ro, ri, nr) in rows:
            row_block(out_r, ro, nr)[...] += np.matmul(row_block(x_r, ri, nr), band[:, u])
        out = np.ascontiguousarray(out_r.transpose(2, 0, 1, 3))

        def bwd(g):
            # input gradient: g @ band[c, u].T per row; weight gradient: the
            # band entries of the per-channel x.T @ g over each row's (h, b)
            x_r, g_r = _rows_first(xv), _rows_first(g)
            gx_r = np.zeros_like(x_r)
            # the transposed bands, contiguous, by the forward's scatter: a
            # transposed matmul operand costs more than building them
            band_t = np.zeros((C, kh, Wo, W), dtype=xv.dtype)
            band_t[:, :, wo, wi] = wv[:, 0][:, :, v]
            x_g = np.zeros((C, kh, W, Wo), dtype=xv.dtype)
            for u, (ro, ri, nr) in rows:
                g_rows = row_block(g_r, ro, nr)
                x_g[:, u] = np.matmul(row_block(x_r, ri, nr).transpose(0, 2, 1), g_rows)
                gx_r[:, ri] += np.matmul(g_rows, band_t[:, u]).reshape(C, nr, B, W)
            gw = np.zeros((C, 1, kh, kw), dtype=wv.dtype)
            np.add.at(gw[:, 0], (slice(None), slice(None), v), x_g[:, :, wi, wo])
            return np.ascontiguousarray(gx_r.transpose(2, 0, 1, 3)), gw

    else:
        # general: implicit GEMM over the padded phase grid of one block of
        # whole images at a time; grid positions past (Ho, Wo) read wrapped
        # rows and are cropped, so a block needs no halo
        Hq = -(-(H + 2 * padding) // stride)
        Wq = -(-(W + 2 * padding) // stride)
        Hp, Wp = Hq * stride, Wq * stride
        dtype = np.result_type(xv, wv)
        image_bytes = (Hp * Wp * C + Hq * Wq * Cout) * dtype.itemsize
        step = max(1, BLOCK_BYTES // image_bytes)
        blocks = [(b0, min(b0 + step, B)) for b0 in range(0, B, step)]

        def phases(src, b0, b1):
            # images b0:b1's padded grid as (stride, stride, rows, C) phases:
            # phase (p, q) holds padded position (i * stride + p, j * stride
            # + q) at row (image, i, j); one copy, none for a float input at
            # stride 1
            if src.dtype == np.uint8:
                grid = src[b0:b1]
            else:
                grid = np.zeros((b1 - b0, Hp, Wp, C), dtype=dtype)
                grid[:, padding:padding + H, padding:padding + W] = \
                    src[b0:b1].transpose(0, 2, 3, 1)
            grid = grid.reshape(b1 - b0, Hq, stride, Wq, stride, C).transpose(2, 4, 0, 1, 3, 5)
            return np.ascontiguousarray(grid, dtype=dtype).reshape(stride, stride, -1, C)

        # (kh, kw, C, Cout): the per-tap right-hand operand
        wt = np.ascontiguousarray(wv.transpose(2, 3, 1, 0), dtype=dtype)
        taps = [(u, v, u * dilation % stride, v * dilation % stride,
                 u * dilation // stride * Wq + v * dilation // stride)
                for u in range(kh) for v in range(kw)]
        out = None
        # the node keeps a binary input (spikes) as one zeroed uint8 padded
        # grid, channels last, filled block by block, and any other input as
        # itself: from the first block that is not binary on
        kept = xv
        for b0, b1 in blocks:
            if kept is not xv or b0 == 0:
                bits = pack(xv[b0:b1])
                if bits.dtype != np.uint8:
                    kept = xv
                else:
                    if b0 == 0:
                        kept = np.zeros((B, Hp, Wp, C), dtype=np.uint8)
                    kept[b0:b1, padding:padding + H, padding:padding + W] = \
                        bits.transpose(0, 2, 3, 1)
                del bits
            ph = phases(kept, b0, b1)
            n = ph.shape[2]
            out_g = np.zeros((n, Cout), dtype=dtype)
            for u, v, a, b, shift in taps:
                _addmm(out_g[:n - shift], ph[a, b, shift:], wt[u, v])
            if out is None:
                # allocated after the first block's grids: of the orders
                # tried, this one left the lowest peak RSS on every bench
                # workload
                out = np.empty((B, Cout, Ho, Wo), dtype=dtype)
            out[b0:b1] = out_g.reshape(b1 - b0, Hq, Wq, Cout)[:, :Ho, :Wo].transpose(0, 3, 1, 2)
        # a constant input (the data batch under the stem) needs no gradient
        need_gx = x.rec is not None or x.requires_grad
        x_dtype, w_dtype = xv.dtype, wv.dtype

        def bwd(g):
            # per block: the weight gradient's share (split-K over images)
            # and the block's input gradient, from rows still in cache; the
            # block's grids die before its crop copy
            gx = np.empty((B, C, H, W), dtype=x_dtype) if need_gx else None
            gwt = None
            for b0, b1 in blocks:
                ph = phases(kept, b0, b1)
                n = ph.shape[2]
                g_g = np.zeros((n, Cout), dtype=dtype)
                g_g.reshape(b1 - b0, Hq, Wq, Cout)[:, :Ho, :Wo] = g[b0:b1].transpose(0, 2, 3, 1)
                part = np.empty_like(wt)
                gph = np.zeros_like(ph) if need_gx else None
                for u, v, a, b, shift in taps:
                    np.matmul(ph[a, b, shift:].T, g_g[:n - shift], out=part[u, v])
                    if gph is not None:
                        _addmm(gph[a, b, shift:], g_g[:n - shift], wt[u, v].T)
                del ph, g_g
                if gwt is None:
                    gwt = part
                else:
                    gwt += part
                if gph is not None:
                    # the phase split reversed (a copy at stride > 1), cropped
                    grid = gph.reshape(stride, stride, b1 - b0, Hq, Wq, C).transpose(
                        2, 3, 0, 4, 1, 5).reshape(b1 - b0, Hp, Wp, C)
                    gx[b0:b1] = grid[:, padding:padding + H, padding:padding + W].transpose(
                        0, 3, 1, 2)
            return gx, gwt.transpose(3, 2, 0, 1).astype(w_dtype, copy=False)

    return apply_primitive((x, w), out, bwd)


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Length-preserving 1-D cross-correlation over (B, S, L) with (S_out, S, k).

    The kernel must be odd and both ends are padded by (k-1)/2, so the output
    length equals the input length. The S dimension mixes as channels.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects 3-D input and weight, got {x.shape} and {w.shape}")
    B, S, L = x.shape
    Sout, Sin, k = w.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel length must be odd, got {k}")
    if Sin != S:
        raise ShapeError(f"conv1d weight expects {Sin} channels, input provides {S}")
    padding = (k - 1) // 2

    wv = w.values
    xp = np.pad(x.values, ((0, 0), (0, 0), (padding, padding)))
    win = sliding_window_view(xp, k, axis=2)
    out = np.einsum("bslk,osk->bol", win, wv)

    def bwd(g):
        gw = np.einsum("bol,bslk->osk", g, win)
        gxp = np.zeros_like(xp)
        for i in range(k):
            gxp[:, :, i:i + L] += np.einsum("bol,os->bsl", g, wv[:, :, i])
        return gxp[:, :, padding:padding + L], gw

    return apply_primitive((x, w), out, bwd)


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Affine map (B, n) @ (m, n)^T + (m,)."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2-D input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear inner dimensions differ: input {x.shape} vs weight {w.shape}")
    xv, wv = x.values, w.values
    out = xv @ wv.T + bias.values[None, :]

    def bwd(g):
        return g @ wv, g.T @ xv, g.sum(axis=0)

    return apply_primitive((x, w, bias), out, bwd)


@dataclass
class BatchNormState:
    """Running statistics of a 2-D batch norm layer.

    ``running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch`` on every
    training-mode forward; eval mode uses the stored values and refuses to run
    before any batch has been tracked.
    """

    num_features: int
    dtype: np.dtype = np.float32
    running_mean: np.ndarray = field(init=False)
    running_var: np.ndarray = field(init=False)
    batches_tracked: int = field(default=0, init=False)

    def __post_init__(self):
        self.running_mean = np.zeros(self.num_features, dtype=self.dtype)
        self.running_var = np.ones(self.num_features, dtype=self.dtype)


def batch_norm_forward(xv: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       state: BatchNormState, training: bool):
    """Batch norm of the raw (N, C, H, W) array *xv*: ``(out, d, scale, inv)``.

    ``d = xv - mean`` is the deviation, ``inv = 1 / sqrt(var + eps)`` and
    ``scale = gamma * inv``; ``out`` is :func:`batch_norm_affine` of them, in
    *xv*'s dtype. Training mode takes the batch statistics and updates
    *state* in place; eval mode reads *state*, or raises
    :class:`MissingStatisticsError` before any batch was tracked.
    """
    if xv.ndim != 4:
        raise ShapeError(f"batch_norm_2d expects 4-D input, got {xv.shape}")
    N, C, H, W = xv.shape
    if C != state.num_features:
        raise ShapeError(f"batch_norm_2d input has {C} channels, state tracks {state.num_features}")

    if training:
        mu = xv.mean(axis=(0, 2, 3))
        d = xv - mu[:, None, None]
        dc = d.reshape(N, C, H * W)
        var = np.einsum("ncs,ncs->c", dc, dc) / (N * H * W)
        m = BN_MOMENTUM
        state.running_mean = (m * state.running_mean + (1.0 - m) * mu).astype(state.dtype)
        state.running_var = (m * state.running_var + (1.0 - m) * var).astype(state.dtype)
        state.batches_tracked += 1
    elif state.batches_tracked == 0:
        raise MissingStatisticsError(
            "batch_norm_2d eval mode before any statistics were recorded "
            "(the network has not run a training batch)")
    else:
        mu, var = state.running_mean, state.running_var
        d = xv - mu[:, None, None]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv
    return batch_norm_affine(d, scale, beta, xv.dtype), d, scale, inv


def batch_norm_affine(d: np.ndarray, scale: np.ndarray, beta: np.ndarray,
                      dtype) -> np.ndarray:
    """``d * scale + beta`` per channel, in *dtype*: batch norm's output from
    its kept deviation, with the forward's float ops."""
    out = d * scale[:, None, None]
    out += beta[:, None, None]
    return out.astype(dtype, copy=False)


def batch_norm_backward(g: np.ndarray, d: np.ndarray, scale: np.ndarray,
                        inv: np.ndarray, training: bool):
    """Gradients ``(gx, ggamma, gbeta)`` of batch norm from the upstream *g*
    and the forward's ``d``, ``scale`` and ``inv``."""
    N, C, H, W = d.shape
    n = N * H * W
    gc = g.reshape(N, C, H * W)
    sum_g = gc.sum(axis=(0, 2))
    sum_gd = np.einsum("ncs,ncs->c", gc, d.reshape(N, C, H * W))
    gx = g * scale[:, None, None]
    if training:
        # the batch statistics depend on x: take out the gradient through
        # the variance, gamma * inv^3 * sum(g * d) / n per unit of d, and
        # through the mean, gamma * inv * sum(g) / n
        gx -= d * (scale * inv * inv * sum_gd / n)[:, None, None]
        gx -= (scale * sum_g / n)[:, None, None]
    return gx, inv * sum_gd, sum_g


def batch_norm_2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                  training: bool) -> Tensor:
    """Per-channel normalization of (N, C, H, W) over the (N, H, W) axes.

    Training mode normalizes with batch statistics (biased variance) and
    updates *state* in place; eval mode applies the stored statistics.

    The forward (:func:`batch_norm_forward`) forms the deviation
    ``d = x - mean`` once, takes the batch variance as each channel's dot
    product of ``d`` with itself, and applies ``gamma / sqrt(var + eps)`` as
    one scale. The node keeps ``d`` in place of x-hat. Its backward
    (:func:`batch_norm_backward`) is the closed form of Ioffe & Szegedy's
    (2015) chain rule, from two per-channel reductions, ``sum(g)`` and
    ``sum(g * d)``. :func:`~dtasnn.neuron.batch_norm_lif` runs the same two
    helpers around a spiking layer.
    """
    out, d, scale, inv = batch_norm_forward(x.values, gamma.values, beta.values,
                                            state, training)

    def bwd(g):
        return batch_norm_backward(g, d, scale, inv, training)

    return apply_primitive((x, gamma, beta), out, bwd)
