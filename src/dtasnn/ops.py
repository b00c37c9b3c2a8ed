"""Convolution, affine, and normalization primitives.

All convolutions use cross-correlation semantics (no kernel flip). conv2d
runs dense and depth-wise weights and has three kernel paths. The point-wise
kernel (1x1, no padding) is one batched matmul per image over the strided
input. The general kernel is an implicit GEMM (Chetlur et al., "cuDNN:
Efficient Primitives for Deep Learning", 2014): it copies the input once into
a zero-padded channels-last array, reshaped into stride x stride phases, and
runs one accumulating matmul per kernel tap over a shifted block of a phase's
rows, so no im2col column matrix is built or kept for the backward. The
depth-wise kernel is the Toeplitz lowering of Chellapilla et al. ("High
Performance Convolutional Neural Networks for Document Processing", 2006)
applied per channel: each kernel row is a banded matrix along the width, and
one batched matmul per kernel row applies it to every in-image input row.
Every kernel visits its taps or rows in a fixed order, so results are
deterministic for a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgemm as _dgemm, sgemm as _sgemm

from .tensor import GeometryError, ShapeError, Tensor, apply_primitive


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
    Its node keeps that strided copy and the weights.

    The general path (every other dense weight) copies the input into the
    ``[padding:padding + H, padding:padding + W]`` window of one zeroed
    channels-last array of shape ``(B, Hq * stride, Wq * stride, C)``,
    ``Hq = ceil((H + 2 * padding) / stride)``, and reshapes that into
    ``stride x stride`` phases of ``Hq x Wq`` positions: phase (p, q) holds
    padded position ``(i * stride + p, j * stride + q)`` at (i, j). At
    stride 1 the reshape is a view; otherwise it is one copy. Tap (u, v)
    reads phase ``(u * dilation % stride, v * dilation % stride)`` at a
    constant row shift of ``(u * dilation // stride) * Wq + v * dilation //
    stride``, so it is one matmul over contiguous rows, accumulated into an
    output on the same grid that is cropped to (Ho, Wo). The backward
    accumulates the phase gradient the same way, reverses the reshape and
    crops the window. Its node keeps the phase grid (about the size of the
    padded input) and the per-tap weights, but of the input itself only its
    dtype; for a constant input such as a data batch it returns no input
    gradient.

    The depth-wise path turns kernel row u of channel c into the banded
    (W, Wo) matrix ``band[c, u]`` holding ``w[c, 0, u, v]`` at
    ``(wo * stride + v * dilation - padding, wo)``; columns that would read
    padding stay zero. In (C, H, B, W) layout the rows of one kernel row's
    in-image span are a (C, rows * B, W) view, so the forward is one batched
    matmul per kernel row, ``out[:, ro] += x[:, ri] @ band[:, u]``. The
    backward uses the same matrices: ``gx[:, ri] += g[:, ro] @ band[:, u].T``,
    and the weight gradient is the band entries of ``x[:, ri].T @ g[:, ro]``.
    It builds no padded copy; its node keeps the input, the weights and the
    band matrices, and re-lays the input in the backward.
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

        def bwd(g):
            g3 = g.reshape(B, Cout, Ho * Wo)
            gxs = np.matmul(w2.T, g3).reshape(B, C, Ho, Wo)
            if stride == 1:
                gx = gxs
            else:
                gx = np.zeros((B, C, H, W), dtype=xs.dtype)
                gx[:, :, ::stride, ::stride] = gxs
            gw = np.matmul(g3, xs.transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]
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
            # contiguous band transposes: a transposed matmul operand costs
            # more than this copy
            band_t = np.ascontiguousarray(band.transpose(0, 1, 3, 2))
            x_g = np.zeros((C, kh, W, Wo), dtype=xv.dtype)
            for u, (ro, ri, nr) in rows:
                g_rows = row_block(g_r, ro, nr)
                x_g[:, u] = np.matmul(row_block(x_r, ri, nr).transpose(0, 2, 1), g_rows)
                gx_r[:, ri] += np.matmul(g_rows, band_t[:, u]).reshape(C, nr, B, W)
            gw = np.zeros((C, 1, kh, kw), dtype=wv.dtype)
            np.add.at(gw[:, 0], (slice(None), slice(None), v), x_g[:, :, wi, wo])
            return np.ascontiguousarray(gx_r.transpose(2, 0, 1, 3)), gw

    else:
        # general: implicit GEMM over the padded phase grid; grid positions
        # past (Ho, Wo) read wrapped rows and are cropped
        Hq = -(-(H + 2 * padding) // stride)
        Wq = -(-(W + 2 * padding) // stride)
        N = B * Hq * Wq
        dtype = np.result_type(xv, wv)
        # the zero-padded input, channels last, reshaped into its phases; at
        # stride > 1 the reshape copies and the padded array dies with the
        # rebinding
        phases = np.zeros((B, Hq * stride, Wq * stride, C), dtype=dtype)
        phases[:, padding:padding + H, padding:padding + W] = xv.transpose(0, 2, 3, 1)
        phases = phases.reshape(B, Hq, stride, Wq, stride, C).transpose(
            2, 4, 0, 1, 3, 5).reshape(stride, stride, N, C)
        # (kh, kw, C, Cout): the per-tap right-hand operand
        wt = np.ascontiguousarray(wv.transpose(2, 3, 1, 0), dtype=dtype)
        taps = [(u, v, u * dilation % stride, v * dilation % stride,
                 u * dilation // stride * Wq + v * dilation // stride)
                for u in range(kh) for v in range(kw)]
        out_g = np.zeros((N, Cout), dtype=dtype)
        for u, v, a, b, shift in taps:
            _addmm(out_g[:N - shift], phases[a, b, shift:], wt[u, v])
        out = np.ascontiguousarray(
            out_g.reshape(B, Hq, Wq, Cout)[:, :Ho, :Wo].transpose(0, 3, 1, 2))
        # a constant input (the data batch under the stem) needs no gradient
        need_gx = x.rec is not None or x.requires_grad
        x_dtype, w_dtype = xv.dtype, wv.dtype

        def bwd(g):
            g_g = np.zeros((N, Cout), dtype=dtype)
            g_g.reshape(B, Hq, Wq, Cout)[:, :Ho, :Wo] = g.transpose(0, 2, 3, 1)
            gwt = np.empty_like(wt)
            gph = np.zeros_like(phases) if need_gx else None
            for u, v, a, b, shift in taps:
                n = N - shift
                np.matmul(phases[a, b, shift:].T, g_g[:n], out=gwt[u, v])
                if gph is not None:
                    _addmm(gph[a, b, shift:], g_g[:n], wt[u, v].T)
            gw = gwt.transpose(3, 2, 0, 1).astype(w_dtype, copy=False)
            if gph is None:
                return None, gw
            # the phase split reversed: a copy at stride > 1, so the phase
            # gradient is dropped before the crop copies again
            grid = gph.reshape(stride, stride, B, Hq, Wq, C).transpose(
                2, 3, 0, 4, 1, 5).reshape(B, Hq * stride, Wq * stride, C)
            del gph
            gx = grid[:, padding:padding + H, padding:padding + W].transpose(0, 3, 1, 2)
            return np.ascontiguousarray(gx, dtype=x_dtype), gw

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


def batch_norm_2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                  training: bool) -> Tensor:
    """Per-channel normalization of (N, C, H, W) over the (N, H, W) axes.

    Training mode normalizes with batch statistics (biased variance) and
    updates *state* in place; eval mode applies the stored statistics.

    The forward forms the deviation ``d = x - mean`` once, takes the batch
    variance as each channel's dot product of ``d`` with itself, and applies
    ``gamma / sqrt(var + eps)`` as one scale. The node keeps ``d`` in place of
    x-hat. Its backward is the closed form of Ioffe & Szegedy's (2015) chain
    rule, from two per-channel reductions, ``sum(g)`` and ``sum(g * d)``.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm_2d expects 4-D input, got {x.shape}")
    N, C, H, W = x.shape
    if C != state.num_features:
        raise ShapeError(f"batch_norm_2d input has {C} channels, state tracks {state.num_features}")
    n = N * H * W
    xv = x.values

    if training:
        mu = xv.mean(axis=(0, 2, 3))
        d = xv - mu[:, None, None]
        dc = d.reshape(N, C, H * W)
        var = np.einsum("ncs,ncs->c", dc, dc) / n
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
    scale = gamma.values * inv
    out = d * scale[:, None, None]
    out += beta.values[:, None, None]

    def bwd(g):
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

    return apply_primitive((x, gamma, beta), out.astype(xv.dtype, copy=False), bwd)
