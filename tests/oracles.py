"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loop nests, literal formula
transcriptions) and shares no code with the package kernels it checks. The
conv2d loop nest lives beside the gradcheck suite, which checks every conv2d
path's forward against it too.
"""

import math

import numpy as np

from dtasnn.gradcheck import conv2d_loop


def conv2d_loop_grads(x, w, g, stride=1, padding=1, dilation=1):
    """Gradients of ``sum(g * conv2d_loop(x, w))`` w.r.t. x and w, in float64.

    The same six-nested loop: each product's partials land on the input
    element and the weight it read. As in ``conv2d_loop``, the weight shape
    gives ``C // Cg`` groups of input channels.
    """
    B, C, H, W = x.shape
    Cout, Cg, kh, kw = w.shape
    xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + H, padding:padding + W] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros((Cout, Cg, kh, kw), dtype=np.float64)
    opg = Cout // (C // Cg)
    for b in range(B):
        for co in range(Cout):
            ci0 = (co // opg) * Cg
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for ci in range(Cg):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride + u * dilation
                                s = j * stride + v * dilation
                                gw[co, ci, u, v] += g[b, co, i, j] * xp[b, ci0 + ci, r, s]
                                gxp[b, ci0 + ci, r, s] += g[b, co, i, j] * w[co, ci, u, v]
    return gxp[:, :, padding:padding + H, padding:padding + W], gw


def conv1d_loop(x, w, padding):
    """Hand cross-correlation over (B, S, L) with (S_out, S, k)."""
    B, S, L = x.shape
    Sout, _, k = w.shape
    Lo = L + 2 * padding - k + 1
    xp = np.zeros((B, S, L + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + L] = x
    out = np.zeros((B, Sout, Lo), dtype=np.float64)
    for b in range(B):
        for so in range(Sout):
            for l in range(Lo):
                out[b, so, l] = sum(w[so, s, i] * xp[b, s, l + i]
                                    for s in range(S) for i in range(k))
    return out


def fd_grad(f, x, h=1e-4):
    """Central finite differences of scalar f over every element of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def gelu_reference(x):
    """x * Phi(x) through the standard-library erf, element by element."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                     for v in x.reshape(-1)]).reshape(x.shape)


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def cross_entropy_ref(logits, labels):
    """Mean of -log(softmax) at each row's label, and its gradient
    ``(softmax - onehot) / n``, from the literal formulas in float64 with no
    max shift, one row at a time."""
    logits = np.asarray(logits, dtype=np.float64)
    n = len(labels)
    loss = 0.0
    grad = np.zeros_like(logits)
    for i, (row, label) in enumerate(zip(logits, labels)):
        exps = [math.exp(v) for v in row]
        total = sum(exps)
        loss -= math.log(exps[label] / total)
        grad[i] = [e / total for e in exps]
        grad[i, label] -= 1.0
    return loss / n, grad / n


def batch_norm_ref(x, gamma, beta, running_mean, running_var, training,
                   momentum=0.9, eps=1e-5):
    """2-D batch norm of (N, C, H, W) in float64, one channel at a time.

    Training mode normalizes with the channel's batch mean and biased
    variance and blends them into the running statistics (``momentum`` keeps
    the old value); eval mode normalizes with the running statistics as
    given. Returns ``(out, running_mean, running_var)``.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    new_mean = np.array(running_mean, dtype=np.float64)
    new_var = np.array(running_var, dtype=np.float64)
    for c in range(x.shape[1]):
        xc = x[:, c]
        if training:
            mu = xc.sum() / xc.size
            var = ((xc - mu) ** 2).sum() / xc.size
            new_mean[c] = momentum * running_mean[c] + (1.0 - momentum) * mu
            new_var[c] = momentum * running_var[c] + (1.0 - momentum) * var
        else:
            mu, var = running_mean[c], running_var[c]
        out[:, c] = gamma[c] * (xc - mu) / math.sqrt(var + eps) + beta[c]
    return out, new_mean, new_var


def batch_norm_grads_ref(x, gamma, g, running_mean, running_var, training, eps=1e-5):
    """Gradients of ``sum(g * batch_norm)`` w.r.t. x, gamma and beta, in
    float64, one channel at a time.

    Training mode is the textbook backward of Ioffe & Szegedy (2015): the
    partials over x-hat, then the variance and the mean, then x, gamma and
    beta. In eval mode the statistics are constants, so x gets x-hat's
    partial scaled by ``1 / sqrt(var + eps)`` alone.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    gx = np.zeros_like(x)
    ggamma = np.zeros(x.shape[1])
    gbeta = np.zeros(x.shape[1])
    for c in range(x.shape[1]):
        xc, gc = x[:, c], g[:, c]
        m = xc.size
        if training:
            mu = xc.sum() / m
            var = ((xc - mu) ** 2).sum() / m
        else:
            mu, var = running_mean[c], running_var[c]
        std = math.sqrt(var + eps)
        xhat = (xc - mu) / std
        dxhat = gc * gamma[c]
        if training:
            dvar = (dxhat * (xc - mu)).sum() * -0.5 * (var + eps) ** -1.5
            dmu = (dxhat * -1.0 / std).sum() + dvar * (-2.0 * (xc - mu)).sum() / m
            gx[:, c] = dxhat / std + dvar * 2.0 * (xc - mu) / m + dmu / m
        else:
            gx[:, c] = dxhat / std
        ggamma[c] = (gc * xhat).sum()
        gbeta[c] = gc.sum()
    return gx, ggamma, gbeta


def lif_forward_ref(currents, tau, v_th):
    """Literal membrane recurrence; returns (potentials, spikes) per step."""
    us, ss = [], []
    u = np.zeros_like(currents[0])
    s = np.zeros_like(u)
    for c in currents:
        u = tau * u * (1.0 - s) + c
        s = (u >= v_th).astype(u.dtype)
        us.append(u.copy())
        ss.append(s.copy())
    return us, ss


def lif_bptt_ref(u, g, p):
    """Gradient w.r.t. the currents of ``sum(g * spikes)``, from the ``(T, ...)``
    potentials *u* and upstream gradient *g*.

    The whole-array form of the fused LIF node's backward: the surrogate,
    the carried share ``tau * (u < v_th)`` and ``u * tau`` are built for all
    T steps first, then one loop runs from the last step to the first. The
    float ops and their order are the engine's, which builds the same terms
    one step at a time, so its gradients must match these bits exactly.
    """
    tau = u.dtype.type(p.tau)
    delta = np.abs(u - p.v_th)
    sg = (p.alpha * (1.0 - p.alpha * delta) * (delta < 1.0 / p.alpha) + 0.0).astype(u.dtype)
    keep = (u[:-1] < p.v_th) * tau
    tau_u = None if p.reset_detached else u[:-1] * tau
    du = np.empty_like(g)
    np.multiply(g[-1], sg[-1], out=du[-1])
    for t in range(len(u) - 2, -1, -1):
        g_spike = g[t] if tau_u is None else g[t] - du[t + 1] * tau_u[t]
        np.multiply(g_spike, sg[t], out=du[t])
        du[t] += du[t + 1] * keep[t]
    return du


def batch_norm_lif_ref(x, gamma, beta, running_mean, running_var, training, p, steps, g):
    """Batch norm, then the spiking layer over the *steps* time steps folded
    into axis 0, in float64: ``(spikes, running_mean, running_var, grads)``,
    where *grads* are the gradients of ``sum(g * spikes)`` w.r.t. x, gamma
    and beta. Composed from ``batch_norm_ref``, ``lif_forward_ref``,
    ``lif_bptt_ref`` and ``batch_norm_grads_ref``.
    """
    y, new_mean, new_var = batch_norm_ref(x, gamma, beta, running_mean, running_var,
                                          training)
    us, ss = lif_forward_ref(list(y.reshape(steps, -1)), p.tau, p.v_th)
    gy = lif_bptt_ref(np.stack(us), np.asarray(g, dtype=np.float64).reshape(steps, -1), p)
    grads = batch_norm_grads_ref(x, gamma, gy.reshape(y.shape), running_mean, running_var,
                                 training)
    return np.stack(ss).reshape(y.shape), new_mean, new_var, grads


def smp_loop(x):
    """Plain-loop spatial mean of (T, B, C, H, W)."""
    T, B, C, H, W = x.shape
    out = np.zeros((T, B, C), dtype=np.float64)
    for t in range(T):
        for b in range(B):
            for c in range(C):
                out[t, b, c] = x[t, b, c].sum() / (H * W)
    return out


def local_attention_ref(x, kernel, scale, target_dim):
    """Literal composition: pool, 1-D conv along the target, sigmoid, scale;
    the (T, B, C) map that T-XA adds to every spatial position of x."""
    pooled = smp_loop(x)                     # (T, B, C)
    T, B, C = pooled.shape
    k = kernel.shape[2]
    pad = (k - 1) // 2
    if target_dim == "t":
        lane = pooled.transpose(1, 2, 0)     # (B, C, T)
    else:
        lane = pooled.transpose(1, 0, 2)     # (B, T, C)
    conv = conv1d_loop(lane, kernel, pad)
    attn = scale * sigmoid_ref(conv)
    if target_dim == "t":
        return attn.transpose(2, 0, 1)
    return attn.transpose(1, 0, 2)


def t_xa_ref(x, a, b):
    """T-XA from its two (T, B, C) maps: the residual adds of both onto the
    full input, multiplied."""
    return (x + a[:, :, :, None, None]) * (x + b[:, :, :, None, None])


def t_xa_maps_ref(x, tla_kernel, cla_kernel, p_t, p_c):
    return (local_attention_ref(x, tla_kernel, p_t, "t"),
            local_attention_ref(x, cla_kernel, p_c, "c"))


def dta_gate_ref(spikes, a, b, tna):
    """``sigmoid(t_xa * tna) * spikes`` in float64; a branch passed as None
    (both maps, or tna) is a factor of 1. Defined for any real spikes."""
    spikes = np.asarray(spikes, dtype=np.float64)
    gate = np.ones_like(spikes)
    if a is not None:
        gate = gate * t_xa_ref(spikes, a, b)
    if tna is not None:
        gate = gate * tna
    return sigmoid_ref(gate) * spikes


def gelu_vec_ref(x):
    from scipy.special import erf
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def ltca_ref(f, p):
    """Depth-wise 5x5 (padding 2), then depth-wise 7x7 at dilation 3
    (padding 9)."""
    h = conv2d_loop(f, p.dw.values, stride=1, padding=2, dilation=1)
    return conv2d_loop(h, p.ddw.values, stride=1, padding=9, dilation=3)


def gtca_ref(f, p):
    pooled = f.mean(axis=(2, 3))                          # (B, TC)
    h = pooled @ p.mb_squeeze_w.values.T + p.mb_squeeze_b.values
    h = np.maximum(h, 0.0)
    h = h @ p.mb_expand_w.values.T + p.mb_expand_b.values
    return h[:, :, None, None]


def t_na_ref(x, p):
    """Straight-line transcription of the non-identical branch."""
    T, B, C, H, W = x.shape
    folded = x.transpose(1, 0, 2, 3, 4).reshape(B, T * C, H, W)
    feat = gelu_vec_ref(conv2d_loop(folded, p.encode.values, 1, 0, 1))
    local = conv2d_loop(ltca_ref(feat, p), p.pw.values, 1, 0, 1)
    attended = local * gtca_ref(feat, p) * feat
    out = conv2d_loop(attended, p.decode.values, 1, 0, 1) + folded
    return out.reshape(B, T, C, H, W).transpose(1, 0, 2, 3, 4)


def dta_ref(spikes, txa_p, tna_p):
    a, b = t_xa_maps_ref(spikes, txa_p.tla_kernel.values, txa_p.cla_kernel.values,
                         txa_p.p_t.values, txa_p.p_c.values)
    return dta_gate_ref(spikes, a, b, t_na_ref(spikes, tna_p))
