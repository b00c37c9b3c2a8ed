"""Central-finite-difference gradient checking.

Used by the test suite and by the ``gradcheck`` CLI command. Checks run in
float64 so that the central difference with step ``FD_STEP`` resolves the
tight tolerances; the analytic path exercises exactly the same kernels the
float32 engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import ComputationRecord, Tensor, backward, zero_grads

FD_STEP = 1e-3

# the entries of run_suite, in the order it reports them; each is also a valid
# ``break_op``
CHECK_NAMES = ("add", "mul", "sigmoid", "gelu", "relu", "mean", "tsum", "reshape",
               "transpose", "conv2d", "conv2d_depthwise", "conv1d", "linear",
               "batch_norm_2d", "cross_entropy", "lif_unroll", "dta_block",
               "conv2d_pointwise", "dta_gate", "batch_norm_lif", "recompute")


def numerical_grad(f: Callable[[], Tensor], t: Tensor) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` w.r.t. ``t.values``."""
    flat = t.values.reshape(-1)
    grad = np.zeros_like(flat, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f().item()
        flat[i] = orig - FD_STEP
        lo = f().item()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad.reshape(t.shape)


def analytic_grads(f: Callable[[], Tensor], params: Sequence[Tensor]) -> list[np.ndarray]:
    zero_grads(params)
    with ComputationRecord():
        loss = f()
        backward(loss)
    return [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| scaled by the larger gradient magnitude (floored at 1e-6)."""
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), 1e-6)
    return float(np.abs(a - b).max(initial=0.0)) / scale


def gradcheck(f: Callable[[], Tensor], params: Sequence[Tensor],
              flip_sign: bool = False) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``flip_sign`` negates the analytic gradients; the CLI uses it as a
    fault-injection self-test that must make the check fail.
    """
    analytic = analytic_grads(f, params)
    worst = 0.0
    for p, a in zip(params, analytic):
        if flip_sign:
            a = -a
        n = numerical_grad(f, p)
        worst = max(worst, max_relative_error(a.astype(np.float64), n))
    return worst


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def conv2d_loop(x, w, stride, padding, dilation):
    """Six-nested-loop 2-D cross-correlation in float64, the conv2d forward oracle.

    The channel grouping comes from the weight shape, as in ``ops.conv2d``:
    ``C // Cg`` groups of input channels.
    """
    B, C, H, W = x.shape
    Cout, Cg, kh, kw = w.shape
    Ho = (H + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    Wo = (W + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + H, padding:padding + W] = x
    out = np.zeros((B, Cout, Ho, Wo), dtype=np.float64)
    opg = Cout // (C // Cg)
    for b in range(B):
        for co in range(Cout):
            g = co // opg
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for ci in range(Cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (w[co, ci, u, v]
                                        * xp[b, g * Cg + ci,
                                             i * stride + u * dilation,
                                             j * stride + v * dilation])
                    out[b, co, i, j] = acc
    return out


def lif_input_grad_oracle(currents: np.ndarray, p,
                          upstream: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ``sum(upstream * spikes)`` w.r.t. the ``(T, ...)`` currents.

    Differentiates the membrane recurrence by hand in forward mode (one pass
    per source step), substituting the triangular surrogate for the firing
    step's derivative, independently of the taped backward pass. ``upstream``
    defaults to ones: the gradient of the total spike count.
    """
    from .neuron import surrogate_values

    T = len(currents)
    if upstream is None:
        upstream = np.ones_like(currents)
    us, ss = [], []
    u = np.zeros_like(currents[0])
    s = np.zeros_like(u)
    for t in range(T):
        u = p.tau * u * (1.0 - s) + currents[t]
        s = (u >= p.v_th).astype(u.dtype)
        us.append(u)
        ss.append(s)
    grads = []
    for k in range(T):
        du = np.zeros_like(u)
        total = np.zeros_like(u)
        for t in range(k, T):
            if t == k:
                du = np.ones_like(u)
            else:
                carry = (1.0 - ss[t - 1])
                if not p.reset_detached:
                    carry = carry - us[t - 1] * surrogate_values(us[t - 1], p)
                du = p.tau * du * carry
            total = total + upstream[t] * surrogate_values(us[t], p) * du
        grads.append(total)
    return np.stack(grads)


def run_suite(break_op: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Gradcheck every smooth primitive plus the composed attention/neuron paths.

    Each operation appears exactly once. Smooth operations are checked against
    central differences; the spiking unroll (a step function forward, so not
    finite-differentiable) is checked against the hand-unrolled recurrence
    oracle. ``break_op`` flips the sign of that operation's analytic gradient
    so the harness can prove it detects faults.
    """
    from . import attention, network, neuron, ops, training
    from . import tensor as tz

    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def param(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)

    def probe(*shape):
        return Tensor(rng.standard_normal(shape), dtype=np.float64)

    def run(name, tol, f, params):
        err = gradcheck(f, params, flip_sign=(break_op == name))
        results.append(CheckResult(name, err, tol))

    a = param(2, 3)
    b = param(1, 3)
    run("add", 1e-3, lambda: tz.tsum(tz.add(a, b)), [a, b])
    c = param(2, 3)
    pm = probe(2, 3)
    run("mul", 1e-3, lambda: tz.tsum(tz.mul(a, c) * pm), [a, c])

    s = param(3, 4)
    w_probe = probe(3, 4)
    run("sigmoid", 1e-3, lambda: tz.tsum(tz.sigmoid(s) * w_probe), [s])
    run("gelu", 1e-3, lambda: tz.tsum(tz.gelu(s) * w_probe), [s])
    rl = param(3, 4)
    rl.values += 0.05 * np.sign(rl.values)  # keep points away from the kink
    run("relu", 1e-3, lambda: tz.tsum(tz.relu(rl) * w_probe), [rl])
    p_mean = probe(3)
    run("mean", 1e-3, lambda: tz.tsum(tz.mean(s, axes=(1,)) * p_mean), [s])
    run("tsum", 1e-3, lambda: tz.tsum(tz.tsum(s, axes=(1,)) * p_mean), [s])
    p_flat = probe(4, 3)
    run("reshape", 1e-3, lambda: tz.tsum(tz.reshape(s, (4, 3)) * p_flat), [s])
    run("transpose", 1e-3, lambda: tz.tsum(tz.transpose(s, (1, 0)) * p_flat), [s])

    def run_conv2d(name, x, w, probe_out, **geometry):
        # central differences see only what the forward computes, so a forward
        # error that the backward mirrors shows only against the loop oracle
        fwd = max_relative_error(ops.conv2d(x, w, **geometry).values,
                                 conv2d_loop(x.values, w.values, **geometry))
        err = gradcheck(lambda: tz.tsum(ops.conv2d(x, w, **geometry) * probe_out), [x, w],
                        flip_sign=(break_op == name))
        results.append(CheckResult(name, max(err, fwd), 1e-3))

    # general path: a dense weight at stride 2 with padding 1
    x2 = param(2, 4, 5, 5, scale=0.5)
    w2 = param(3, 4, 3, 3, scale=0.5)
    probe2 = Tensor(rng.standard_normal((2, 3, 3, 3)), dtype=np.float64)
    run_conv2d("conv2d", x2, w2, probe2, stride=2, padding=1, dilation=1)
    # depth-wise path, stride 2 and dilation 3: five of the nine taps read
    # padding only
    xd = param(2, 3, 4, 4, scale=0.5)
    wd = param(3, 1, 3, 3, scale=0.5)
    probed = Tensor(rng.standard_normal((2, 3, 2, 2)), dtype=np.float64)
    run_conv2d("conv2d_depthwise", xd, wd, probed, stride=2, padding=3, dilation=3)

    x1 = param(1, 2, 5, scale=0.5)
    w1 = param(2, 2, 3, scale=0.5)
    probe1 = Tensor(rng.standard_normal((1, 2, 5)), dtype=np.float64)
    run("conv1d", 1e-4, lambda: tz.tsum(ops.conv1d(x1, w1) * probe1), [x1, w1])

    xl = param(3, 4, scale=0.5)
    wl = param(2, 4, scale=0.5)
    bl = param(2, scale=0.1)
    probel = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
    run("linear", 1e-4, lambda: tz.tsum(ops.linear(xl, wl, bl) * probel), [xl, wl, bl])

    xb = param(4, 2, 3, 3)
    gb = param(2, scale=0.5)
    gb.values += 1.0
    bb = param(2, scale=0.1)
    probeb = Tensor(rng.standard_normal((4, 2, 3, 3)), dtype=np.float64)

    def bn_loss(training):
        st = ops.BatchNormState(2, dtype=np.float64)
        if not training:  # fixed stored statistics, unlike the batch's
            st.running_mean[:] = (0.3, -0.2)
            st.running_var[:] = (0.8, 1.5)
            st.batches_tracked = 1
        return tz.tsum(ops.batch_norm_2d(xb, gb, bb, st, training) * probeb)

    # both modes under one entry: the worse of the two errors
    bn_err = max(gradcheck(lambda: bn_loss(mode), [xb, gb, bb],
                           flip_sign=(break_op == "batch_norm_2d"))
                 for mode in (True, False))
    results.append(CheckResult("batch_norm_2d", bn_err, 1e-3))

    logits = param(3, 4)
    labels = [0, 2, 1]
    run("cross_entropy", 1e-4, lambda: training.cross_entropy(logits, labels), [logits])

    # LIF unroll against the hand-differentiated recurrence, not finite
    # differences: the spiking forward is a step function.
    lif_p = neuron.LifParams(tau=0.5, v_th=1.0, alpha=1.0)
    cs = param(3, 4, scale=0.4)
    cs.values += 0.8  # membrane potentials land inside the surrogate support
    (analytic,) = analytic_grads(lambda: tz.tsum(neuron.lif_unroll(cs, lif_p)), [cs])
    if break_op == "lif_unroll":
        analytic = -analytic
    oracle = lif_input_grad_oracle(cs.values, lif_p)
    results.append(CheckResult("lif_unroll", max_relative_error(analytic, oracle), 1e-3))

    # full attention block over fixed binary spikes, grads on all parameters
    spk = Tensor((rng.random((2, 1, 2, 4, 4)) < 0.5).astype(np.float64))
    txa = attention.TxaParams.init(2, 2, rng, dtype=np.float64)
    tna = attention.TnaParams.init(2, 2, rng, dtype=np.float64)
    dta_params = [p for branch in (txa, tna) for _, p in network.named_leaves(branch)]
    for p in dta_params:
        p.values[...] = rng.standard_normal(p.shape) * 0.3
    probe_d = Tensor(rng.standard_normal(spk.shape), dtype=np.float64)
    run("dta_block", 1e-3, lambda: tz.tsum(attention.dta(spk, txa, tna) * probe_d),
        dta_params)

    # point-wise path at the residual downsample's geometry: 1x1, stride 2
    xp = param(2, 3, 5, 5, scale=0.5)
    wp = param(4, 3, 1, 1, scale=0.5)
    probep = Tensor(rng.standard_normal((2, 4, 3, 3)), dtype=np.float64)
    run_conv2d("conv2d_pointwise", xp, wp, probep, stride=2, padding=0, dilation=1)

    # the fused gate with both branches, T-XA only and T-NA only: the worst
    # error of the three. The spikes are binary, so their gradient is checked
    # against central differences of the gate's formula over real-valued
    # spikes, x * sigmoid((x + a) * (x + b) * tna).
    gs = Tensor((rng.random((2, 2, 3, 2, 2)) < 0.5).astype(np.float64), requires_grad=True)
    ga, gb = param(2, 2, 3, scale=0.5), param(2, 2, 3, scale=0.5)
    gt = param(2, 2, 3, 2, 2)
    probe_g = probe(2, 2, 3, 2, 2)
    flip = break_op == "dta_gate"
    gate_err = 0.0
    for maps, tna_out in (((ga, gb), gt), ((ga, gb), None), ((None, None), gt)):
        def gate_loss():
            return tz.tsum(attention.dta_gate(gs, *maps, tna_out) * probe_g)

        def real_spikes_loss():
            x = gs.values
            pre = np.ones_like(x) if tna_out is None else tna_out.values
            if maps[0] is not None:
                pre = pre * (x + ga.values[..., None, None]) * (x + gb.values[..., None, None])
            return Tensor(np.sum(probe_g.values * x / (1.0 + np.exp(-pre))))

        (g_spikes,) = analytic_grads(gate_loss, [gs])
        gate_err = max(gate_err,
                       gradcheck(gate_loss, [t for t in (*maps, tna_out) if t is not None],
                                 flip_sign=flip),
                       max_relative_error(-g_spikes if flip else g_spikes,
                                          numerical_grad(real_spikes_loss, gs)))
    results.append(CheckResult("dta_gate", gate_err, 1e-3))

    # batch norm fused with the spiking layer after it, in both modes. The
    # oracle chains the two: the hand-differentiated recurrence gives the
    # gradient at the batch-norm output, and central differences of batch
    # norm alone carry it to x, gamma and beta.
    xn = param(6, 2, 2, 3)  # T = 3 steps of B = 2, folded
    gamma_n = param(2, scale=0.2)
    gamma_n.values += 0.5
    beta_n = param(2, scale=0.1)
    beta_n.values += 0.8  # potentials land inside the surrogate support
    probe_n = probe(6, 2, 2, 3)
    fused_err = 0.0
    for training in (True, False):
        def state():
            st = ops.BatchNormState(2, dtype=np.float64)
            if not training:
                st.running_mean[:] = (0.2, -0.1)
                st.running_var[:] = (0.9, 1.4)
                st.batches_tracked = 1
            return st

        bn_args = (xn, gamma_n, beta_n)
        analytic = analytic_grads(lambda: tz.tsum(neuron.batch_norm_lif(
            *bn_args, state(), training, lif_p, 3) * probe_n), bn_args)
        y = ops.batch_norm_2d(*bn_args, state(), training).values
        gy = Tensor(lif_input_grad_oracle(y.reshape(3, -1), lif_p,
                                          probe_n.values.reshape(3, -1)).reshape(y.shape))
        for p, a in zip(bn_args, analytic):
            oracle = numerical_grad(
                lambda: tz.tsum(ops.batch_norm_2d(*bn_args, state(), training) * gy), p)
            fused_err = max(fused_err, max_relative_error(
                -a if break_op == "batch_norm_lif" else a, oracle))
    results.append(CheckResult("batch_norm_lif", fused_err, 1e-3))

    # a recomputed region: xr feeds it and the loss beside it, wr and br
    # are read by closure, and the constant cr gets no partial
    xr, wr, br = param(3, 4), param(2, 4, scale=0.5), param(2, scale=0.1)
    cr, probe_r, probe_x = probe(3, 4), probe(3, 2), probe(3, 4)
    run("recompute", 1e-3, lambda: tz.tsum(
        tz.recompute(lambda x, c: tz.gelu(ops.linear(x * c, wr, br)), xr, cr) * probe_r
        + tz.tsum(xr * probe_x)), [xr, wr, br])

    return results
