"""Multi-step leaky integrate-and-fire layer with a triangular surrogate gradient.

:func:`lif_unroll` runs the membrane dynamics over T time steps stacked along
the leading axis of the input current and records one tape node for all T
steps. The leading axis is either T itself, ``(T, ...)``, or T·B with the
batch folded in step-major order, ``(T·B, ...)``, the layout the backbone
keeps from stem to head; the neuron splits it into steps itself, on raw-array
views, and its spikes keep the input's shape.

The update is ``u(t) = tau * u(t-1) * (1 - s(t-1)) + c(t)`` from a zero state,
with a hard reset through the ``(1 - s(t-1))`` factor, and spikes fire
whenever the potential reaches the threshold (boundary inclusive). Forward
spikes are exactly binary; :func:`lif_potentials` runs the same recurrence on
raw arrays, into a new array or in place over the currents, and
:func:`lif_forward` returns the potentials and the spikes.

The node keeps only the potentials beside its spikes. Its backward pass
derives the surrogate ``sg(t)`` (a triangle of width ``2/alpha`` centered on
the threshold, standing in for the step function's derivative) from them and
runs backpropagation through time from the last step to the first::

    du(t) = g(t) * sg(t) + du(t+1) * tau * [(1 - s(t)) - u(t) * sg(t)]

``reset_detached`` drops the ``u(t) * sg(t)`` term, the gradient through the
reset factor.

The backward visits each step once and builds that step's surrogate, its
carried share ``tau * (u(t) < v_th)`` and ``u(t) * tau`` in step-sized scratch
buffers, so no array over all T steps is made beside the gradient itself.
:func:`surrogate_values` and the backward share one definition of the
surrogate, and the backward (:func:`lif_backward`, on raw arrays) keeps the
float operations and their order of the whole-array form (``lif_bptt_ref`` in
the test oracles), so its gradients are bit-identical to it in float32 and
float64.

:func:`batch_norm_lif` is batch norm followed by the spiking layer as one
node, for a batch norm whose output only a spiking layer reads. The
potentials are a pure function of batch norm's kept deviation, so that node
keeps the deviation alone and recomputes the potentials in its backward (the
recompute trade of Chen et al., "Training Deep Nets with Sublinear Memory
Cost", 2016): one full-size array on the tape instead of two, for one more
batch-norm affine and LIF forward per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (BatchNormState, batch_norm_affine, batch_norm_backward,
                  batch_norm_forward)
from .tensor import ShapeError, Tensor, apply_primitive


@dataclass(frozen=True)
class LifParams:
    """Neuron constants: membrane decay, firing threshold, surrogate width.

    ``reset_detached`` removes the reset factor from the gradient graph; the
    default keeps it, so gradients also flow through the previous step's spike.
    """

    tau: float = 0.5
    v_th: float = 1.0
    alpha: float = 1.0
    reset_detached: bool = False

    def __post_init__(self):
        # a checkpoint header's "0.5" or "false" is refused, not coerced
        for name in ("tau", "v_th", "alpha"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be a number, got {v!r}")
        if not isinstance(self.reset_detached, bool):
            raise ValueError(f"reset_detached must be a bool, got {self.reset_detached!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def surrogate_values(u: np.ndarray, p: LifParams) -> np.ndarray:
    """Triangular stand-in for the spike derivative, as a raw array.

    ``alpha * (1 - alpha * |u - v_th|)`` inside ``|u - v_th| < 1/alpha``,
    zero outside; peak value alpha, support width 2/alpha, unit area.
    """
    out = np.empty_like(u)
    _surrogate_into(u, p, out, np.empty(u.shape, dtype=bool))
    return out


def _surrogate_into(u: np.ndarray, p: LifParams, out: np.ndarray,
                    inside: np.ndarray) -> None:
    """Write :func:`surrogate_values` of *u* into *out*, using *inside* (a
    bool array shaped like *u*) as scratch."""
    np.subtract(u, p.v_th, out=out)
    np.abs(out, out=out)
    np.less(out, 1.0 / p.alpha, out=inside)
    np.multiply(p.alpha, out, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(p.alpha, out, out=out)
    # masking by a product is several times faster than np.where on a
    # scattered mask; adding 0.0 turns the -0.0 it leaves outside into 0.0
    np.multiply(out, inside, out=out)
    np.add(out, 0.0, out=out)


def lif_potentials(c: np.ndarray, p: LifParams, spikes: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Potentials of the recurrence over axis 0 of the currents *c*, as a raw
    array: written into *out*, or over *c* itself, in place, when *out* is
    None.

    Step t's spikes go to ``spikes[t]`` when *spikes* (shaped like *c*) is
    given; otherwise they live in a step-sized buffer only, so the in-place
    form costs no array beside *c*.
    """
    u = c if out is None else out
    tau = c.dtype.type(p.tau)
    # in place, u(t)'s carried term needs a buffer apart from c(t)
    carried = np.empty_like(c[0]) if out is None else None
    fired = np.empty_like(c[0]) if spikes is None else None
    for t in range(c.shape[0]):
        if t:  # u(t) = u(t-1) * tau * (1 - s(t-1)) + c(t)
            acc = u[t] if carried is None else carried
            np.multiply(u[t - 1], tau, out=acc)
            acc *= 1.0 - fired
            np.add(c[t], acc, out=u[t])
        elif out is not None:
            u[0] = c[0]
        if spikes is not None:
            fired = spikes[t]
        np.greater_equal(u[t], p.v_th, out=fired)
    return u


def lif_forward(c: np.ndarray, p: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """Potentials and binary spikes of the recurrence over axis 0 of *c*, as
    raw arrays; *c* itself is left as it was."""
    spikes = np.empty_like(c)
    return lif_potentials(c, p, spikes, np.empty_like(c)), spikes


def lif_backward(u: np.ndarray, g: np.ndarray, p: LifParams) -> np.ndarray:
    """Gradient w.r.t. the currents, from the ``(T, ...)`` potentials *u* and
    the spikes' upstream gradient *g*, as a raw array.

    The float ops of the chain rule through the step-by-step graph (1 - s,
    u * tau, times the reset, plus c, fire), in that graph's reverse order,
    so the gradients are the bits an unrolled tape gives.
    """
    steps, tau = u.shape[0], u.dtype.type(p.tau)
    du = np.empty_like(g)
    sg = np.empty_like(u[0])
    mask = np.empty(sg.shape, dtype=bool)
    carried = np.empty(sg.shape, dtype=np.result_type(g, u))
    _surrogate_into(u[-1], p, sg, mask)
    np.multiply(g[-1], sg, out=du[-1])
    for t in range(steps - 2, -1, -1):
        _surrogate_into(u[t], p, sg, mask)
        if p.reset_detached:
            g_spike = g[t]
        else:  # g(t) - du(t+1) * (u(t) * tau)
            g_spike = np.multiply(u[t], tau, out=carried)
            np.multiply(du[t + 1], carried, out=carried)
            np.subtract(g[t], carried, out=carried)
        np.multiply(g_spike, sg, out=du[t])
        # du(t+1) * (tau * (1 - s(t))), the carried share
        np.less(u[t], p.v_th, out=mask)
        np.multiply(mask, tau, out=carried)
        np.multiply(du[t + 1], carried, out=carried)
        du[t] += carried
    return du


def _check_steps(name: str, shape: tuple, steps: int | None) -> int:
    """*steps*, or the whole leading axis of *shape* when None; a
    :class:`ShapeError` unless that axis splits into that many steps."""
    if steps is None:
        steps = shape[0] if shape else 0
    if not shape or steps < 1 or shape[0] < steps or shape[0] % steps:
        raise ShapeError(f"{name} needs a leading axis of at least one step "
                         f"that splits into {steps} time steps, got shape {shape}")
    return steps


def lif_unroll(x: Tensor, p: LifParams, steps: int | None = None) -> Tensor:
    """Binary spikes shaped like *x* from input currents whose leading axis
    stacks *steps* time steps (all of it when *steps* is None)."""
    shape = x.shape
    steps = _check_steps("lif_unroll", shape, steps)
    u, spikes = lif_forward(x.values.reshape(steps, -1), p)

    def bwd(g):
        return (lif_backward(u, g.reshape(steps, -1), p).reshape(shape),)

    return apply_primitive((x,), spikes.reshape(shape), bwd)


def batch_norm_lif(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                   training: bool, p: LifParams, steps: int) -> Tensor:
    """Spikes of :func:`lif_unroll` over ``batch_norm_2d(x, gamma, beta,
    state, training)``, as one tape node that keeps no potentials.

    The forward is batch norm's (it updates *state* once in training mode)
    followed by :func:`lif_potentials` over its output, in place. The node
    keeps batch norm's deviation ``d`` and its per-channel ``scale`` and
    ``inv``; its backward rebuilds the batch-norm output and the potentials
    from them with the forward's float ops, runs :func:`lif_backward`, then
    batch norm's backward. Spikes, running statistics and gradients are the
    bits of the two-node composition.
    """
    shape = x.shape
    steps = _check_steps("batch_norm_lif", shape, steps)
    y, d, scale, inv = batch_norm_forward(x.values, gamma.values, beta.values,
                                          state, training)
    spikes = np.empty_like(y)
    # the potentials overwrite y, which nothing else reads
    lif_potentials(y.reshape(steps, -1), p, spikes.reshape(steps, -1))
    beta_v, dtype = beta.values, x.dtype

    def bwd(g):
        u = lif_potentials(batch_norm_affine(d, scale, beta_v, dtype).reshape(steps, -1), p)
        gy = lif_backward(u, g.reshape(steps, -1), p).reshape(shape)
        del u
        return batch_norm_backward(gy, d, scale, inv, training)

    return apply_primitive((x, gamma, beta), spikes, bwd)
