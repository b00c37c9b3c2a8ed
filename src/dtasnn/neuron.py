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
spikes are exactly binary; :func:`lif_forward` runs the same recurrence on raw
arrays and also returns the potentials.

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
surrogate, and the backward keeps the float operations and their order of the
whole-array form (``lif_bptt_ref`` in the test oracles), so its gradients are
bit-identical to it in float32 and float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def lif_forward(c: np.ndarray, p: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """Potentials and binary spikes of the recurrence over axis 0 of *c*, as raw arrays."""
    tau = c.dtype.type(p.tau)
    u = np.empty_like(c)
    spikes = np.empty_like(c)
    u[0] = c[0]
    np.greater_equal(u[0], p.v_th, out=spikes[0])
    for t in range(1, c.shape[0]):
        np.multiply(u[t - 1], tau, out=u[t])
        u[t] *= 1.0 - spikes[t - 1]
        u[t] += c[t]
        np.greater_equal(u[t], p.v_th, out=spikes[t])
    return u, spikes


def lif_unroll(x: Tensor, p: LifParams, steps: int | None = None) -> Tensor:
    """Binary spikes shaped like *x* from input currents whose leading axis
    stacks *steps* time steps (all of it when *steps* is None)."""
    if steps is None:
        steps = x.shape[0] if x.ndim else 0
    if x.ndim < 1 or steps < 1 or x.shape[0] < steps or x.shape[0] % steps:
        raise ShapeError(f"lif_unroll needs a leading axis of at least one step "
                         f"that splits into {steps} time steps, got shape {x.shape}")
    shape, tau = x.shape, x.dtype.type(p.tau)
    u, spikes = lif_forward(x.values.reshape(steps, -1), p)

    def bwd(g):
        # the float ops of the chain rule through the step-by-step graph
        # (1 - s, u * tau, times the reset, plus c, fire), in that graph's
        # reverse order, so the gradients are the bits an unrolled tape gives
        g = g.reshape(steps, -1)
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
        return (du.reshape(shape),)

    return apply_primitive((x,), spikes.reshape(shape), bwd)
