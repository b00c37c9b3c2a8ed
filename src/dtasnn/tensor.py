"""Dense tensors with taped reverse-mode automatic differentiation.

A :class:`Tensor` wraps a contiguous numpy array. While a
:class:`ComputationRecord` is active (``with ComputationRecord():``), every
primitive appends one node to the record; :func:`backward` replays the nodes
in exact reverse creation order and accumulates gradients additively. Only
the leaves (tensors that require gradients) keep theirs: an intermediate's
gradient is dropped as soon as its node's backward has consumed it. A tensor
that neither requires gradients nor is the output of a recorded primitive is
a constant and never receives gradients.

Memory: a node keeps a gradient slot for its output, not the output, and its
backward closure keeps exactly the arrays that backward reads (as PyTorch's
``ctx.save_for_backward`` does), so an intermediate dies with the forward's
last reference unless a backward reads it. An array a backward reads whose
values are all exactly 0 or 1, such as spikes or a conv's padded grid of
them, is kept as uint8 (:func:`pack`; the "binarize" encoding of Jain et
al., "Gist", ISCA 2018), a quarter of float32's bytes, and the backward
widens it back as one transient array. :func:`backward` takes each node
off its record as its turn comes, freeing what its backward kept, and a
record holds no tape once its backward returns. A record whose ``with``
block raises drops its tape on exit. Importing this module pins two glibc
allocator thresholds for the process (see :func:`_keep_freed_pages`), so a
freed tape stays in the heap and the next step reuses it instead of
faulting fresh pages in, and runs every loaded OpenBLAS on one thread (see
:func:`_pin_blas_threads`), so results do not depend on the environment's
thread count.

Default element type is float32. Kernels are dtype-generic, so verification
code may run the same graph in float64 by constructing float64 tensors.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Iterable

import numpy as np
from scipy.special import erf as _erf, expit as _expit

DEFAULT_DTYPE = np.float32

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages(open_libc=ctypes.CDLL) -> None:
    """Keep freed tape memory in this process's heap for the next step.

    A step frees its tape node by node during the backward. With glibc's
    defaults, large blocks are mapped one by one and unmapped when freed,
    and free memory at the top of the heap is trimmed, so every step
    faults its tape back in. Serving blocks below 32 MiB (glibc's highest
    mmap threshold on 64-bit) from the heap, and trimming only past 1 GiB
    free, keeps those pages mapped.
    This acts on the calling process's allocator only. On a C library
    without ``mallopt`` it does nothing.
    """
    try:
        mallopt = open_libc(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_pages()


def _pin_blas_threads(maps: str = "/proc/self/maps", open_lib=ctypes.CDLL) -> list:
    """Run every OpenBLAS loaded in this process on one thread.

    numpy and scipy each load their own OpenBLAS, which starts as many
    threads as ``OPENBLAS_NUM_THREADS`` (or the core count) asks for. More
    than one changes the summation order of a GEMM, so the trained bits,
    and made a step slower on a two-core host. The loaded libraries are
    found in the process's memory map and pinned through their
    ``set_num_threads`` symbol (numpy's ``scipy_openblas_..._64_`` build,
    scipy's ``scipy_openblas_...``, or a plain ``openblas_...``).
    Returns ``(path, get_num_threads symbol)`` per pinned library. This acts
    on the calling process only; where the map, a library or a symbol is
    missing, it does nothing.
    """
    try:
        with open(maps) as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return []
    pinned = []
    for path in paths:
        try:
            lib = open_lib(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            setter = getattr(lib, name.format("set_num_threads"), None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter(1)
                pinned.append((path, name.format("get_num_threads")))
                break
    return pinned


BLAS_PINNED = _pin_blas_threads()


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GeometryError(ShapeError):
    """A convolution was asked to produce an empty output extent."""


class RecordError(RuntimeError):
    """Misuse of a computation record (reuse, cross-record mixing, ...)."""


def broadcast_shape(a: tuple, b: tuple) -> tuple:
    """numpy's broadcast shape of *a* and *b*, or :class:`ShapeError`."""
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        raise ShapeError(f"shapes {a} and {b} are not broadcast-compatible") from None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum *grad* over the axes that broadcasting expanded, back to *shape*."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional float array with an optional gradient buffer.

    ``requires_grad`` marks optimizable leaves; intermediate tensors are
    tracked automatically through the active record. Values are contiguous
    and treated as immutable while a record referencing them is alive (the
    optimizer mutates parameter values only between records).
    """

    __slots__ = ("values", "grad", "rec", "slot", "requires_grad")

    def __init__(self, values, requires_grad: bool = False,
                 dtype: np.dtype | None = None):
        if dtype is not None:
            target = dtype
        elif (isinstance(values, (np.ndarray, np.generic))
              and values.dtype in (np.float32, np.float64)):
            target = values.dtype
        else:
            target = DEFAULT_DTYPE
        arr = np.asarray(values, dtype=target)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy(order="C")  # keeps 0-d shapes, unlike ascontiguousarray
        self.values = arr
        self.grad: np.ndarray | None = None
        self.rec: ComputationRecord | None = None
        self.slot: _Slot | None = None  # the gradient slot of a recorded output
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(())[()])

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flags})"

    # arithmetic sugar between tensors; the free functions hold the rules
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


class _Slot:
    """Where the gradient of one recorded output accumulates."""
    grad: np.ndarray | None = None


class _Node:
    """A recorded primitive: its output's slot, and per input the slot of a
    recorded intermediate, a leaf Tensor or None (a constant). It holds no
    intermediate Tensor, so only its backward closure keeps arrays alive."""

    __slots__ = ("inputs", "slot", "backward_fn")

    def __init__(self, inputs, slot, backward_fn):
        self.inputs = inputs
        self.slot = slot
        self.backward_fn = backward_fn


_ACTIVE: "ComputationRecord | None" = None


class ComputationRecord:
    """Append-only tape of executed primitives.

    Creation order is topological order; :func:`backward` traverses it in
    exact reverse, taking each node off the tape as it goes, so the tape is
    empty once the backward returns. A record is single-use: a second
    backward raises :class:`RecordError`. If the ``with`` block exits on an
    exception, the record drops its nodes and refuses a later backward too.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._backward_done = False

    def __enter__(self) -> "ComputationRecord":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RecordError("a computation record is already active")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None
        if exc_type is not None:
            # a caller's output (the loss) keeps the record alive, so clear
            # the nodes to free an aborted step's tape now
            self.nodes.clear()
            self._backward_done = True


def binary_bytes(a: np.ndarray) -> np.ndarray | None:
    """*a* as a uint8 array of 0s and 1s, or None when some value of *a* is
    not exactly 0 or 1 (a ``-0.0`` or a NaN counts as not)."""
    ones = a == 1
    if np.count_nonzero(ones) != np.count_nonzero(a.view(f"u{a.itemsize}")):
        return None
    return ones.view(np.uint8)


def pack(a: np.ndarray) -> np.ndarray:
    """What a backward should keep of the float array *a*: its
    :func:`binary_bytes` when a record is active and *a* is binary, else *a*
    itself. The backward widens a packed array back to its compute dtype."""
    if _ACTIVE is None:
        return a
    packed = binary_bytes(a)
    return a if packed is None else packed


def apply_primitive(inputs: tuple, out_values: np.ndarray,
                    backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Create the output tensor of a primitive, recording it if traced.

    ``backward_fn`` maps the upstream gradient to one partial per input
    (``None`` for inputs with no gradient path).
    """
    out = Tensor(out_values)
    rec = _ACTIVE
    if rec is None:
        return out
    traced = False
    for t in inputs:
        if t.rec is not None and t.rec is not rec:
            raise RecordError("input tensor belongs to a different computation record")
        traced = traced or t.rec is rec or t.requires_grad
    if traced:
        out.rec, out.slot = rec, _Slot()
        # from a list: a generator per node faulted heap pages in every step
        routes = tuple([t.slot if t.rec is rec else t if t.requires_grad else None
                        for t in inputs])
        rec.nodes.append(_Node(routes, out.slot, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate the gradients of the leaves reachable from the scalar *loss*.

    Accumulation is additive: a tensor consumed k times receives the sum of
    its k partials. Every consumer of a node's output was recorded after it,
    so the gradient in the output's slot is complete when the node's turn
    comes; it is dropped once the node's backward has run, and only leaves
    (tensors that require gradients) keep a ``.grad`` afterwards. Each node
    leaves the record as its turn comes, so the arrays its backward keeps
    are freed before the nodes recorded earlier run, and the record is
    empty when this returns, also when a node's backward raises. Raises on a
    non-scalar loss, a loss detached from any record, or a record whose
    backward already ran or whose block raised.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    rec = loss.rec
    if rec is None:
        raise RecordError("loss is not attached to a computation record")
    if rec._backward_done:
        raise RecordError("backward was already called on this record, or its block raised")
    rec._backward_done = True
    nodes = rec.nodes
    loss.slot.grad = np.ones_like(loss.values)
    try:
        while nodes:
            node = nodes.pop()
            g = node.slot.grad
            if g is None:
                continue
            partials = node.backward_fn(g)
            node.slot.grad = None
            for t, p in zip(node.inputs, partials):
                if t is not None and p is not None:
                    t.grad = p if t.grad is None else t.grad + p
    finally:
        nodes.clear()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# element-wise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    broadcast_shape(a_shape, b_shape)
    out = a.values + b.values

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return apply_primitive((a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    broadcast_shape(a.shape, b.shape)
    av, bv = a.values, b.values
    out = av * bv

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return apply_primitive((a, b), out, bwd)


# ---------------------------------------------------------------------------
# activations


def sigmoid(a: Tensor) -> Tensor:
    out = _expit(a.values).astype(a.dtype, copy=False)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply_primitive((a,), out, bwd)


def relu(a: Tensor) -> Tensor:
    av = a.values
    out = np.maximum(av, 0)

    def bwd(g):
        return (g * (av > 0),)

    return apply_primitive((a,), out, bwd)


# Python floats, so they take the input's dtype instead of promoting it
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def gelu(a: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact CDF form: x * Phi(x)."""
    av = a.values
    cdf = 0.5 * (1.0 + _erf(av * _INV_SQRT2))
    out = (av * cdf).astype(a.dtype, copy=False)

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * av * av)
        return (g * (cdf + av * pdf),)

    return apply_primitive((a,), out, bwd)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axes, ndim) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = tuple(ax if ax >= 0 else ax + ndim for ax in axes)
    for ax in out:
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for rank-{ndim} tensor")
    return out


def mean(a: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    out = a.values.mean(axis=axes)
    n = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    in_shape = a.shape

    def bwd(g):
        g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / n, in_shape).astype(g.dtype, copy=False).copy(),)

    return apply_primitive((a,), out, bwd)


def tsum(a: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    out = a.values.sum(axis=axes)
    in_shape = a.shape

    def bwd(g):
        g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, in_shape).astype(g.dtype, copy=False).copy(),)

    return apply_primitive((a,), out, bwd)


# ---------------------------------------------------------------------------
# layout


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} elements) to {shape}")
    out = a.values.reshape(shape)
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return apply_primitive((a,), out, bwd)


def transpose(a: Tensor, perm) -> Tensor:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(a.ndim)):
        raise ShapeError(f"invalid permutation {perm} for rank-{a.ndim} tensor")
    out = np.ascontiguousarray(np.transpose(a.values, perm))
    inv = tuple(np.argsort(perm))

    def bwd(g):
        return (np.ascontiguousarray(np.transpose(g, inv)),)

    return apply_primitive((a,), out, bwd)
