"""Span tracer for the dtasnn training benchmark.

The tracer wraps the layers' public functions where their callers look them
up (``dtasnn.network.dta``, ``dtasnn.attention.ltca``,
``dtasnn.ops.apply_primitive``, ...), so no source file of the engine changes.
Every wrapped call becomes a span ``(name, start, end, parent)`` kept in
memory. Every ``backward_fn`` handed to ``apply_primitive`` is wrapped too:
its backward time becomes a span charged to the span that was open when the
node was recorded. Bytes held on the tape are counted per recorded node as
``out.values`` plus the arrays in the backward closure, each base array
counted once per record and parameter arrays not at all.

A span's layer is the part of its name before the first dot. A layer's self
time is the time its spans cover minus the time their child spans cover, so
the self times inside one training step add up to the step's duration.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

from dtasnn import attention, data, network, neuron, ops, tensor, training

LAYERS = ("training", "network", "neuron", "attention", "ops", "tensor")

# (span name, attribute, modules whose global of that name gets wrapped)
_FUNCTIONS = (
    ("ops.conv2d", "conv2d", (network, attention)),
    ("ops.conv1d", "conv1d", (attention,)),
    ("ops.linear", "linear", (network, attention)),
    ("ops.batch_norm_2d", "batch_norm_2d", (network,)),
    ("attention.dta", "dta", (network,)),
    ("attention.t_xa", "t_xa", (attention,)),
    ("attention.t_na", "t_na", (attention,)),
    ("attention.ltca", "ltca", (attention,)),
    ("attention.gtca", "gtca", (attention,)),
    ("training.train", "train", (training,)),
    ("training.cross_entropy", "cross_entropy", (training,)),
    ("training.evaluate", "evaluate", (training,)),
    ("tensor.backward", "backward", (training,)),
    ("network.save_checkpoint", "save_checkpoint", (training,)),
    ("network.load_checkpoint", "load_checkpoint", (network,)),
    ("data.gen_synthetic", "gen_synthetic", (data,)),
)

_PRIMITIVE_MODULES = (tensor, ops, neuron, attention, network, training)


class TraceError(RuntimeError):
    """Spans were closed out of order."""


class _Traced:
    """Proxy that turns calls of a network layer object into spans."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __call__(self, *args, **kwargs):
        idx = self._tracer.open(self._name)
        try:
            return self._inner(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _base(arr):
    """The array that owns the memory behind *arr*, and its size in bytes."""
    owner, nbytes = arr, arr.nbytes
    while getattr(owner, "base", None) is not None:
        owner = owner.base
        if isinstance(owner, np.ndarray):
            nbytes = owner.nbytes
    return id(owner), nbytes


class Tracer:
    """In-memory spans over one process; install with ``with tracer:``."""

    def __init__(self):
        # span: [name, start, end, parent span, step span, recorded node or -1]
        self.spans: list[list] = []
        # node: (names of the spans open when it was recorded, tape bytes, step span)
        self.nodes: list[tuple] = []
        self.spike_sum = 0.0
        self.spike_count = 0
        self._stack: list[int] = []
        self._path: tuple = ()
        self._step = -1
        self._seen: set = set()
        self._params: set = set()
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, node: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._step, node]
        self.spans.append(span)
        self._stack.append(idx)
        self._path += (name,)
        span[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise TraceError(f"span {self.spans[idx][0]!r} closed out of order")
        self._stack.pop()
        self._path = self._path[:-1]
        self.spans[idx][2] = end

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except AttributeError:  # a hook point was renamed: leave nothing patched
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        for name, attr, modules in _FUNCTIONS:
            for module in modules:
                self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        self._patch(network, "_spike_layer", self._spike_layer(network._spike_layer))
        self._patch(training, "stack_batch", self._stack_batch(training.stack_batch))
        self._patch(training, "sgd_step", self._sgd_step(training.sgd_step))
        self._patch(training, "ComputationRecord", self._record_class())
        traced_apply = self._apply_primitive(tensor.apply_primitive)
        for module in _PRIMITIVE_MODULES:
            if getattr(module, "apply_primitive", None) is tensor.apply_primitive \
                    and module is not tensor:
                self._patch(module, "apply_primitive", traced_apply)
        self._patch(tensor, "apply_primitive", traced_apply)

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def attach(self, net) -> None:
        """Trace one built network's forward pass, stem, blocks and head."""
        net.forward = self.wrap("network.forward", net.forward)
        net.stem_conv = _Traced(self, "network.stem", net.stem_conv)
        net.stem_bn = _Traced(self, "network.stem", net.stem_bn)
        net.blocks = [_Traced(self, f"network.block{i}", b) for i, b in enumerate(net.blocks)]
        net.head = _Traced(self, "network.head", net.head)
        self._params = {_base(p.values)[0] for p in net.parameters()}

    # -- hooks -------------------------------------------------------------

    def _spike_layer(self, fn):
        def spike_layer(*args, **kwargs):
            idx = self.open("neuron.lif_unroll")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if self._step >= 0:
                self.spike_sum += float(out.values.sum(dtype=np.float64))
                self.spike_count += out.size
            return out
        return spike_layer

    def _stack_batch(self, fn):
        def stack_batch(samples):
            if (self._step < 0 and "training.train" in self._path
                    and "training.evaluate" not in self._path):
                self._step = self.open("training.step")
                self.spans[self._step][4] = self._step
            idx = self.open("training.stack_batch")
            try:
                return fn(samples)
            finally:
                self.close(idx)
        return stack_batch

    def _sgd_step(self, fn):
        def sgd_step(*args, **kwargs):
            idx = self.open("training.sgd_step")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if self._step >= 0:
                    self.close(self._step)
                    self._step = -1
        return sgd_step

    def _record_class(self):
        tracer = self

        class TracedRecord(tensor.ComputationRecord):
            def __init__(self):
                super().__init__()
                tracer._seen = set()

        return TracedRecord

    def _apply_primitive(self, fn):
        def apply_primitive(inputs, out_values, backward_fn):
            owner = self._path
            idx = self.open("tensor.record")
            try:
                node = len(self.nodes)

                def bwd(g):
                    b = self.open(owner[-1] if owner else "tensor.backward", node)
                    try:
                        return backward_fn(g)
                    finally:
                        self.close(b)

                out = fn(inputs, out_values, bwd)
                if out.rec is not None:
                    self.nodes.append((owner, self._tape_bytes(out, backward_fn), self._step))
                return out
            finally:
                self.close(idx)
        return apply_primitive

    def _tape_bytes(self, out, backward_fn) -> int:
        arrays = [out.values]
        for cell in backward_fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # cell not yet bound
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, tensor.Tensor):
                arrays.append(value.values)
        total = 0
        for arr in arrays:
            key, nbytes = _base(arr)
            if key in self._seen or key in self._params:
                continue
            self._seen.add(key)
            total += nbytes
        return total

    # -- reduction ---------------------------------------------------------

    def step_ids(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == "training.step"]

    def per_step(self) -> dict:
        """Per training step: span times, tape counts and layer self times.

        Returns ``{step span: {"fwd": {name: ms}, "calls": {name: n},
        "bwd": {name: ms}, "tape_mb": {name: MB}, "tape_nodes": {name: n},
        "self": {layer: ms}, "step_ms": ms}}``; fwd, bwd and tape figures of a
        name include those of the spans nested in it.
        """
        steps = {sid: {"fwd": defaultdict(float), "calls": defaultdict(int),
                       "bwd": defaultdict(float), "tape_mb": defaultdict(float),
                       "tape_nodes": defaultdict(int), "self": defaultdict(float)}
                 for sid in self.step_ids()}
        child = defaultdict(float)
        for name, start, end, parent, step, node in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, step, node) in enumerate(self.spans):
            if step not in steps:
                continue
            agg = steps[step]
            dur = (end - start) * 1e3
            agg["self"][name.split(".")[0]] += dur - child[idx] * 1e3
            if node >= 0:
                for owner in set(self.nodes[node][0]):
                    agg["bwd"][owner] += dur
            else:
                agg["fwd"][name] += dur
                agg["calls"][name] += 1
        for path, nbytes, step in self.nodes:
            if step not in steps:
                continue
            agg = steps[step]
            for owner in set(path):
                agg["tape_mb"][owner] += nbytes / 2**20
                agg["tape_nodes"][owner] += 1
            # the whole tape, which the tensor layer owns
            agg["tape_mb"]["tensor"] += nbytes / 2**20
            agg["tape_nodes"]["tensor"] += 1
        for sid, agg in steps.items():
            agg["step_ms"] = (self.spans[sid][2] - self.spans[sid][1]) * 1e3
        return steps

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name and s[5] < 0]

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class RecordCounter:
    """Counts the step records of a round that are still reachable when it ends.

    Install with ``with counter:``; it replaces the ``ComputationRecord`` that
    ``train`` uses with a subclass that keeps a weak reference to each record,
    and installs nothing else.
    """

    def __init__(self):
        self.alive: list[int] = []
        self._refs: list = []
        self._orig = None

    def __enter__(self) -> "RecordCounter":
        refs = self._refs

        class CountedRecord(tensor.ComputationRecord):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        self._orig = training.ComputationRecord
        training.ComputationRecord = CountedRecord
        return self

    def __exit__(self, *exc) -> None:
        training.ComputationRecord = self._orig

    def count(self) -> None:
        """Note how many records made since the last count are still alive."""
        self.alive.append(sum(r() is not None for r in self._refs))
        self._refs.clear()


def median(values) -> float | None:
    return float(statistics.median(values)) if values else None
