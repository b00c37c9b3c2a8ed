"""What a computation record's tape keeps alive: helpers for the memory tests.

A node keeps its output's gradient slot, the routes of its inputs and its
backward closure, so the arrays a tape keeps are the arrays its backward
closures name. These helpers list them, compare arrays by the memory they
own, count the bytes a tape holds, and watch every primitive's output as it
is recorded.
"""

import numpy as np

from dtasnn import attention, network, neuron, ops, tensor, training

_MODULES = (tensor, ops, neuron, attention, network, training)


def closure_values(fn) -> list:
    """The values *fn*'s closure names, with lists and tuples opened up."""
    values = []
    for cell in fn.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # cell not yet bound
            continue
    flat = []
    while values:
        v = values.pop()
        if isinstance(v, (list, tuple)):
            values.extend(v)
        else:
            flat.append(v)
    return flat


def tape_arrays(rec) -> list:
    """Every array named by the backward closure of a node still on *rec*."""
    return [v for node in rec.nodes for v in closure_values(node.backward_fn)
            if isinstance(v, np.ndarray)]


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory behind *arr*."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_bytes(rec, params) -> int:
    """Bytes of the distinct arrays that own the memory the backward
    closures of *rec*'s nodes name, the arrays of *params* excluded: what
    the tape holds beyond the network's own parameters."""
    skip = {id(owner(p.values)) for p in params}
    owners = {id(o): o for o in map(owner, tape_arrays(rec)) if id(o) not in skip}
    return sum(o.nbytes for o in owners.values())


def watch_outputs(monkeypatch, hook) -> None:
    """Call ``hook(out, backward_fn)`` for every primitive, recorded or not.

    Patches ``apply_primitive`` wherever an engine module looks it up, as
    perfbench's tracer does.
    """
    orig = tensor.apply_primitive

    def apply_primitive(inputs, out_values, backward_fn):
        out = orig(inputs, out_values, backward_fn)
        hook(out, backward_fn)
        return out

    for module in _MODULES:
        if getattr(module, "apply_primitive", None) is orig:
            monkeypatch.setattr(module, "apply_primitive", apply_primitive)
