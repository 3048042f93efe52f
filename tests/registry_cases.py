"""Test cases read off the primitive registry's wire field tables.

Every codec suite (``tests/core/test_packets.py``, the hypothesis
properties in ``tests/runtime/test_codec_properties.py``, the
scalar-vs-vector corpus of ``tests/kernels/test_wire.py``) draws its
per-primitive operations from here, so a field added to a table — or
a primitive added to the registry — is exercised by all of them
without a line of test code naming it.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.primitives import REGISTRY

OPERATIONS = [primitive.op for primitive in REGISTRY] \
    + [packets.Nack, packets.CongestionSignal]
PRIMITIVE_IDS = [primitive.service for primitive in REGISTRY]


def _ranges(wire) -> dict:
    """``{operation attribute: (lo, hi, tail or None)}`` — a fixed
    field's accept range (or what its width holds), a tail's count."""
    out = {}
    for field in wire.fields:
        if field.sizes:
            tail = wire.tail_of[field.sizes]
            out[tail.name] = (*tail.accept, tail)
        else:
            out[field.name] = (*(field.accept or field.natural), None)
    return out


def _value(lo, hi, tail, pick):
    """One attribute value: ``pick(lo, hi)`` chooses ints (and sizes)."""
    if tail is None:
        return pick(lo, hi)
    # Sizes are capped for speed; the boundary cases below go to ``hi``.
    size = pick(lo, min(hi, 48))
    if tail.item == 1:
        return bytes(pick(0, 255) for _ in range(size))
    return tuple(pick(0, 0xFFFFFFFF) for _ in range(size))


def sample(op_class, rng: random.Random):
    """A valid operation with every field drawn from its accept set."""
    return op_class(**{
        name: _value(lo, hi, tail, rng.randint)
        for name, (lo, hi, tail) in _ranges(op_class.WIRE).items()})


def operations(op_class):
    """Hypothesis strategy for valid ``op_class`` operations."""
    parts = {}
    for name, (lo, hi, tail) in _ranges(op_class.WIRE).items():
        if tail is None:
            parts[name] = st.integers(lo, hi)
        elif tail.item == 1:
            parts[name] = st.binary(min_size=lo, max_size=hi)
        else:
            parts[name] = st.lists(st.integers(0, 0xFFFFFFFF), min_size=lo,
                                   max_size=hi).map(tuple)
    return st.builds(op_class, **parts)


def boundaries(op_class) -> list:
    """Valid operations with one field at each end of its range."""
    ranges = _ranges(op_class.WIRE)
    base = {name: (lo if tail is None else
                   (b"k" * max(lo, 1) if tail.item == 1 else (7,) * max(lo, 1)))
            for name, (lo, hi, tail) in ranges.items()}
    out = []
    for name, (lo, hi, tail) in ranges.items():
        for edge in (lo, hi):
            value = edge if tail is None else \
                (b"\xab" * edge if tail.item == 1 else (0xFFFFFFFF,) * edge)
            out.append(op_class(**{**base, name: value}))
    return out


def unchecked(op_class, **values):
    """An operation built *without* its constructor's range checks
    (``pack`` does not validate): how the corpus puts out-of-range
    fields on the wire."""
    op = object.__new__(op_class)
    for name, value in values.items():
        object.__setattr__(op, name, value)
    return op


def out_of_range(op_class) -> list:
    """``(attribute, kwargs)`` with that one attribute just outside
    its accept set and representable on the wire; everything else
    valid."""
    wire = op_class.WIRE
    ranges = _ranges(wire)
    valid = {name: getattr(boundaries(op_class)[0], name) for name in ranges}
    out = []
    for field, lo, hi in wire.ranges:
        name = field.sizes or field.name
        natural_lo, natural_hi = field.natural
        tail = ranges[name][2]
        for bad in (lo - 1, hi + 1):
            if not natural_lo <= bad <= natural_hi:
                continue
            value = bad if tail is None else \
                (b"z" * bad if tail.item == 1 else (1,) * bad)
            out.append((name, {**valid, name: value}))
    return out


def batch_of(primitive, ops) -> ReportBatch:
    """The operations (sharing their run-wide extra) as one batch,
    filled in directly the way the assembler does."""
    batch = ReportBatch(primitive.code)
    if primitive.extra:
        setattr(batch, primitive.extra, primitive.extra_of(ops[0]))
    for field, column in zip(primitive.fields, primitive.columns):
        setattr(batch, column, [getattr(op, field) for op in ops])
    return batch
