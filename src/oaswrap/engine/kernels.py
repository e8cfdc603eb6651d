"""Completion kernels: one generated function per selection-set signature.

A kernel completes a raw upstream object on the fields of a compiled set that
it covers, the set's fields less ``CompiledSet.rest``, when every value fits:
the exact JSON type of a scalar, an Int within 32 bits, a finite Float, a
known raw enum value, null only where the field is nullable, a list of such
leaves, and a child object or list of objects that the child's kernel
completes. It then returns the response dict in response-key order, holding
None for each field in ``rest``; otherwise it returns None and the executor
completes the object on its general path.

A kernel is Python source, compiled with ``exec`` once per signature. It embeds
only ``repr()`` of strings and integer constants; enum tables, compiled
fields and child kernels reach it through the function's globals.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable

from ..ir import NON_NULL
from .validation import INT_MAX, INT_MIN, CompiledField, CompiledSet

Kernel = Callable[[dict], "dict | None"]

# The test that a raw value completes to itself, by the scalar's Python type.
_FITS = {
    str: "type({v}) is str",
    bool: "type({v}) is bool",
    int: f"type({{v}}) is int and {INT_MIN!r} <= {{v}} <= {INT_MAX!r}",
    float: "type({v}) is float and isfinite({v})",
}


def build_kernel(compiled: CompiledSet, child_kernel: Callable[[CompiledSet], Kernel]) -> Kernel:
    """The kernel of compiled; child_kernel gives the kernel of a child set."""
    names = {"isfinite": isfinite, "leaves": leaves, "objects": objects}
    rest = {id(f) for f in compiled.rest}
    reads, tests, items = [], [], []
    for i, f in enumerate(compiled.fields):
        if id(f) in rest:
            items.append(f"{f.key!r}: None")
            continue
        v = f"v{i}"
        reads.append(f"    {v} = get({f.raw_key!r})")
        value = v
        if f.shape == "leaf" and f.enum is not None:
            names[f"t{i}"] = f.enum
            test = f"type({v}) is str and {v} in t{i}"
            value = f"t{i}[{v}]"
        elif f.shape == "leaf":
            test = _FITS[f.plain].format(v=v)
        elif f.shape == "leaves":
            names[f"f{i}"] = f
            test = f"type({v}) is list and ({v} := leaves(f{i}, {v})) is not None"
        elif f.shape == "object":
            names[f"k{i}"] = child_kernel(f.child)
            test = f"type({v}) is dict and ({v} := k{i}({v})) is not None"
        else:
            names[f"k{i}"] = child_kernel(f.child)
            test = f"type({v}) is list and ({v} := objects(k{i}, {v})) is not None"
        if f.field_ir.type.kind != NON_NULL:
            test = f"{v} is None or {test}"
            if value != v:
                value = f"None if {v} is None else {value}"
        tests.append(f"({test})")
        items.append(f"{f.key!r}: {value}")
    source = "\n".join([
        "def kernel(raw):",
        "    get = raw.get",
        *reads,
        f"    if {' and '.join(tests)}:",
        f"        return {{{', '.join(items)}}}",
        "    return None",
    ])
    exec(compile(source, "<completion kernel>", "exec"), names)
    return names["kernel"]


def leaves(f: CompiledField, items: list) -> list | None:
    """items completed, if each one fits f's scalar or enum; else None."""
    enum, plain = f.enum, f.plain
    for item in items:
        if enum is not None:
            if type(item) is not str or item not in enum:
                return None
        elif (type(item) is not plain or plain is int and not INT_MIN <= item <= INT_MAX
              or plain is float and not isfinite(item)):
            return None
    return items if enum is None else [enum[item] for item in items]


def objects(kernel: Kernel, items: list) -> list | None:
    """items completed by kernel, if each one is an object that fits; else None."""
    out = []
    for item in items:
        if type(item) is not dict:
            return None
        done = kernel(item)
        if done is None:
            return None
        out.append(done)
    return out
