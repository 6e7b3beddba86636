"""Human-readable structured-text documents (key/value trees), and the one
home of float text.

Floats are written with 17 significant digits so every float64 round-trips
exactly and rerun outputs can be compared byte-for-byte; an integral value
gets ".0" so that it reads back as a float.  `format_float` writes one value,
and `format_floats` a whole column with one "%" format call, the same bytes
as `format_float` per value.  Lists of scalars are written comma-separated on
one line, an all-float list through `format_floats`; a comma inside
parentheses, as in the model label `nb(1,0)`, belongs to its item.
"""

from __future__ import annotations

import re
from typing import Any, Dict

import numpy as np

from .exceptions import DataError

__all__ = ["dumps", "loads", "format_float", "format_floats"]

_INDENT = "  "
_ITEM_SEPARATOR = re.compile(r",(?![^(]*\))")


def format_float(v: float) -> str:
    """17 significant digits, with ".0" after an integral value so that it
    reads back as a float; a string holding ".", "e" or "E", "nan" or "inf"
    is never all digits."""
    s = format(float(v), ".17g")
    if s.lstrip("+-").isdigit():
        s += ".0"
    return s


# "%.17g" writes an integral float below 1e17 in magnitude without "." or an
# exponent, and every other float with one or as "nan"/"inf"
_FLOAT_SPECS = ("%.17g", "%.17g.0")


def format_floats(values, sep: str = ",") -> str:
    """`sep.join(map(format_float, values))` in one format call; a 2-d array
    is written one row per line, its cells joined by `sep`."""
    v = np.asarray(values, dtype=float)
    specs = map(_FLOAT_SPECS.__getitem__, ((v == np.floor(v)) & (np.abs(v) < 1e17)).ravel().tolist())
    sep = sep.replace("%", "%%")
    if v.ndim < 2:
        template = sep.join(specs)
    else:  # zipping one iterator with itself takes a row's specs at a time
        template = "\n".join(map(sep.join, zip(*[specs] * v.shape[-1])))
    return template % tuple(v.ravel().tolist())


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _dump_node(node: Dict[str, Any], depth: int, lines):
    pad = _INDENT * depth
    for key, value in node.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _dump_node(value, depth + 1, lines)
        elif isinstance(value, (list, tuple)):
            if set(map(type, value)) == {float}:  # item types in one C-level pass, not a Python test per item
                joined = format_floats(value)
            else:
                joined = ",".join(map(_format_scalar, value))
            lines.append(f"{pad}{key}: [{joined}]")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")


def dumps(tree: Dict[str, Any]) -> str:
    """Serialize a nested dict of scalars/lists to the document format."""
    lines: list = []
    _dump_node(tree, 0, lines)
    return "\n".join(lines) + "\n"


def _parse_scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip()) for part in _ITEM_SEPARATOR.split(inner)]
    return _parse_scalar(text)


def loads(text: str) -> Dict[str, Any]:
    """Parse a document back into a nested dict; inverse of `dumps`."""
    root: Dict[str, Any] = {}
    stack = [(-1, root)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % len(_INDENT) != 0:
            raise DataError(f"bad indentation at line {lineno}")
        depth = indent // len(_INDENT)
        while stack[-1][0] >= depth:  # the root, at depth -1, stays
            stack.pop()
        parent = stack[-1][1]
        if stripped.endswith(":"):
            key = stripped[:-1]
            child: Dict[str, Any] = {}
            parent[key] = child
            stack.append((depth, child))
        else:
            key, sep, value = stripped.partition(":")
            if not sep:
                raise DataError(f"expected 'key: value' at line {lineno}")
            parent[key.strip()] = _parse_value(value)
    return root
