"""Human-readable structured-text documents (key/value trees).

Floats are written with 17 significant digits so every float64 round-trips
exactly and rerun outputs can be compared byte-for-byte.  Lists of scalars
are written comma-separated on one line; a comma inside parentheses, as in
the model label `nb(1,0)`, belongs to its item.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from .exceptions import DataError

__all__ = ["dumps", "loads", "format_float"]

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
            joined = ",".join(_format_scalar(v) for v in value)
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
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack:
            raise DataError(f"orphan node at line {lineno}")
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
