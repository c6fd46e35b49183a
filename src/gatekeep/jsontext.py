"""Reading JSON input, and indented JSON text without the standard
library's pure-Python encoder.

`loads` and `as_float` are the one way input files are read: malformed
text and numbers a float cannot hold become SpecFormatError.

`json.dumps` with an indent cannot use its C encoder. `dumps` writes the
same bytes in about half the time, appending to one list and encoding
leaves as json does. Object keys must be strings (json would also take
numbers, booleans and None).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import SpecFormatError


def loads(text: str, **kwargs):
    """`json.loads(text, **kwargs)`; SpecFormatError for malformed text and
    for nesting deeper than the parser can follow."""
    try:
        return json.loads(text, **kwargs)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from None


def as_float(value) -> float | None:
    """A JSON number as a float; None for anything else, a bool included
    (JSON `true` is not a number), and for an integer beyond the float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return None


def as_floats(values) -> tuple[float, ...] | None:
    """A JSON list of numbers as floats; None unless every item is one."""
    if not isinstance(values, list):
        return None
    out = tuple(as_float(x) for x in values)
    return None if None in out else out


_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _float(x: float) -> str:
    return "NaN" if x != x else _INFINITIES.get(x) or float.__repr__(x)


def dumps(obj, indent: int | None = None) -> str:
    """`json.dumps(obj, indent=indent, sort_keys=True)`, the same text."""
    if indent is None:
        return json.dumps(obj, sort_keys=True)
    out: list[str] = []
    _encode(obj, "\n", " " * indent, out)
    return "".join(out)


# Leaf types and their text; bool comes before int, of which it is a subclass.
_LEAVES = (
    (str, _quote),
    (bool, lambda b: "true" if b else "false"),
    (int, int.__repr__),
    (float, _float),
    (type(None), lambda _: "null"),
)
_LEAF = dict(_LEAVES)  # by exact type: the fast path inside containers


def _encode(obj, newline: str, step: str, out: list[str]) -> None:
    """Append the text of `obj`, whose own line starts after `newline`."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + step
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            leaf = _LEAF.get(type(value))  # _quote raises TypeError on a non-str key
            if leaf is not None:
                out.append(sep + _quote(key) + ": " + leaf(value))
            else:
                out.append(sep + _quote(key) + ": ")
                _encode(value, inner, step, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + step
        sep = "[" + inner
        for item in obj:
            leaf = _LEAF.get(type(item))
            if leaf is not None:
                out.append(sep + leaf(item))
            else:
                out.append(sep)
                _encode(item, inner, step, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        leaf = next((text for kind, text in _LEAVES if isinstance(obj, kind)), None)
        if leaf is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        out.append(leaf(obj))
