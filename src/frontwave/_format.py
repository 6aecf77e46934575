"""Locale-independent numeric output: 17 significant digits everywhere."""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence


def fmt(x) -> str:
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        return repr(v)
    return format(v, ".17g")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows under header; numeric values as fmt() writes them.

    A row of numbers only is formatted by one %-operation: "%.17g" gives
    the bytes fmt() gives for every float, nan and infinities included.
    Rows are fastest as Python floats (``ndarray.tolist()``).
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            try:
                text = line % tuple(row)
            except TypeError:  # strings in the row, or a length other than the header's
                text = ",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n"
            fh.write(text)


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(key))}: {_emit(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):  # numpy scalar
        return _emit(obj.item(), indent)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return json.dumps(obj)  # NaN / Infinity tokens
        return fmt(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, newline end."""
    return _emit(obj, 0) + "\n"
