"""The one reader behind every JSONL input file.

Prompts, scripted-client tables, private datasets, response dumps and
external embeddings all arrive as JSONL, and all of them are read by
``read_rows``.  Values are checked against their exact JSON type and
never coerced: ``null`` is not the text "None" and ``0.9`` is not
client 0.  A row whose values all have exactly their fields' types, with
no ``float`` field, on an ASCII line without a backslash (so every string
in it is ASCII) is accepted by one test over the whole row; any other
row, or line, goes through ``check_value`` field by field, so every
error text comes from it.  Every failure is a ValueError that
starts ``path:lineno:``.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Iterator

__all__ = ["check_value", "read_rows"]

# ``json.loads`` without its wrapper: a stripped line has no JSON
# whitespace at either end, so a value that ends at the line's end is what
# ``json.loads`` returns; anything else is re-parsed by it for its error.
_scan = json.JSONDecoder().raw_decode

_JSON_NAMES = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    list: "array",
    dict: "object",
    type(None): "null",
}


def check_value(value, kind: type, what: str):
    """Return ``value`` when it has JSON type ``kind``; else ValueError about ``what``.

    ``int`` excludes booleans and floats.  ``float`` takes any finite
    JSON number and returns it as a float.  A ``str`` must encode as
    UTF-8, so a lone surrogate escape is refused.
    """
    if type(value) is kind and kind is not float and (kind is not str or value.isascii()):
        return value
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if type(value) is not kind:
        raise ValueError(
            f"{what} must be a JSON {_JSON_NAMES[kind]}, got {_JSON_NAMES[type(value)]}"
        )
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{what} holds a lone surrogate") from None
    return value


def _parse_line(raw: bytes, fields: dict[str, type]) -> tuple | None:
    """The checked field values of one line, or None for a blank line."""
    line = raw.decode("utf-8").strip()
    if not line:
        return None
    try:
        row, end = _scan(line)
    except (ValueError, RecursionError):
        end = -1
    if end != len(line):  # not one JSON value: json.loads names the fault
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
    try:
        values = tuple([row[name] for name in fields])
    except (KeyError, TypeError):  # a key is missing, or the row is not an object
        raise ValueError(f"expected keys {', '.join(fields)} in a JSON object") from None
    return tuple(
        [check_value(value, kind, name) for (name, kind), value in zip(fields.items(), values)]
    )


def read_rows(path: str | Path, **fields: type) -> Iterator[tuple[int, tuple]]:
    """Yield ``(lineno, values)`` for every non-blank line of ``path``.

    Each line must be UTF-8 holding one JSON object with every key in
    ``fields``; ``values`` are those keys' values in the order given.
    Each value must pass ``check_value`` for the type its field names,
    one of ``str``, ``int`` or ``list``; other keys are ignored.  Lines
    are read lazily, so a caller that stops early never parses the rest.
    """
    names = tuple(fields)
    kinds = tuple(fields.values())
    exact = None if float in kinds else kinds
    # itemgetter of one name returns the bare value, not a 1-tuple
    pick = itemgetter(*names) if len(names) > 1 else lambda row: tuple([row[name] for name in names])
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                row, end = _scan(line)
                values = pick(row)
            except (ValueError, RecursionError, KeyError, TypeError):
                pass
            else:
                # check_value's own first test, over the whole row at once: a
                # JSON string in an ASCII line without a backslash is ASCII
                if (
                    tuple(map(type, values)) == exact
                    and end == len(line)
                    and line.isascii()
                    and "\\" not in line
                ):
                    yield lineno, values
                    continue
            try:
                values = _parse_line(raw, fields)
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if values is not None:
                yield lineno, values
