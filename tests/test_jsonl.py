import json

import pytest

from semfed.cli import _read_response_rows
from semfed.clients import load_private_datasets, load_scripted_clients
from semfed.encoder import load_embeddings_jsonl
from semfed.jsonl import read_rows
from semfed.protocol import PublicPromptSet

# loader, a valid row, its integer-or-id field, its text field
LOADERS = {
    "prompts": (PublicPromptSet.from_jsonl, {"prompt_id": "p0", "text": "hi"}, "prompt_id", "text"),
    "scripted": (
        load_scripted_clients,
        {"client": 0, "round": 1, "prompt_id": "p0", "response": "hi"},
        "client",
        "response",
    ),
    "private": (
        lambda path: load_private_datasets(path, 2),
        {"client": 0, "prompt": "q", "response": "a"},
        "client",
        "response",
    ),
    "responses": (
        _read_response_rows,
        {"prompt_id": "p0", "client_id": 0, "response": "hi"},
        "client_id",
        "response",
    ),
    "embeddings": (
        load_embeddings_jsonl,
        {"response_id": "p0/0", "embedding": [1.0, 0.0]},
        "response_id",
        "response_id",
    ),
}

FIRST_ROWS = {
    "prompts": {"prompt_id": "p1", "text": "hi"},
    "scripted": {"client": 0, "round": 2, "prompt_id": "p0", "response": "hi"},
    "private": {"client": 1, "prompt": "q", "response": "a"},
    "responses": {"prompt_id": "p1", "client_id": 0, "response": "hi"},
    "embeddings": {"response_id": "p1/0", "embedding": [1.0, 0.0]},
}


def bad_lines(name):
    """(case, raw bytes of one bad line) for loader ``name``."""
    _, row, id_field, text_field = LOADERS[name]
    cases = [
        ("null text", {**row, text_field: None}),
        ("float id", {**row, id_field: 0.9}),
        ("bool id", {**row, id_field: True}),
        ("list text", {**row, text_field: ["a", "b"]}),
        ("missing key", {k: v for k, v in row.items() if k != text_field}),
        ("non-object", [row]),
        ("lone surrogate", {**row, text_field: "\ud800"}),
        ("NaN", {**row, id_field: float("nan")}),
    ]
    if name == "embeddings":
        cases += [
            ("string embedding", {**row, "embedding": "1.0, 0.0"}),
            ("dict embedding", {**row, "embedding": {"x": 1}}),
            ("nested embedding", {**row, "embedding": [[1.0, 0.0]]}),
            ("bool entry", {**row, "embedding": [True, 0.0]}),
            ("huge int entry", {**row, "embedding": [10**400, 0]}),
        ]
    out = [(case, json.dumps(value).encode()) for case, value in cases]
    out.append(("invalid UTF-8", json.dumps(row).replace('"', '"\xff', 1).encode("latin-1")))
    out.append(("not JSON", b"{" + json.dumps(row).encode()))
    return out


@pytest.mark.parametrize(
    "name, case, line",
    [(name, case, line) for name in LOADERS for case, line in bad_lines(name)],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_loaders_reject_mistyped_rows_with_their_line(tmp_path, name, case, line):
    load = LOADERS[name][0]
    path = tmp_path / "rows.jsonl"
    # a good row that no bad row duplicates, a blank line, then the bad row on line 3
    path.write_bytes(json.dumps(FIRST_ROWS[name]).encode() + b"\n\n" + line + b"\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:3: "), str(info.value)


def test_read_rows_yields_checked_values_in_field_order(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"b": "x", "a": 1, "extra": null}\n\n  {"a": 2, "b": "\\u00e9"}  \n', encoding="utf-8")
    assert list(read_rows(path, a=int, b=str)) == [(1, (1, "x")), (3, (2, "é"))]
