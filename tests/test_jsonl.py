import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import reference_check, reference_read_rows
from semfed.cli import _read_response_rows
from semfed.clients import load_private_datasets, load_scripted_clients
from semfed.encoder import load_embeddings_jsonl
from semfed.jsonl import check_value, read_rows
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


# ------------------------------------------------------- reader oracle

FIELDS = {"a": int, "b": str, "c": list}
GOOD = b'{"a": 1, "b": "x", "c": []}'
# Lines at the edges of the parser: values and the full error text of each
# must match a per-line json.loads reader.
EDGE_LINES = [
    b'{"a":1} {"b":2}',
    b'{"a":1},{"b":2}',
    GOOD + b"x",
    b"\xef\xbb\xbf" + GOOD,
    b"\x0c" + GOOD + b"\x0c",
    b"\xc2\x85" + GOOD + b"\xc2\x85",
    "\u3000".encode() + GOOD + "\u3000".encode(),
    b"\t" + GOOD + b"\r",
    b'{"a": NaN, "b": "x", "c": []}',
    b'{"a": 1, "b": "x", "c": [Infinity, -Infinity, NaN]}',
    b'{"a": Infinity, "b": "x", "c": []}',
    b'{"a": ' + b"9" * 5000 + b', "b": "x", "c": []}',
    b'{"a": 1, "b": "x", "c": [' + b"7" * 5000 + b"]}",
    b"[" * 100_000 + b"]" * 100_000,
    b'{"a": 1, "b": "x", "c": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"a": 1, "b": "x", "c": ' + b"[" * 200 + b"]" * 200 + b"}",
    b"[1]",
    b'"a"',
    b"5",
    b"null",
    b"true",
    b"{",
    b'{"a": 1, "b": "\\ud800", "c": []}',
    b'{"a": 1, "b": "\\udc00\\ud800", "c": []}',
    b'{"a": 1, "b": "\xed\xa0\x80", "c": []}',
    b'{"a": 1, "b": "\\ud83d\\ude00\\u00e9", "c": ["\\ud800"]}',
    '{"a": 1, "b": "café ☃ \U0001f600", "c": ["é"]}'.encode(),
    b'{"a": 1, "b": "\xff", "c": []}',
    b'{"a": 1, "b": "\xc3',
    b'{"a": true, "b": "x", "c": []}',
    b'{"a": 1.0, "b": "x", "c": []}',
    b'{"a": 1, "b": null, "c": []}',
    b'{"a": 1, "c": {}}',
    b'{"b": 1, "c": 2}',
    b"   ",
    b'{"a": 1, "b": 2, "c": []}',
    b'{"a": "1", "b": "x", "c": "[]"}',
    b'{"a": 1, "b": "x\\udc80", "c": []}',
    b'{"a": 1, "b": "\\u00e9\\udc80", "c": []}',
    b'{"a": 1, "b": "x", "c": ["\\udc80"]}',
    b'{"a": 1,\n"b": "x", "c": []}',
    b'{"a": 2, "b": "y", "c": [1]}\r',
    GOOD + b"\x1c",
    GOOD + "\u2028".encode(),
    b"\x1c" + GOOD + "\u2028".encode() + b"\r",
]


def outcome(read, path):
    """``("rows", repr of every row)`` or ``("error", the full error text)``."""
    try:
        return "rows", repr(list(read(path, **FIELDS)))
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("line", EDGE_LINES, ids=range(len(EDGE_LINES)))
def test_read_rows_matches_the_per_line_json_loads_reader(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(GOOD + b"\n\n" + line + b"\n" + GOOD)
    assert outcome(read_rows, path) == outcome(reference_read_rows, path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
PADDING = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u3000", "\ufeff"])


@st.composite
def jsonl_lines(draw):
    row = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "a": st.integers() | JSON_VALUES,
                "b": st.text(max_size=6) | JSON_VALUES,
                "c": st.lists(JSON_VALUES, max_size=3) | JSON_VALUES,
                "d": JSON_VALUES,
            },
        )
        | JSON_VALUES
    )
    text = json.dumps(row, ensure_ascii=draw(st.booleans()))
    text = draw(PADDING) + text + draw(st.sampled_from(["", "", " {}", ",1", "]"])) + draw(PADDING)
    return text.encode("utf-8")


@given(st.lists(jsonl_lines() | st.sampled_from(EDGE_LINES[:12]), min_size=1, max_size=4))
def test_read_rows_matches_the_per_line_json_loads_reader_on_generated_files(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    path.write_bytes(b"\n".join(lines))
    assert outcome(read_rows, path) == outcome(reference_read_rows, path)


# Values of every JSON type, ASCII and not, for rows that hold every field.
TYPED = st.sampled_from(
    [1, -7, 2**70, True, False, 1.0, 0.5, None, "x", "", "é", "\udc80", "a\ud83d", [], [1], {}, {"a": 1}]
)


@given(
    rows=st.lists(
        st.fixed_dictionaries(
            {
                "a": st.integers() | TYPED,
                "b": st.text(max_size=4) | TYPED,
                "c": st.lists(st.integers(), max_size=2) | TYPED,
            }
        ),
        min_size=1,
        max_size=4,
    ),
    ensure_ascii=st.booleans(),
    line_end=st.sampled_from(["\n", "\r\n", "\x1c\n", "\u2028\n", "\n \n"]),
)
@example(rows=[{"a": 1, "b": "é", "c": []}, {"a": 2, "b": "x\udc80", "c": []}], ensure_ascii=True, line_end="\n")
@example(rows=[{"a": 1, "b": "x", "c": ["\udc80"]}, {"a": 1, "b": "é", "c": [1]}], ensure_ascii=False, line_end="\r\n")
@example(rows=[{"a": 1, "b": "x", "c": []}, {"a": True, "b": "x", "c": []}], ensure_ascii=True, line_end="\n")
def test_read_rows_checks_typed_rows_like_the_reference(tmp_path_factory, rows, ensure_ascii, line_end):
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    text = "".join(json.dumps(row, ensure_ascii=ensure_ascii) + line_end for row in rows)
    # a lone surrogate written raw is invalid UTF-8
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    assert outcome(read_rows, path) == outcome(reference_read_rows, path)


@given(
    value=JSON_VALUES | st.integers(-(10**400), 10**400) | st.sampled_from(["\ud800", "é", "a"]),
    kind=st.sampled_from([str, int, float, bool, list, dict, type(None)]),
)
@example(value=float("nan"), kind=float)
@example(value=float("-inf"), kind=float)
@example(value=10**400, kind=float)
@example(value="\udc00\ud800", kind=str)
def test_check_value_matches_the_reference_rule(value, kind):
    def checked(check):
        try:
            return "ok", repr(check(value, kind, "v"))
        except ValueError as exc:
            return "error", str(exc)

    assert checked(check_value) == checked(reference_check)
