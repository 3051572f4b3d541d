"""Malformed inputs end in exit 0 with JSON or exit 2 with an error line, never a traceback."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from semfed.cli import main

# Any JSON value, including the non-finite numbers json.dumps writes as NaN/Infinity.
# Integers stay small: a valid but huge "rounds" would only make a long session.
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A wrong value for any field: mostly a classic mistype, else anything.
CLASSIC = st.sampled_from(
    [None, True, 0.9, -1, math.nan, math.inf, "", "\ud800", "1.0", ["a", "b"], [[1.0, 0.0]], {"x": 1}]
)
WRONG = st.one_of(CLASSIC, CLASSIC, JUNK)
RAW_LINES = st.sampled_from([b"", b"\xff\xfe", b"{", b"NaN", b'{"prompt_id": "p0"'])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_outcome(code, out, err):
    if code == 0:
        json.loads(out)
    else:
        assert code == 2, (code, err)
        assert out == ""
        assert err.startswith("error: "), err


@st.composite
def jsonl_lines(draw, key, **fields):
    """A few valid rows, unique by ``key`` fields, and at most one fault:
    a field wrong or missing, a non-object, or raw bytes."""
    unique = (lambda row: tuple(row[name] for name in key)) if key else None
    lines = draw(st.lists(st.fixed_dictionaries(fields), min_size=1, max_size=5, unique_by=unique))
    fault = draw(st.sampled_from([None, "wrong", "missing", "non-object", "raw"]))
    if fault is None:
        return lines
    bad = draw(st.fixed_dictionaries(fields))
    name = draw(st.sampled_from(sorted(fields)))
    if fault == "wrong":
        bad[name] = draw(WRONG)
    elif fault == "missing":
        del bad[name]
    else:
        bad = draw(WRONG if fault == "non-object" else RAW_LINES)
    lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


def write_lines(path, items):
    """One line per item: raw bytes as they are, anything else as JSON (NaN included)."""
    lines = [item if isinstance(item, bytes) else json.dumps(item).encode() for item in items]
    path.write_bytes(b"\n".join(lines) + b"\n")


RESPONSES = jsonl_lines(
    ("prompt_id", "client_id"),
    prompt_id=st.sampled_from(["p0", "p1"]),
    client_id=st.integers(0, 3),
    response=st.sampled_from(["", "ab", "the sky is blue", "the sky is blue!", "zzq vrn"]),
)
EMBEDDINGS = jsonl_lines(
    ("response_id",),
    response_id=st.sampled_from([f"p{p}/{c}" for p in range(2) for c in range(4)]),
    embedding=st.lists(st.floats(-1, 1) | st.integers(-1, 1), min_size=2, max_size=2),
)


@given(
    responses=RESPONSES,
    embeddings=st.none() | EMBEDDINGS,
)
def test_consensus_never_raises_on_malformed_rows(responses, embeddings):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["consensus", "--input", str(Path(tmp) / "r.jsonl")]
        write_lines(Path(tmp) / "r.jsonl", responses)
        if embeddings is not None:
            write_lines(Path(tmp) / "e.jsonl", embeddings)
            argv += ["--embeddings", str(Path(tmp) / "e.jsonl")]
        assert_clean_outcome(*run(argv))


SCRIPT = [
    {"client": c, "round": r, "prompt_id": p, "response": "the sky is blue" if c else "zzq"}
    for c in range(2)
    for r in (1, 2)
    for p in ("p0", "p1")
]
VALID_CONFIG = {
    "clients": {"type": "markov", "count": 2, "private_file": "private.jsonl"},
    "rounds": 2,
    "prompt_file": "prompts.jsonl",
    "prompt_budget": 2,
    "eps": 0.3,
    "min_pts": 2,
    "strategy": "centroid",
    "strategy_seed": 1,
    "seed": 0,
    "encoder": {"dimension": 16, "ngram": 3, "seed": 0, "lowercase": False},
    "weights": {"alpha": 0.5, "beta": 0.5},
    "max_tokens": 4,
    "retrain_private_every_round": True,
    "dp": {"epsilon": 1.0, "delta": 1e-6},
}
NESTED = {
    "clients": ("type", "count", "order", "path", "private_file"),
    "encoder": ("dimension", "ngram", "seed", "lowercase"),
    "weights": ("alpha", "beta"),
    "dp": ("epsilon", "delta"),
}


@st.composite
def configs(draw):
    """The valid config with a few keys set to junk, dropped, or nested keys broken."""
    if draw(st.integers(0, 19)) == 0:
        return draw(WRONG)
    config = json.loads(json.dumps(VALID_CONFIG))
    if draw(st.booleans()):
        config["clients"] = {"type": "scripted", "path": "script.jsonl"}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(VALID_CONFIG)))
        action = draw(st.sampled_from(["junk", "drop", "nested"]))
        if action == "drop":
            config.pop(key, None)
        elif action == "nested" and key in NESTED and isinstance(config.get(key), dict):
            config[key][draw(st.sampled_from(NESTED[key]))] = draw(WRONG)
        else:
            config[key] = draw(WRONG)
    return config


PROMPTS = [{"prompt_id": "p0", "text": "is the sky blue"}, {"prompt_id": "p1", "text": "is it"}]
PRIVATE = [{"client": 0, "prompt": "sky", "response": "blue"}]


@given(
    broken=st.sampled_from(["config", "prompts", "private"]),
    config=configs(),
    prompts=jsonl_lines(("prompt_id",), prompt_id=st.sampled_from(["p0", "p1"]), text=st.just("sky")),
    private=jsonl_lines((), client=st.integers(0, 1), prompt=st.just("sky"), response=st.just("blue")),
)
def test_simulate_never_raises_on_malformed_configs_and_rows(broken, config, prompts, private):
    """One input is malformed per run, so later checks are reached too."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_lines(tmp / "prompts.jsonl", prompts if broken == "prompts" else PROMPTS)
        write_lines(tmp / "private.jsonl", private if broken == "private" else PRIVATE)
        write_lines(tmp / "script.jsonl", SCRIPT)
        if broken != "config":
            config = VALID_CONFIG
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert_clean_outcome(*run(["simulate", "--config", str(tmp / "config.json")]))


# ----------------------------------------------------------- calculators

# Extreme flag values, passed as --flag=VALUE so a leading "-" is not an option.
FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1"]) | st.floats().map(
    repr
)
INTS = st.sampled_from(["0", "-1", "9" * 30, "9" * 400]) | st.integers().map(str)


@st.composite
def numeric_flags(draw, floats, ints, required=()):
    """Valid flag values with one to three set to extremes and up to two
    optional flags dropped, so later checks and the arithmetic are reached."""
    values = floats | ints
    for name in draw(st.lists(st.sampled_from(sorted(values)), unique=True, min_size=1, max_size=3)):
        values[name] = draw(FLOATS if name in floats else INTS)
    optional = sorted(set(values) - set(required))
    for name in draw(st.lists(st.sampled_from(optional), unique=True, max_size=2)):
        del values[name]
    return [f"--{name}={value}" for name, value in values.items()]


@given(
    flags=numeric_flags(
        {"tokens": "128", "bytes-per-token": "2", "bytes-per-param": "2", "subsample-fraction": "0.5"},
        {"clients": "10", "prompts": "1024", "rank": "32", "total-params": "1000"},
    ),
    preset=st.sampled_from([[], ["--preset", "llama2-13b"], ["--preset", "llama3.1-405b"]]),
    upload_only=st.sampled_from([[], ["--upload-only"]]),
)
def test_cost_never_raises_on_extreme_numbers(flags, preset, upload_only):
    assert_clean_outcome(*run(["cost", *flags, *preset, *upload_only]))


@given(
    flags=numeric_flags(
        {
            "grad-bound": "1", "kl-shift": "0.5", "label-noise": "0.1", "confidence": "0.05",
            "smoothness": "2", "step-size": "0.1", "noise-var": "0.5", "heterogeneity": "1",
            "init-gap": "1",
        },
        {"public-batch": "64", "param-dim": "4", "steps": "100"},
        required=("grad-bound",),
    ),
)
def test_bound_never_raises_on_extreme_numbers(flags):
    assert_clean_outcome(*run(["bound", *flags]))


@given(
    flags=numeric_flags(
        {"eps": "0.3"},
        {"dimension": "64", "ngram": "3", "min-pts": "2", "encoder-seed": "0", "seed": "0"},
    ),
)
@example(flags=[f"--dimension={2**62}"])
@example(flags=[f"--dimension={2**40}"])
def test_consensus_never_raises_on_extreme_numbers(flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        write_lines(path, [{"prompt_id": "p0", "client_id": c, "response": f"answer {c}"} for c in range(2)])
        assert_clean_outcome(*run(["consensus", "--input", str(path), *flags]))


# A CSV cell: mostly a plausible value for its column, else junk, or a huge
# or non-finite number.
JUNK_CELL = st.sampled_from(["", "-1", "nan", "inf", "1e308", "1e400", "1.0", "x", "9" * 5000]) | st.text(
    st.characters(codec="utf-8"), max_size=4
)
HEADER = ["client", "round", "epsilon", "delta"]
PLAUSIBLE = {
    "client": ["0", "1", "2"],
    "round": ["1", "2", "3"],
    "epsilon": ["0", "0.5"],
    "delta": ["0", "1e-6"],
}
ROW = st.fixed_dictionaries(
    {name: st.one_of([st.sampled_from(values)] * 5 + [JUNK_CELL]) for name, values in PLAUSIBLE.items()}
)


@given(
    header=st.sampled_from([HEADER] * 4 + [HEADER[::-1], HEADER + ["note"], HEADER[:3], []]),
    rows=st.lists(ROW | ROW | st.lists(JUNK_CELL, max_size=6), max_size=4),
    raw=st.none() | st.none() | RAW_LINES,
)
def test_privacy_never_raises_on_malformed_rows(header, rows, raw):
    text = io.StringIO()
    writer = csv.writer(text)
    if header:
        writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(c, "") for c in header or HEADER] if isinstance(row, dict) else row)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.csv"
        path.write_bytes(text.getvalue().encode("utf-8") + (raw or b""))
        assert_clean_outcome(*run(["privacy", "--csv", str(path)]))
