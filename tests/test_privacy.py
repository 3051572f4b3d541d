import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semfed.privacy import (
    NonMonotoneRoundError,
    PrivacyLedger,
    PrivacyWarning,
    RoundBudget,
    load_ledgers_csv,
    record_round,
    total_budget,
)


def test_empty_ledger_totals_zero():
    assert total_budget(PrivacyLedger(client=0)) == (0.0, 0.0)


def test_three_identical_rounds_sum_coordinatewise():
    ledger = PrivacyLedger(client=0)
    for r in (1, 2, 3):
        ledger = record_round(ledger, RoundBudget(r, 1.0, 1e-5))
    eps, delta = total_budget(ledger)
    assert eps == 3.0
    assert delta == pytest.approx(3e-5, rel=1e-15)


def test_record_round_does_not_mutate():
    before = PrivacyLedger(client=2, rounds=(RoundBudget(1, 0.5, 0.0),))
    after = record_round(before, RoundBudget(2, 0.25, 0.0))
    assert len(before.rounds) == 1
    assert len(after.rounds) == 2
    assert after.client == 2
    assert total_budget(before) == (0.5, 0.0)
    assert total_budget(after) == (0.75, 0.0)


def test_round_indices_must_increase():
    ledger = record_round(PrivacyLedger(client=0), RoundBudget(3, 0.1, 0.0))
    with pytest.raises(NonMonotoneRoundError):
        record_round(ledger, RoundBudget(3, 0.1, 0.0))
    with pytest.raises(NonMonotoneRoundError):
        record_round(ledger, RoundBudget(1, 0.1, 0.0))
    # gaps are allowed, only monotonicity is required
    record_round(ledger, RoundBudget(10, 0.1, 0.0))


def test_ledger_constructor_rejects_unordered_rounds():
    rounds = tuple(RoundBudget(r, 0.1, 0.0) for r in (1, 4, 2, 3))
    with pytest.raises(NonMonotoneRoundError) as info:
        PrivacyLedger(client=5, rounds=rounds)
    assert str(info.value) == "round 2 does not follow round 4 on client 5's ledger"
    assert info.value.position == 2
    with pytest.raises(ValueError, match="client must be >= 0"):
        PrivacyLedger(client=-1)


def test_budget_validation():
    with pytest.raises(ValueError):
        RoundBudget(0, 0.1, 0.0)
    with pytest.raises(ValueError):
        RoundBudget(1, -0.1, 0.0)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            RoundBudget(1, epsilon, 0.0)
    with pytest.raises(ValueError):
        RoundBudget(1, 0.1, 1.5)
    with pytest.raises(ValueError):
        RoundBudget(1, 0.1, -1e-9)


def test_vacuous_delta_warns_and_is_not_clamped():
    ledger = PrivacyLedger(client=7)
    for r in range(1, 5):
        ledger = record_round(ledger, RoundBudget(r, 0.1, 0.3))
    with pytest.warns(PrivacyWarning):
        eps, delta = total_budget(ledger)
    assert delta == pytest.approx(1.2, rel=1e-12)
    assert eps == pytest.approx(0.4, rel=1e-12)


def test_sub_vacuous_delta_does_not_warn():
    ledger = record_round(PrivacyLedger(client=0), RoundBudget(1, 0.1, 0.999))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total_budget(ledger)


@given(
    costs=st.lists(
        st.tuples(st.floats(0, 10, allow_nan=False), st.floats(0, 0.01, allow_nan=False)),
        min_size=0,
        max_size=20,
    )
)
def test_composition_is_additive_over_concatenation(costs):
    ledger = PrivacyLedger(client=0)
    running = (0.0, 0.0)
    for i, (eps, delta) in enumerate(costs, start=1):
        ledger = record_round(ledger, RoundBudget(i, eps, delta))
        running = (running[0] + eps, running[1] + delta)
    got = total_budget(ledger)
    assert got[0] == pytest.approx(running[0], rel=1e-12, abs=1e-15)
    assert got[1] == pytest.approx(running[1], rel=1e-12, abs=1e-15)


# ------------------------------------------------------------ CSV loader


def write_csv(tmp_path, text, name="ledger.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_csv_loader_builds_sorted_ledgers(tmp_path):
    path = write_csv(
        tmp_path,
        "client,round,epsilon,delta\n"
        "1,2,0.5,0.00001\n"
        "0,1,1.0,0.0\n"
        "1,1,0.25,0.00002\n"
        "0,2,1.0,0.0\n",
    )
    ledgers = load_ledgers_csv(path)
    assert [l.client for l in ledgers] == [0, 1]
    assert total_budget(ledgers[0]) == (2.0, 0.0)
    eps, delta = total_budget(ledgers[1])
    assert eps == 0.75
    assert delta == pytest.approx(3e-5, rel=1e-12)
    # file order was shuffled; round order inside each ledger is sorted
    assert [b.round_index for b in ledgers[1].rounds] == [1, 2]


def test_csv_loader_accepts_extra_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "client,round,epsilon,delta,note\n0,1,0.5,0.0,fine\n",
    )
    (ledger,) = load_ledgers_csv(path)
    assert total_budget(ledger) == (0.5, 0.0)


def test_csv_loader_rejects_duplicate_rounds(tmp_path):
    path = write_csv(
        tmp_path,
        "client,round,epsilon,delta\n0,1,0.5,0.0\n0,1,0.5,0.0\n",
    )
    with pytest.raises(NonMonotoneRoundError):
        load_ledgers_csv(path)


def test_csv_loader_rejects_missing_columns(tmp_path):
    path = write_csv(tmp_path, "client,round,epsilon\n0,1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_ledgers_csv(path)


def test_csv_loader_rejects_malformed_rows(tmp_path):
    path = write_csv(tmp_path, "client,round,epsilon,delta\n0,one,0.5,0.0\n")
    with pytest.raises(ValueError, match="malformed"):
        load_ledgers_csv(path)


def test_csv_loader_empty_file_gives_no_ledgers(tmp_path):
    path = write_csv(tmp_path, "client,round,epsilon,delta\n")
    assert load_ledgers_csv(path) == []


@given(
    data=st.data(),
    ledgers=st.dictionaries(
        st.integers(0, 4),
        st.dictionaries(
            st.integers(1, 30),
            st.tuples(st.floats(0, 10, allow_nan=False), st.floats(0, 0.01, allow_nan=False)),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_csv_loader_matches_record_round_in_sorted_order(data, ledgers):
    rows = [(c, r, eps, delta) for c, rounds in ledgers.items() for r, (eps, delta) in rounds.items()]
    rows = data.draw(st.permutations(rows))
    expected = []
    for client in sorted(ledgers):
        ledger = PrivacyLedger(client=client)
        for r in sorted(ledgers[client]):
            ledger = record_round(ledger, RoundBudget(r, *ledgers[client][r]))
        expected.append(ledger)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.csv"

        def write(rows):
            lines = "".join(f"{c},{r},{eps!r},{delta!r}\n" for c, r, eps, delta in rows)
            path.write_text("client,round,epsilon,delta\n" + lines, encoding="utf-8")

        write(rows)
        assert load_ledgers_csv(path) == expected
        # a copy of one row, put anywhere, fails naming the later of the two (line 1 is the header)
        original = data.draw(st.integers(0, len(rows) - 1))
        copy_at = data.draw(st.integers(0, len(rows)))
        write(rows[:copy_at] + [rows[original]] + rows[copy_at:])
        later = max(copy_at, original + (original >= copy_at)) + 2
        client, r = rows[original][:2]
        with pytest.raises(NonMonotoneRoundError) as info:
            load_ledgers_csv(path)
        assert str(info.value) == (
            f"{path}:{later}: round {r} does not follow round {r} on client {client}'s ledger"
        )


def test_csv_loader_builds_each_ledger_once(tmp_path, monkeypatch):
    built = []
    check = PrivacyLedger.__post_init__
    monkeypatch.setattr(
        PrivacyLedger, "__post_init__", lambda self: (built.append(self.client), check(self))
    )
    rows = [f"{c},{r},0.5,0.0\n" for r in range(50, 0, -1) for c in range(4)]
    path = write_csv(tmp_path, "client,round,epsilon,delta\n" + "".join(rows))
    ledgers = load_ledgers_csv(path)
    assert built == [0, 1, 2, 3]
    assert [len(ledger.rounds) for ledger in ledgers] == [50] * 4
