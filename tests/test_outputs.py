"""The outputs table of `tests/outputs.py`: it covers every system, command
and flag set, its corpus slice holds, and `--check` names each mismatch by
system, command and flags (the whole check runs outside tier-1)."""

import json

import outputs


def test_the_table_covers_every_system_command_and_flag_set():
    table = json.loads(outputs.TABLE.read_text())
    pool = len(json.loads(outputs.POOL.read_text())["pool"])
    runs = sum(map(len, outputs.FLAG_SETS.values()))
    assert runs == 8 and len(table) == (6 + pool) * runs
    assert {key.split()[0] for key in table} >= {f"pool:{i}" for i in range(pool)}


def test_the_corpus_slice_of_the_table_holds():
    table = json.loads(outputs.TABLE.read_text())
    corpus = {key: entry for key, entry in table.items() if key.startswith("corpus:")}
    assert len(corpus) == 6 * 8
    assert outputs.mismatches(corpus, outputs.outputs("corpus:")) == []


def test_check_names_each_mismatch_by_system_command_and_flags():
    want = {
        "pool:3 tower": [0, "a", "b"],
        "pool:3 tower --levels 6": [0, "c", "d"],
        "corpus:x.pde symbol": [0, "e", "f"],
    }
    have = {
        "pool:3 tower": [0, "a", "x"],
        "pool:3 tower --levels 6": [2, "y", None],
        "pool:9 symbol": [0, "e", "f"],
    }
    assert outputs.mismatches(want, have) == [
        "corpus:x.pde symbol: not run",
        "pool:3 tower: JSON report changed",
        "pool:3 tower --levels 6: exit code, stdout, JSON report changed",
        "pool:9 symbol: not in the table",
    ]
    assert outputs.mismatches(want, dict(want)) == []
