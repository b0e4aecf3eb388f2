"""The corpus contract: every command's output on every corpus file, pinned.

``tests/data/corpus_golden.json`` holds the stdout of the six commands, run
with their default flags on the six corpus files, once as the table and once
as ``--json -``.  The test compares each against a fresh in-process run, byte
for byte.  A change that alters any of them on purpose regenerates the file
(``python tests/test_corpus_golden.py``) and bumps ``schema_version`` when the
JSON changes.  The bump is verified against the old file: each regenerated
output must equal the old one with the stated edits applied, and nothing
else may differ (for schema 2, the edits ``tests/outputs.py`` lists).
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from formalpde.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_golden.json"
COMMANDS = ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck")
FORMS = {"table": [], "json": ["--json", "-"]}


def _corpus():
    return sorted(resources.files("formalpde").joinpath("corpus").iterdir(), key=lambda p: p.name)


def _run(command: str, path, form: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), *FORMS[form]])
    if code != 0:
        raise AssertionError(f"{command} {path.name} {form}: exit {code}")
    return out.getvalue()


def _key(command: str, name: str, form: str) -> str:
    return f"{command} {name} {form}"


def _outputs() -> dict[str, str]:
    return {
        _key(command, path.name, form): _run(command, path, form)
        for command in COMMANDS
        for path in _corpus()
        for form in FORMS
    }


def test_golden_covers_every_command_file_and_form():
    golden = json.loads(GOLDEN.read_text())
    names = [path.name for path in _corpus()]
    assert len(names) == 6
    assert set(golden) == {_key(c, n, f) for c in COMMANDS for n in names for f in FORMS}


@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_outputs_are_byte_identical(command):
    golden = json.loads(GOLDEN.read_text())
    for path in _corpus():
        for form in FORMS:
            key = _key(command, path.name, form)
            assert _run(command, path, form) == golden[key], key


def test_held_analyses_give_the_golden_bytes_in_any_order():
    # the commands run on one system share its parse and its held analysis,
    # and another system displaces both.  In one process, the corpus run
    # forward, then in reverse, then each neighbouring pair of files
    # interleaved A, B, A per command, must give every pinned output
    golden = json.loads(GOLDEN.read_text())
    corpus = _corpus()
    forward = [(c, p, f) for p in corpus for c in COMMANDS for f in FORMS]
    interleaved = [
        (c, p, f) for a, b in zip(corpus, corpus[1:]) for c in COMMANDS for p in (a, b, a)
        for f in FORMS
    ]
    for command, path, form in forward + forward[::-1] + interleaved:
        key = _key(command, path.name, form)
        assert _run(command, path, form) == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n")
