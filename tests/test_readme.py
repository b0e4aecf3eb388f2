"""README's examples run as written.

The Library usage block is executed and must print the heat equation's
verdict and fiber dimensions and a vanishing torsion; the command of the
`tower` transcript is run through `cli.main` in-process, from the
repository root its path is relative to, and its stdout must equal the
transcript byte for byte.
"""

import re
import shlex
from pathlib import Path

from formalpde import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_the_library_block_prints_what_its_comments_say(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "integrable-up-to [7, 9, 11, 13]\nvanishes\n"


def test_the_tower_transcript_is_the_cli_output(capsys, monkeypatch):
    ((command, want),) = re.findall(r"^```\n\$ (formalpde .*?)\n(.*?)^```$", README, re.M | re.S)
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == want
