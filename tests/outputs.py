"""Every CLI output on the corpus and the benchmark pool, pinned by hash.

``tests/data/outputs.json`` holds one entry per system, command and flag
set: the exit code, the sha256 of stdout (the table) and the sha256 of the
JSON report, or null where none is written, of one in-process ``cli.main``
run with ``--json PATH``, which writes the report ``--json -`` prints.  The
systems are the corpus files and the pool of ``perfbench/data/cli_pool.json``
(read, never written), each pool system written out by
``cli.format_system``.  The flag sets are each command's defaults and two
deeper walks, ``tower --levels 6`` and ``crosscheck --levels 3``.

    PYTHONPATH=src python tests/outputs.py           # rewrite the table
    PYTHONPATH=src python tests/outputs.py --check   # recompute; name each mismatch

A change that alters an output on purpose regenerates the table in a commit
of its own that gives the reason, as with ``corpus_golden.json``, and bumps
``schema_version`` when the JSON changes.  The table holds only hashes, so a
bump is verified on the texts: run every entry at the parent commit and at
the change, apply the stated edits to each parent output, and require the
result to equal the change's output with the same exit code, for every
entry.  For schema 2 the edits were: delete the table's ``torsion`` header
word and column, delete every ``torsion_vanishes`` key, set
``schema_version`` to 2 and re-dump the payload with ``json.dumps(payload)``.
``--check`` then reads "outputs unchanged" against the regenerated table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from formalpde import cli
from formalpde.jetpde import PdeSystem

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "outputs.json"
POOL = ROOT / "perfbench" / "data" / "cli_pool.json"
COMMANDS = ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck")
FLAG_SETS = {command: ([],) for command in COMMANDS}
FLAG_SETS["tower"] += (["--levels", "6"],)
FLAG_SETS["crosscheck"] += (["--levels", "3"],)


def _systems(work: Path) -> dict[str, Path]:
    """Each system's name and .pde file: the corpus as shipped, then the pool
    in its stored order, written into work."""
    corpus = resources.files("formalpde").joinpath("corpus")
    paths = {f"corpus:{p.name}": Path(str(p)) for p in sorted(corpus.iterdir(), key=lambda p: p.name)}
    for i, rec in enumerate(json.loads(POOL.read_text())["pool"]):
        path = work / f"pool{i:03d}.pde"
        terms = [[(c, a, tuple(alpha)) for c, a, alpha in eq] for eq in rec["eqs"]]
        path.write_text(cli.format_system(PdeSystem.from_terms(rec["n"], rec["m"], rec["k"], terms)))
        paths[f"pool:{i}"] = path
    return paths


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], report: Path) -> list:
    """[exit code, sha256 of stdout, sha256 of the JSON report or None]."""
    report.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json", str(report)])
    written = _digest(report.read_bytes()) if report.exists() else None
    return [code, _digest(out.getvalue().encode()), written]


def outputs(prefix: str = "") -> dict[str, list]:
    """'<system> <command> <flags>' -> `_run`'s entry, for the systems whose
    names start with prefix."""
    with tempfile.TemporaryDirectory() as work:
        report, table = Path(work) / "report.json", {}
        for name, path in _systems(Path(work)).items():
            if not name.startswith(prefix):
                continue
            for command in COMMANDS:
                for flags in FLAG_SETS[command]:
                    key = " ".join([name, command, *flags])
                    table[key] = _run([command, str(path), *flags], report)
        return table


def mismatches(want: dict[str, list], have: dict[str, list]) -> list[str]:
    """One line per entry missing from either table or differing between them."""
    lines = []
    for key in sorted(set(want) | set(have)):
        if key not in have:
            lines.append(f"{key}: not run")
        elif key not in want:
            lines.append(f"{key}: not in the table")
        elif want[key] != have[key]:
            parts = ("exit code", "stdout", "JSON report")
            what = [part for part, a, b in zip(parts, want[key], have[key]) if a != b]
            lines.append(f"{key}: {', '.join(what)} changed")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        bad = mismatches(json.loads(TABLE.read_text()), outputs())
        for line in bad:
            print(line)
        print(f"{len(bad)} mismatches" if bad else "outputs unchanged")
        return 1 if bad else 0
    if argv:
        print("usage: python tests/outputs.py [--check]", file=sys.stderr)
        return 2
    table = outputs()
    lines = (f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} entries to {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
