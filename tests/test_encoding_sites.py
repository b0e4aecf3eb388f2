"""Only `ratlin` reads the private names of its exact encoding.

A `Subspace` stores each basis vector once, as its primitive integer row
(``rows``), and ratlin alone turns values into integer rows and back.  This
scan pins that no other module of ``src/formalpde`` reads a private name of
the encoding, as an import, a name or an attribute:

* the retired int-row cache and rescaler (``_int_row``, ``_ints``,
  ``_integral``) and the row integeriser (``_integer_row``) are read
  nowhere outside ratlin;
* the vector readers ``_frozen_row`` and ``_nonzeros`` are read only at the
  modules in ``ALLOWED``, each with the reason it needs them.

A new reader missing from ``ALLOWED``, or a listed reader that is gone,
fails, as in `test_dense_sites`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "formalpde"

ENCODING = {"_integral", "_int_row", "_ints", "_integer_row", "_frozen_row", "_nonzeros"}

ALLOWED = {
    "jetpde: _frozen_row": "jet_to_prolongation_point validates its jet as ratlin does vectors",
    "jetpde: _nonzeros": "jet_to_prolongation_point reads its jet's nonzero pairs",
}


def _scan(src: Path = SRC) -> set[str]:
    """Reads (``module: name``) of an encoding name outside ratlin."""
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "ratlin":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if name in ENCODING:
                found.add(f"{path.stem}: {name}")
    return found


def test_only_ratlin_reads_the_encoding():
    found = _scan()
    missing = found - set(ALLOWED)
    assert not missing, f"modules reading ratlin's encoding: {sorted(missing)}"
    stale = set(ALLOWED) - found
    assert not stale, f"drop from ALLOWED, these reads are gone: {sorted(stale)}"


def test_the_scan_sees_each_read(tmp_path):
    (tmp_path / "ratlin.py").write_text("def _integral(m):\n    return m._ints\n")
    (tmp_path / "a.py").write_text(
        "from .ratlin import _integral, _nonzeros\n\n\n"
        "def f(u, j):\n"
        "    return u._int_row(j), _integral(u), _coords(u), _nonzeros\n"
    )
    (tmp_path / "b.py").write_text("import ratlin\n\nX = ratlin._integer_row([])\n")
    assert _scan(tmp_path) == {
        "a: _integral", "a: _nonzeros", "a: _int_row", "b: _integer_row",
    }
