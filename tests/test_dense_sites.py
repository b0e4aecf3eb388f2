"""Where ``src/formalpde`` renders a subspace as dense vectors.

A `Subspace` stores only its canonical basis as (index, int) pairs, and
every stage reads those pairs.  Dense vectors are rendered on demand for
reports, witnesses and a few checks that take whole vectors.  This scan
pins where:

* no reader of the retired pair cache (``_support``, ``_pairs``,
  ``support=``) is left;
* ``.basis`` is read only at the sites in ``BASIS_READS``, each with the
  reason it needs dense vectors;
* a zero-filled Fraction list (``[_ZERO] * n``) is built only at the sites
  in ``ZERO_FILLS``, and ``.row`` is read only in ``ROW_READS``, so
  no other code renders a dense vector from a subspace's pairs;
* ``from_spanning`` and ``rref``, which span dense vectors again through
  Fractions, are called only at the sites in ``SPAN_CALLS``, so no analysis
  path reaches them;
* ``.fraction_rows``, a basis rendered as Fractions, is read only at the
  sites in ``FRACTION_READS``; every other reader takes the integer rows, or
  the basis over one denominator (``Subspace.scaled``).

A new site missing from a table, or a listed site that is gone, fails, as
in `test_invariant_sites`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "formalpde"

BASIS_READS = {
    "jetpde._tower_report": "the witness is a LevelRecord field, reported as a dense jet",
    "relconn.torsion_at": "the Fredholm witness is a TorsionResult field, a dense vector",
}

ZERO_FILLS = {
    "ratlin.RatMatrix.row": "the one renderer of a pair row; Subspace.basis goes through it",
    "relconn.torsion_at": "the witness's one nonzero block placed among zero blocks",
    "relconn._lift": "a lift's psi blocks summed from the fiber's basis rows",
    "relconn.curvature_of_lift": "the e = 0 half of the point (0, psi)",
}

ROW_READS = {
    "ratlin.RatMatrix.__repr__": "the repr prints every row",
    "ratlin.Subspace.basis": "renders the basis on demand",
    "ratlin.image": "a matrix's columns, dense vectors for from_spanning",
    "jetpde.jet_to_prolongation_point": "the public map renders its point's pairs dense",
}

SPAN_CALLS = {
    "ratlin.image: from_spanning": "a matrix's column span, on the callerless torsion path",
    "ratlin.Subspace.from_spanning: rref": "the span's canonical basis is its rref's rows",
}

FRACTION_READS = {
    "ratlin.rref": "the echelon form's rows are the reduced rows b_j themselves",
    "ratlin.Subspace.basis": "renders the basis on demand",
    "ratlin.Subspace.reduce_mod": "the dense coset representative subtracts the b_j",
    "relconn._lift": "a lift's psi blocks are a TorsionResult field, summed from the b_j",
}

RETIRED = {"_support", "_pairs"}


def _scan(src: Path = SRC) -> dict[str, set[str]]:
    """Sites (``module.scope``) of each watched construct in src."""
    found = {"basis": set(), "zero_fill": set(), "row": set(), "span": set(), "fraction": set(),
             "retired": set()}

    def visit(node, site):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{site}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                if child.attr == "basis" and isinstance(child.ctx, ast.Load):
                    found["basis"].add(site)
                if child.attr == "row":
                    found["row"].add(site)
                if child.attr == "fraction_rows":
                    found["fraction"].add(site)
                if child.attr in RETIRED:
                    found["retired"].add(f"{site}: .{child.attr}")
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in ("from_spanning", "rref"):
                    found["span"].add(f"{site}: {name}")
            if isinstance(child, ast.Name) and child.id in RETIRED:
                found["retired"].add(f"{site}: {child.id}")
            if isinstance(child, ast.Constant) and child.value in RETIRED:
                found["retired"].add(f"{site}: {child.value!r}")
            if isinstance(child, (ast.arg, ast.keyword)) and child.arg == "support":
                found["retired"].add(f"{site}: support=")
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Mult)
                and isinstance(child.left, ast.List)
                and [getattr(e, "id", None) for e in child.left.elts] == ["_ZERO"]
            ):
                found["zero_fill"].add(site)
            visit(child, site)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_no_reader_of_the_retired_pair_cache_remains():
    assert not _scan()["retired"]


def test_dense_renderings_are_the_listed_sites():
    found = _scan()
    tables = {"basis": BASIS_READS, "zero_fill": ZERO_FILLS, "row": ROW_READS, "span": SPAN_CALLS,
              "fraction": FRACTION_READS}
    for kind, table in tables.items():
        missing = found[kind] - set(table)
        assert not missing, f"unlisted {kind} sites: {sorted(missing)}"
        stale = set(table) - found[kind]
        assert not stale, f"drop from the {kind} table, these sites are gone: {sorted(stale)}"


def test_the_scan_sees_each_construct(tmp_path):
    (tmp_path / "a.py").write_text(
        "class S:\n"
        "    def f(self, u, support=None):\n"
        "        return u.basis, u._pairs(0), u.fraction_rows()\n\n"
        "    def g(self, n):\n"
        "        def inner():\n"
        "            return [_ZERO] * n\n"
        "        return inner, [None] * n, map(self.row, range(n))\n\n\n"
        "def h(u):\n"
        "    u.basis = u.rows\n"
        "    return S(support=[]), '_support', S.from_spanning(2, []), rref(u), u.rref\n"
    )
    assert _scan(tmp_path) == {
        "basis": {"a.S.f"},
        "zero_fill": {"a.S.g.inner"},
        "row": {"a.S.g"},
        "span": {"a.h: from_spanning", "a.h: rref"},
        "fraction": {"a.S.f"},
        "retired": {"a.S.f: support=", "a.S.f: ._pairs", "a.h: support=", "a.h: '_support'"},
    }
