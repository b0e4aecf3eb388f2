"""The test oracles own the conventions they check.

``tests/oracle_brute.py`` rebuilds everything on sympy and imports nothing
from formalpde; its tableaux are in monomial coefficients, into which it
converts the symbol's jet coordinates itself.  ``tests/ambient_reference.py``
takes from the package only ``RatMatrix`` and the enumeration and index
functions; it derives the monomial contraction and the insertion sign itself,
and the test that reads the package's jet components through it converts
them.  ``tests/rref_reference.py`` takes only ``RatMatrix``.  Both build and
read matrices through dense rows alone, never ``RatMatrix``'s pair encoding,
so a convention bug in the package cannot pass through an oracle that shares
it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

ENUMERATION = {"ext_dim", "ext_indices", "ext_rank", "multi_indices", "sym_dim", "sym_rank"}


def package_imports(source: str) -> set:
    """(module, name) for every name the source imports from formalpde; a
    plain ``import formalpde...`` gives (module, None)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "formalpde":
            out |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {(a.name, None) for a in node.names if a.name.split(".")[0] == "formalpde"}
    return out


def test_the_check_sees_every_package_import():
    source = "import formalpde.ratlin\nfrom formalpde.tensorspace import delta_insertion\n"
    assert package_imports(source) == {
        ("formalpde.ratlin", None),
        ("formalpde.tensorspace", "delta_insertion"),
    }


def test_the_brute_oracle_imports_nothing_from_the_package():
    assert package_imports((TESTS / "oracle_brute.py").read_text()) == set()


def test_the_ambient_reference_imports_only_enumeration_and_ratmatrix():
    allowed = {("formalpde.ratlin", "RatMatrix")}
    allowed |= {("formalpde.tensorspace", name) for name in ENUMERATION}
    got = package_imports((TESTS / "ambient_reference.py").read_text())
    assert got <= allowed, sorted(got - allowed)


def test_the_rref_reference_imports_only_ratmatrix():
    got = package_imports((TESTS / "rref_reference.py").read_text())
    assert got == {("formalpde.ratlin", "RatMatrix")}


def pair_encoding_uses(source: str) -> list:
    """Line numbers where the source reads ``.pairs`` or passes ``pairs=``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "pairs")
        or (isinstance(node, ast.keyword) and node.arg == "pairs")
    )


def test_the_check_sees_the_pair_encoding():
    source = "m = RatMatrix(pairs=rows, cols=2)\nrows = m.pairs\nm.row(0)\n"
    assert pair_encoding_uses(source) == [1, 2]


def test_the_oracles_stay_dense():
    for name in ("rref_reference.py", "ambient_reference.py"):
        assert pair_encoding_uses((TESTS / name).read_text()) == [], name
