"""No public API without a caller.

Every public top-level function and class in ``src/formalpde``, and every
public method, static method and property of a public class, must have a
caller in product code somewhere in ``src/`` outside its own definition, or
sit on ``CALLERLESS`` with the ROADMAP item that will give it a caller (or
move it into ``tests/``).  Re-exports in ``__init__.py`` are not callers, and
tests are not callers.  An allowlisted name that gains a caller or disappears
fails the test too, so the list can only shrink.

What counts as a caller:
* a top-level name: the name read or written anywhere;
* a method or property: its name read as an attribute anywhere;
* a static method: ``Cls.name`` for its own class, or ``self.name``/
  ``cls.name`` inside that class, so ``Subspace.full`` does not hide
  ``Tableau.full``;
* ``__matmul__``: any ``@``.  ``+``, ``-`` and unary ``-`` also act on
  Fractions, so ``__add__``, ``__sub__`` and ``__neg__`` never have one.
Other dunders are protocol, and private classes are skipped whole.

An attribute read cannot tell apart two classes that define the same name.
So a method or property whose name another ``src`` class also defines (as a
method, property, record field or ``__slots__`` entry) counts as called
only if ``SHADOWED`` names the product-code site of its real caller, and
that site reads the name.  An entry that is no longer shadowed fails the
test, as a stale ``CALLERLESS`` entry does.
"""

import ast
from collections import Counter
from pathlib import Path

import formalpde

SRC = Path(__file__).resolve().parents[1] / "src" / "formalpde"

CALLERLESS = {
    "cli.format_system": "ROADMAP 6: prints the completed system",
    "jetpde.jet_to_prolongation_point": "ROADMAP 3: maps jet fibers onto connection fibers",
    "jetpde.pde_to_relconn": "ROADMAP 3: the connection-native tower starts from it",
    "relconn.compatible": "ROADMAP 3: checks each level of the connection-native tower",
    "relconn.prolongation_connection": "ROADMAP 3: the connection-native tower",
    "relconn.torsion_at": "ROADMAP 6: names the obstruction a completion removes",
}

# shadowed member -> the function or method whose read of its name is the call
SHADOWED = {
    "ratlin.Subspace.dim": "jetpde._tower_report",  # not Tableau.dim
    "tableau.Tableau.dim": "tableau.check_tower_budget",  # not Subspace.dim
    "spencer.TableauChain.ranks": "jetpde._walk",  # not TypeVerdict.ranks
    "spencer.TableauChain.vanishing_level": "spencer.cohomology",  # not the report's field
}

_FRACTION_OPERATORS = {"__add__", "__sub__", "__neg__"}
_OPERATORS = _FRACTION_OPERATORS | {"__matmul__"}


def _defined_names(cls) -> set[str]:
    """The methods, properties, record fields and __slots__ entries of cls.

    A record's fields are its annotated names, or the field names of a
    ``namedtuple(...)`` or ``NamedTuple(...)`` call it derives from.
    """
    names = set()
    for base in cls.bases:
        func = getattr(base, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) in ("namedtuple", "NamedTuple"):
            names |= {
                field for c in ast.walk(base.args[1])
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
                for field in c.value.replace(",", " ").split()
            }
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign) and "__slots__" in [
            getattr(t, "id", None) for t in node.targets
        ]:
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def _site(modules, dotted: str):
    """The function or class that a dotted src path names, or None."""
    mod, *path = dotted.split(".")
    node = modules.get(mod)
    for name in path:
        node = next((n for n in getattr(node, "body", ()) if getattr(n, "name", "") == name), None)
    return node


def _is_static(meth) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in meth.decorator_list)


def _member_called(cls, meth, nodes) -> bool:
    if meth.name in _FRACTION_OPERATORS:
        return False
    own, inside = set(ast.walk(meth)), set(ast.walk(cls))
    if meth.name == "__matmul__":
        return any(isinstance(getattr(n, "op", None), ast.MatMult) for n in nodes - own)
    static = _is_static(meth)
    for node in nodes - own:
        if not (isinstance(node, ast.Attribute) and node.attr == meth.name):
            continue
        owner = getattr(node.value, "id", None)
        if not static or owner == cls.name or (owner in ("self", "cls") and node in inside):
            return True
    return False


def _parse(src: Path) -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _shadowed(modules) -> set[str]:
    """Every public non-static method or property of a public class whose name
    another class of the package also defines."""
    classes = [
        (mod, cls) for mod, tree in modules.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
    ]
    owners = Counter(name for _, cls in classes for name in _defined_names(cls))
    return {
        f"{mod}.{cls.name}.{m.name}"
        for mod, cls in classes
        if not cls.name.startswith("_")
        for m in cls.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
        and not _is_static(m) and owners[m.name] > 1
    }


def _callerless(src: Path = SRC, shadowed: dict = SHADOWED) -> set[str]:
    modules = _parse(src)
    # every node of product code; re-exports in __init__.py are not callers
    nodes = {n for name, tree in modules.items() if name != "__init__" for n in ast.walk(tree)}
    hidden = _shadowed(modules)

    def called(mod, cls, meth) -> bool:
        name = f"{mod}.{cls.name}.{meth.name}"
        if name not in hidden:
            return _member_called(cls, meth, nodes)
        site = _site(modules, shadowed.get(name, ""))
        reads = set(ast.walk(site)) - set(ast.walk(meth)) if site else set()
        return any(isinstance(n, ast.Attribute) and n.attr == meth.name for n in reads)

    out = set()
    for mod, tree in modules.items():
        if mod.startswith("__"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names = {n.id for n in nodes - set(ast.walk(node)) if isinstance(n, ast.Name)}
            if node.name not in names:
                out.add(f"{mod}.{node.name}")
            body = node.body if isinstance(node, ast.ClassDef) else ()
            members = [m for m in body if isinstance(m, ast.FunctionDef)]
            out |= {
                f"{mod}.{node.name}.{m.name}"
                for m in members
                if (not m.name.startswith("_") or m.name in _OPERATORS)
                and not called(mod, node, m)
            }
    return out


def test_public_api_has_a_caller_or_a_roadmap_item():
    missing = _callerless() - set(CALLERLESS)
    assert not missing, f"public API without a caller in src/: {sorted(missing)}"


def test_callerless_allowlist_only_shrinks():
    stale = set(CALLERLESS) - _callerless()
    assert not stale, f"drop from CALLERLESS, they have a caller or are gone: {sorted(stale)}"


def test_shadowed_entries_are_still_shadowed():
    stale = set(SHADOWED) - _shadowed(_parse(SRC))
    assert not stale, f"drop from SHADOWED, no other class defines the name: {sorted(stale)}"


def test_a_shadowed_member_is_called_only_from_its_listed_site(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def col(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n\n\n"
        "class _Scanner:\n    def col(self):\n        return 3\n\n\n"
        "class Record:\n    size: int\n"
    )
    (tmp_path / "b.py").write_text(
        "def use(x):\n    return x.col() + x.size\n\n\ndef other(x):\n    return x\n"
    )
    (tmp_path / "c.py").write_text(
        "from .a import A, Record\nfrom .b import other, use\n\nX = A, Record, use, other\n"
    )
    assert _shadowed(_parse(tmp_path)) == {"a.A.col", "a.A.size"}
    # the reads in b.use might be _Scanner.col and Record.size
    assert _callerless(tmp_path, {}) == {"a.A.col", "a.A.size"}
    listed = {"a.A.col": "b.use", "a.A.size": "b.other"}  # b.other reads no size
    assert _callerless(tmp_path, listed) == {"a.A.size"}
    (tmp_path / "a.py").write_text(
        "class A:\n    __slots__ = ('col',)\n\n    @property\n    def size(self):\n"
        "        return 2\n\n\nclass B:\n    def col(self):\n        return 1\n"
    )
    assert _shadowed(_parse(tmp_path)) == {"a.B.col"}
    # a record's fields named by the namedtuple or NamedTuple call it derives from
    (tmp_path / "a.py").write_text(
        "from collections import namedtuple\nfrom typing import NamedTuple\n\n\n"
        "class A:\n    def col(self):\n        return 1\n\n"
        "    def size(self):\n        return 2\n\n\n"
        "class R(namedtuple('R', 'row col')):\n    __slots__ = ()\n\n\n"
        "class S(NamedTuple('S', [('size', int)])):\n    __slots__ = ()\n"
    )
    assert _shadowed(_parse(tmp_path)) == {"a.A.col", "a.A.size"}


def test_the_check_sees_a_callerless_function(tmp_path):
    # a re-export and a self-call are not callers
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return unused()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n\nX = used()\n")
    assert _callerless(tmp_path) == {"a.unused"}


def test_the_check_sees_callerless_members(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    @staticmethod\n    def full():\n        return A\n\n"
        "    @staticmethod\n    def zero():\n        return A.full()\n\n"
        "    def __matmul__(self, other):\n        return self\n\n"
        "    def __neg__(self):\n        return self\n\n\n"
        "class B:\n"
        "    @staticmethod\n    def zero():\n        return B\n\n"
        "    def apply(self):\n        return 1\n\n\n"
        "class _Parser:\n    def error(self):\n        return 1\n"
    )
    # zero is called only on B, apply through any instance, error never
    (tmp_path / "b.py").write_text("from .a import A, B\n\nX = B.zero().apply() + A.zero() - 1\n")
    assert _callerless(tmp_path) == {"a.A.__matmul__", "a.A.__neg__"}
    # a static method called only on another class has no caller
    (tmp_path / "b.py").write_text("from .a import A, B\n\nX = B.zero().apply() @ A\n")
    assert _callerless(tmp_path) == {"a.A.zero", "a.A.__neg__"}


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    assert set(formalpde.__all__) == imported
    assert len(formalpde.__all__) == len(imported)
    assert all(hasattr(formalpde, name) for name in formalpde.__all__)
