"""No public API without a caller.

Every public top-level function and class in ``src/formalpde`` must be
referenced by name from product code somewhere in ``src/`` outside its own
definition, or sit on ``CALLERLESS`` with the ROADMAP item that will give it
a caller (or move it into ``tests/``).  Re-exports in ``__init__.py`` are not
callers, and tests are not callers.  An allowlisted name that gains a caller
or disappears fails the test too, so the list can only shrink.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "formalpde"

CALLERLESS = {
    "cli.format_system": "ROADMAP 6: prints the completed system",
    "jetpde.jet_to_prolongation_point": "ROADMAP 3: maps jet fibers onto connection fibers",
    "jetpde.pde_to_relconn": "ROADMAP 3: the connection-native tower starts from it",
    "relconn.prolongation_connection": "ROADMAP 3: the connection-native tower",
    "relconn.h01_dim": "ROADMAP 4: gains a caller or moves into tests",
    "relconn.partial_prolongation_fiber": "ROADMAP 4: gains a caller or moves into tests",
    "relconn.torsion_at": "ROADMAP 6: names the obstruction a completion removes",
}


def _names(node, skip=None) -> set[str]:
    """Every Name read or written under node, leaving out the subtree skip."""
    found, todo = set(), [node]
    while todo:
        cur = todo.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            found.add(cur.id)
        todo.extend(ast.iter_child_nodes(cur))
    return found


def _callerless(src: Path = SRC) -> set[str]:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    out = set()
    for mod, tree in modules.items():
        if mod.startswith("__"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            called = any(
                node.name in _names(other, skip=node if other is tree else None)
                for name, other in modules.items()
                if name != "__init__"
            )
            if not called:
                out.add(f"{mod}.{node.name}")
    return out


def test_public_api_has_a_caller_or_a_roadmap_item():
    missing = _callerless() - set(CALLERLESS)
    assert not missing, f"public API without a caller in src/: {sorted(missing)}"


def test_callerless_allowlist_only_shrinks():
    stale = set(CALLERLESS) - _callerless()
    assert not stale, f"drop from CALLERLESS, they have a caller or are gone: {sorted(stale)}"


def test_the_check_sees_a_callerless_function(tmp_path):
    # a re-export and a self-call are not callers
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return unused()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n\nX = used()\n")
    assert _callerless(tmp_path) == {"a.unused"}
