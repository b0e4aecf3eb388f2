"""Every `raise InvariantViolation` in ``src/formalpde`` is shown to fire.

Exit 2 is the package's only internal-failure path, so each of its checks
must be seen to trigger.  ``SITES`` maps every raise site, named
``module.function: message head`` (the message's literal text before its
first placeholder), to the test that injects a fault and sees that site
fire, or to the reason no test does.  A new site missing from the table,
a listed site that is gone, or a listed test that does not exist fails
here, as `test_api_surface` does for API.
"""

import ast
from itertools import takewhile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "formalpde"

SITES = {
    "jetpde._walk: prolonged-system symbol of dim":
        "test_cli.py::test_a_moved_cut_in_the_walk_is_an_internal_failure",
    "jetpde._walk: closed-form rank":
        "test_cli.py::test_a_wrong_character_fails_the_walks_closed_form_check",
    "jetpde._walk: truncated solutions (image dim":
        "test_cli.py::test_a_dropped_kept_row_fails_the_walks_containment",
    "jetpde.finite_type_integrability: projections above the vanishing level":
        "test_cli.py::test_a_projection_above_the_vanishing_level_that_is_not_a_bijection_is_located",
    "jetpde.crosscheck_routes: jet fiber does not map at level":
        "test_cli.py::test_an_unmapped_jet_fiber_in_the_crosscheck_is_an_internal_failure",
    "jetpde.crosscheck_routes: jet-side (dim":
        "test_cli.py::test_a_swapped_jet_mapping_fails_the_crosschecks_fiber_comparison",
    "jetpde.crosscheck_routes: projection images disagree between the routes at level":
        "untested: the fiber comparison just above runs first, and equal fibers have "
        "equal projection images (ROADMAP 8)",
    "relconn.classical_prolongation_fiber: prolongation fiber fails exactness bookkeeping":
        "test_cli.py::test_a_moved_cut_in_the_connection_route_fails_its_exactness",
    "relconn.classical_prolongation_fiber: kernel part leaves the symbol of dim":
        "test_cli.py::test_partial_rows_without_sigma_psi_fail_the_kernel_part_check",
    "relconn.classical_prolongation_fiber: kernel part (dim":
        "test_cli.py::test_a_sign_flip_in_the_symmetry_rows_fails_the_kernel_part_check",
    "relconn.torsion_at: no lift and no Fredholm witness at the point":
        "test_relconn.py::test_a_fiber_empty_point_without_a_witness_is_an_internal_failure",
    "relconn.torsion_at: torsion class vanished although no symmetric lift exists":
        "test_relconn.py::test_a_vanished_torsion_class_without_a_symmetric_lift_is_an_internal_failure",
    "spencer.TableauChain.vanishing_level: a vanished tableau level was followed by a nonzero one":
        "untested: tableau.tower checks every level it prolongs against the one "
        "below, so a nonzero level above a zero one stops at the contraction check "
        "(tableau._verify_contracts_into) first",
    "spencer.cohomology: image is not contained in the kernel at slot (":
        "test_spencer.py::test_noncommuting_partials_are_refused",
    "tableau._verify_contracts_into: tower level of degree":
        "test_cli.py::test_a_prolongation_escaping_its_level_fails_the_towers_contraction",
    "tableau.tower: generalized first prolongation violates ∂-symmetry: dim":
        "test_cli.py::test_a_generalized_prolongation_off_its_kernel_fails_the_symmetry_check",
}


def _message_head(exc: ast.expr) -> str:
    if not (isinstance(exc, ast.Call) and exc.args):
        return ""
    msg = exc.args[0]
    if isinstance(msg, ast.JoinedStr):
        return "".join(v.value for v in takewhile(lambda v: isinstance(v, ast.Constant), msg.values))
    return msg.value if isinstance(msg, ast.Constant) else ""


def _sites(src: Path = SRC) -> list[str]:
    """``module.function: message head`` of every raise of InvariantViolation."""
    out = []

    def visit(node, mod, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, mod, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                func = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(func, "id", None) == "InvariantViolation":
                    head = _message_head(child.exc).strip()
                    out.append(f"{mod}.{'.'.join(scope)}: {head}")
            visit(child, mod, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return out


def test_every_invariant_site_is_in_the_table():
    found = _sites()
    assert len(found) == len(set(found)), "two sites share a name: make their messages differ"
    missing = set(found) - set(SITES)
    assert not missing, f"InvariantViolation sites without a test or a reason: {sorted(missing)}"
    stale = set(SITES) - set(found)
    assert not stale, f"drop from SITES, these sites are gone: {sorted(stale)}"


def test_every_listed_test_exists_and_expects_the_failure():
    for site, where in SITES.items():
        if where.startswith("untested: "):
            continue
        module, _, name = where.partition("::")
        tree = ast.parse((TESTS / module).read_text())
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        assert defs, f"{site}: {where} does not exist"
        body = ast.unparse(defs[0])
        assert "InvariantViolation" in body or "== 2" in body, f"{site}: {where} expects no failure"


def test_the_scan_sees_nested_and_method_sites(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n"
        "    def g():\n"
        "        raise InvariantViolation(f'inner {x} fails')\n"
        "    if x:\n"
        "        raise InvariantViolation('outer fails')\n\n\n"
        "class C:\n"
        "    def m(self):\n"
        "        raise InvariantViolation(f'{self} first')\n\n\n"
        "def h():\n"
        "    raise ValueError('not a site')\n"
    )
    assert _sites(tmp_path) == ["a.f.g: inner", "a.f: outer fails", "a.C.m: "]
