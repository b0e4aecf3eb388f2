"""Tests for the .pde grammar, canonical printer, and command-line driver.

Plan:
 1. every corpus file parses to the expected system matrix
 2. syntax errors carry line, column and the expected token; numbers are
    ASCII digits, an over-long literal is a syntax error at its column, and
    fuzzed text raises only PdeSyntaxError or PdeSemanticError
 3. semantic errors carry stable codes; headers whose base jet fiber is
    past the parser's limit are refused fast, before any equation is read
 4. coefficient and sign forms: rationals, '*', signed separators, 0 = 0
 5. canonical printing round-trips (parse of print == original system)
 6. exit codes: 0 for completed analyses (all six commands on a system with
    mixed top-order partials read the walk's dims and H = 0), 1 for input problems,
    2 for internal consistency failures, among them faults injected into the
    walk (a moved cut, a dropped kept row), into the crosscheck's jet
    mapping and into the connection route's rows, and for any unexpected
    exception, printed without a traceback; an out-of-range count flag is a
    bad flag, named in the message, and finite-type takes no depth flag; a
    depth whose jet fiber is past the budget exits 1 within a second, before
    any elimination
 7. --json '-' emits only deterministic JSON; --json PATH writes the file
    and keeps the table on stdout; a corpus file with a leading byte-order
    mark reads as the same system and gives the same JSON
 8. crosscheck agrees level by level; --version; goldschmidt certifies the
    gradient system through the vanishing symbol; every command builds the
    symbol tower once; only main loads the system and emits the report;
    the CLI's start-up loads every module of the package and neither
    dataclasses nor inspect
"""

import ast
import codecs
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import product
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from formalpde import cli
from formalpde.cli import (
    PdeSemanticError,
    PdeSyntaxError,
    format_system,
    load_system,
    main,
    parse_system,
)
from formalpde import jetpde, ratlin, relconn as relconn_module, spencer, tableau as tableau_module
from formalpde.errors import InvariantViolation
from formalpde.jetpde import (
    MAX_CROSSCHECK_WIDTH,
    MAX_JET_FIBER,
    PdeSystem,
    check_jet_budget,
    crosscheck_routes,
    finite_type_integrability,
    goldschmidt_check,
    jet_fiber_dim,
    jet_index,
    pde_to_relconn,
    prolongation_tower,
    symbol_tableau,
    symbol_tower,
)
from formalpde.ratlin import RatMatrix, Subspace, rank
from formalpde.relconn import classical_prolongation_fiber
from formalpde.spencer import MAX_SPENCER_SLOT, HEntry, TableauChain, cohomology
from formalpde.tableau import MAX_TOWER_WORK, Tableau, tower
from formalpde.tensorspace import multi_indices, sym_dim


def corpus_path(name: str):
    return resources.files("formalpde") / "corpus" / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text()


HEADER = "base_dim = 2\nfiber_rank = 2\norder = 1\n"


# --------------------------- 1. corpus ---------------------------


def test_corpus_cauchy_riemann():
    s = parse_system(corpus_text("cauchy_riemann.pde"))
    expected = PdeSystem.from_terms(
        2, 2, 1,
        [
            [(1, 0, (1, 0)), (-1, 1, (0, 1))],
            [(1, 0, (0, 1)), (1, 1, (1, 0))],
        ],
    )
    assert s == expected


def test_corpus_second_order():
    lap = parse_system(corpus_text("laplace2d.pde"))
    assert lap == PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0)), (1, 0, (0, 2))]])
    wave = parse_system(corpus_text("wave1d.pde"))
    assert wave == PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0)), (-1, 0, (0, 2))]])
    grad = parse_system(corpus_text("gradient_zero.pde"))
    assert grad == PdeSystem.from_terms(2, 1, 1, [[(1, 0, (1, 0))], [(1, 0, (0, 1))]])


def flat_terms(a1, a2):
    eqs = []
    for i, mat in enumerate([a1, a2]):
        step = [(1, 0), (0, 1)][i]
        for b in range(2):
            terms = [(1, b, step)]
            for c in range(2):
                if mat[b][c]:
                    terms.append((mat[b][c], c, (0, 0)))
            eqs.append(terms)
    return eqs


def test_corpus_flat_connections():
    commuting = parse_system(corpus_text("flat_connection_commuting.pde"))
    assert commuting == PdeSystem.from_terms(
        2, 2, 1, flat_terms([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    )
    obstructed = parse_system(corpus_text("flat_connection_obstructed.pde"))
    assert obstructed == PdeSystem.from_terms(
        2, 2, 1, flat_terms([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    )


# --------------------------- 2. syntax errors ---------------------------


def test_syntax_error_positions():
    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1_x1 + = 0\n")
    assert info.value.line == 4
    assert info.value.col == 13
    assert "jet variable" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1_ = 0\n")
    assert "x1 after '_'" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1 = 1\n")
    assert "'0' on the right-hand side" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1 = 0 junk\n")
    assert "end of line" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1 u2 = 0\n")
    assert (info.value.line, info.value.col) == (4, 8)
    assert "'+', '-' or '= 0'" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "what is this\n")
    assert "header" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1 = 0  # trailing comment\n")
    assert "full-line comment" in info.value.message


# only ASCII digits are numbers: '²' and '٢' pass str.isdigit()
_FUZZ_CHARS = st.sampled_from("u_x0123/*+-= \t:eq#²٢") | st.characters()
_FUZZ_LINES = st.text(_FUZZ_CHARS, max_size=24)


@settings(deadline=None, max_examples=200)
@given(st.lists(_FUZZ_LINES | _FUZZ_LINES.map(lambda t: "eq: " + t), max_size=4))
@example(["eq: u1_x²"])
@example(["eq: 2² u1 = 0"])
def test_parser_raises_only_input_errors(lines):
    # the headers are fixed and small, and a fuzzed header line can only be a
    # duplicate: the fuzzed text reaches the parser and nothing else
    try:
        parse_system(HEADER + "\n".join(lines))
    except (PdeSyntaxError, PdeSemanticError):
        pass


def test_non_ascii_digits_are_syntax_errors():
    with pytest.raises(PdeSyntaxError) as info:
        parse_system(HEADER + "eq: u1_x² = 0\n")
    assert (info.value.line, info.value.col) == (4, 9)
    assert "direction number" in info.value.message

    with pytest.raises(PdeSyntaxError) as info:
        parse_system("base_dim = ٢\nfiber_rank = 1\norder = 1\n")
    assert (info.value.line, info.value.col) == (1, 1)
    assert "header" in info.value.message


_LONG = "7" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize(
    "text, line, col",
    [
        (HEADER + f"eq: {_LONG} u1 = 0\n", 4, 5),  # coefficient
        (HEADER + f"eq: 2/{_LONG} u1 = 0\n", 4, 7),  # denominator
        (HEADER + f"eq: u{_LONG} = 0\n", 4, 6),  # component
        (HEADER + f"eq: u1_x{_LONG} = 0\n", 4, 9),  # direction
        (f"base_dim = {_LONG}\nfiber_rank = 1\norder = 1\n", 1, 12),  # header
    ],
)
def test_overlong_integer_literals_are_syntax_errors(text, line, col, tmp_path, capsys):
    with pytest.raises(PdeSyntaxError) as info:
        parse_system(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert "5000 digits" in info.value.message
    path = write_pde(tmp_path, text)
    assert main(["symbol", path]) == 1
    assert capsys.readouterr().err == f"{path}: {info.value}\n"


# --------------------------- 3. semantic errors ---------------------------


def semantic_code(text: str) -> str:
    with pytest.raises(PdeSemanticError) as info:
        parse_system(text)
    return info.value.code


def test_semantic_error_codes():
    assert semantic_code(HEADER + "eq: u3 = 0\n") == "component-out-of-range"
    assert semantic_code(HEADER + "eq: u1_x3 = 0\n") == "direction-out-of-range"
    assert semantic_code(HEADER + "eq: u1_x1x2 = 0\n") == "order-exceeded"
    assert semantic_code(HEADER + "eq: 1/0 u1 = 0\n") == "zero-denominator"
    assert semantic_code(HEADER + "order = 1\neq: u1 = 0\n") == "duplicate-header"
    assert semantic_code("base_dim = 2\neq: u1 = 0\n") == "missing-header"
    assert semantic_code("base_dim = 2\nfiber_rank = 2\n") == "missing-header"
    assert (
        semantic_code(HEADER + "eq: u1 = 0\nbase_dim = 3\n")
        == "header-after-equation"
    )
    assert semantic_code("base_dim = 0\nfiber_rank = 1\norder = 1\n") \
        == "header-out-of-range"


@pytest.mark.parametrize(
    "n, m, k",
    [(99999999999, 1, 1), (1, 99999999999, 1), (10**90, 10**90, 10**90), (1, 251, 1)],
    ids=["base_dim", "fiber_rank", "every-header", "one-past"],
)
def test_base_fiber_past_the_limit_is_refused_before_allocating(
    n, m, k, tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(cli, "_parse_equation", never)
    monkeypatch.setattr(PdeSystem, "from_terms", never)
    path = write_pde(tmp_path, f"base_dim = {n}\nfiber_rank = {m}\norder = {k}\neq: u1_x1 = 0\n")
    start = time.perf_counter()
    assert main(["symbol", path]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "[header-out-of-range]" in err and f"exceeds {cli.MAX_BASE_FIBER}" in err


def test_base_fiber_at_the_limit_is_accepted():
    # 250 · C(1 + 1, 1) = 500
    s = parse_system("base_dim = 1\nfiber_rank = 250\norder = 1\n")
    assert s.equations.cols == cli.MAX_BASE_FIBER


# --------------------------- 4. term forms ---------------------------


def test_coefficient_and_sign_forms():
    s = parse_system(
        "base_dim = 2\nfiber_rank = 2\norder = 2\n"
        "eq: 3/2 u1 + 2*u2_x1x2 - u1_x2 = 0\n"
        "eq: -u2 + u2 = 0\n"
        "eq: 0 = 0\n"
    )
    assert s.equations.rows == 3
    row = s.equations.row(0)
    assert row[jet_index(2, 2, 2, 0, (0, 0))] == Fraction(3, 2)
    assert row[jet_index(2, 2, 2, 1, (1, 1))] == 2
    assert row[jet_index(2, 2, 2, 0, (0, 1))] == -1
    assert all(x == 0 for x in s.equations.row(1))
    assert all(x == 0 for x in s.equations.row(2))
    # a leading 0 that is a coefficient, not the trivial equation, is read again
    s = parse_system(HEADER + "eq: 0 u1 = 0\neq: 0/3 u1_x1 + u2 = 0\n")
    assert s.equations.pairs == ((), ((jet_index(2, 2, 1, 1, (0, 0)), 1),))


def test_comments_and_blank_lines():
    s = parse_system(
        "# a comment\n\nbase_dim = 2\n# another\nfiber_rank = 1\norder = 1\n\n"
        "eq: u1_x1 = 0\n"
    )
    assert s.equations.rows == 1


def test_empty_equation_list_is_a_free_system():
    s = parse_system("base_dim = 2\nfiber_rank = 1\norder = 1\n")
    assert s.equations.rows == 0
    assert s.equations.cols == 3


# --------------------------- 5. canonical printing ---------------------------


@st.composite
def pde_systems(draw):
    """Systems with signed rational coefficients; an equation may be empty,
    and its terms may be zero or cancel."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    # a multi-index of order <= k, as the directions it differentiates along
    alpha = st.lists(st.integers(0, n - 1), max_size=k).map(lambda d: tuple(map(d.count, range(n))))
    # a / q with |a| <= 4q: st.fractions(-4, 4, max_denominator=3)'s values, drawn faster
    coeff = st.integers(1, 3).flatmap(
        lambda q: st.integers(-4 * q, 4 * q).map(lambda a: Fraction(a, q))
    )
    term = st.tuples(coeff, st.integers(0, m - 1), alpha)
    return PdeSystem.from_terms(n, m, k, draw(st.lists(st.lists(term, max_size=4), max_size=3)))


@settings(deadline=None, max_examples=300)
@given(pde_systems())
def test_print_parse_round_trip(s):
    assert parse_system(format_system(s)) == s


def test_canonical_form_is_stable():
    text = corpus_text("cauchy_riemann.pde")
    canonical = format_system(parse_system(text))
    assert canonical == (
        "base_dim = 2\nfiber_rank = 2\norder = 1\n\n"
        "eq: u1_x1 - u2_x2 = 0\neq: u1_x2 + u2_x1 = 0\n"
    )
    assert format_system(parse_system(canonical)) == canonical
    zero_row = PdeSystem.from_terms(2, 1, 1, [[]])
    assert "eq: 0 = 0" in format_system(zero_row)


# --------------------------- 6. exit codes ---------------------------


def write_pde(tmp_path, text: str):
    path = tmp_path / "system.pde"
    path.write_text(text)
    return str(path)


def test_exit_zero_for_completed_analyses(tmp_path, capsys):
    path = str(corpus_path("flat_connection_obstructed.pde"))
    assert main(["tower", path, "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "obstructed-at(1)" in out
    assert main(["goldschmidt", path]) == 0
    assert main(["symbol", path]) == 0
    assert main(["cohomology", path, "--l-max", "1"]) == 0
    assert main(["finite-type", path]) == 0
    assert main(["crosscheck", path]) == 0


# tests/systems.py's MIXED_PARTIALS in corpus syntax: mixed top-order partials
# in principal parts that share a factor
MIXED_PARTIALS = """\
base_dim = 2
fiber_rank = 2
order = 2

eq: u1_x1x1 + 2 u1_x1x2 + u1_x2x2 + 2 u2_x1x1 + 4 u2_x1x2 + 2 u2_x2x2 = 0
eq: -3 u1_x1x1 - 6 u1_x1x2 - 3 u1_x2x2 + 2 u2_x1x1 + 4 u2_x1x2 + 2 u2_x2x2 = 0
eq: -20 u1_x1x1 + 20 u1_x2x2 + u1 = 0
"""


def test_mixed_top_order_partials_read_the_walks_dims_in_every_command(tmp_path, capsys):
    path = write_pde(tmp_path, MIXED_PARTIALS)
    out = {}
    for command in ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"):
        assert main([command, path, "--json", "-"]) == 0, command
        out[command] = json.loads(capsys.readouterr().out)
    assert out["symbol"]["ranks"] == [3, 3, 3, 3, 3]
    tower_levels = out["tower"]["levels"]
    assert out["tower"]["base_fiber_dim"] == 9
    assert [lv["fiber_dim"] for lv in tower_levels] == [11, 13, 15, 17]
    assert [lv["symbol_dim"] for lv in tower_levels] == [3, 3, 3, 3]
    assert [e["h_dim"] for e in out["cohomology"]["entries"]] == [0] * 6  # l = 0..2, m = 1, 2
    for command in ("tower", "goldschmidt", "finite-type"):
        assert (out[command]["verdict"], out[command]["verdict_level"]) == ("obstructed-at", 1)
    for command in ("goldschmidt", "finite-type"):
        assert [e["h_dim"] for e in out[command]["cohomology"]] == [0] * 6
    assert [lv["symbol_dim"] for lv in out["crosscheck"]["levels"]] == [3, 3]


def test_exit_one_for_input_problems(tmp_path, capsys):
    bad = write_pde(tmp_path, HEADER + "eq: u5 = 0\n")
    assert main(["tower", bad]) == 1
    assert "component-out-of-range" in capsys.readouterr().err
    assert main(["tower", str(tmp_path / "missing.pde")]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["tower", bad, "--no-such-flag"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "command, flag, value, bound",
    [
        ("symbol", "--levels", "0", 1),
        ("tower", "--levels", "-1", 1),
        ("crosscheck", "--levels", "0", 1),
        ("cohomology", "--l-max", "-1", 0),
        ("goldschmidt", "--l-max", "-2", 0),
        ("finite-type", "--l-max", "-1", 0),
        ("cohomology", "--m-max", "0", 1),
    ],
)
def test_out_of_range_flags_name_the_flag(command, flag, value, bound, capsys):
    path = str(corpus_path("wave1d.pde"))
    with pytest.raises(SystemExit) as info:
        main([command, path, flag, value])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {bound}, got {value}" in err
    # the smallest accepted value still runs
    assert main([command, path, flag, str(bound), "--json", "-"]) == 0


def test_finite_type_takes_no_depth_flag(capsys):
    # its criterion fixes the walk's depth: one level past the vanishing one
    with pytest.raises(SystemExit) as info:
        main(["finite-type", str(corpus_path("wave1d.pde")), "--levels", "3"])
    assert info.value.code == 1
    assert "unrecognized arguments: --levels 3" in capsys.readouterr().err


def test_finite_type_walks_one_level_past_its_l_max(tmp_path, capsys):
    # u_x1^7 = u_x2^7 = 0: the symbol vanishes at level 6, so the certificate
    # needs the projection from level 7 as well
    s = PdeSystem.from_terms(2, 1, 7, [[(1, 0, (7, 0))], [(1, 0, (0, 7))]])
    path = write_pde(tmp_path, format_system(s))
    assert main(["finite-type", path, "--l-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "verdict: formally-integrable-certified(6)  [finite-type(6)]" in out
    assert main(["finite-type", path, "--l-max", "6", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certification_basis"] == "finite-type(6)"
    assert [lv["level"] for lv in payload["levels"]] == list(range(1, 8))


HEAT3 = "base_dim = 3\nfiber_rank = 1\norder = 2\neq: u1_x1x1 + u1_x2x2 - u1_x3 = 0\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("tower", "--levels", "20"),  # the order-22 jet fiber: C(25, 3) = 2300
        ("tower", "--levels", "9" * 23),
        ("goldschmidt", "--l-max", "9" * 23),
        ("cohomology", "--l-max", "10" + "0" * 20),
    ],
)
def test_depth_past_the_jet_budget_is_refused_in_a_child(command, flag, value, tmp_path):
    # in a child with a timeout: a refusal that came too late would run the
    # analysis, which must never happen in the test run itself
    path = write_pde(tmp_path, HEAT3)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "formalpde", command, path, flag, value],
        capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and not proc.stdout
    assert "prolongation to depth" in proc.stderr
    assert f"above the budget of {MAX_JET_FIBER}" in proc.stderr


def test_jet_budget_is_exact_at_its_edge_and_admits_the_ladder():
    # n = 1: m·C(1 + k + depth, 1) = 10 · (2 + depth), so depth 98 is 1000
    free = PdeSystem.from_terms(1, 10, 1, [])
    check_jet_budget(free, 98)
    with pytest.raises(ValueError, match="order-100 jet fiber of 1010 coordinates"):
        check_jet_budget(free, 99)
    # the widest benchmark ladder input: the 4-D wave equation at depth 5
    check_jet_budget(PdeSystem.from_terms(4, 1, 2, []), 5)
    # every corpus system at each command's default depth
    for path in (resources.files("formalpde") / "corpus").iterdir():
        check_jet_budget(cli.load_system(str(path)), 6)


# passes the parser (base fiber 44) and, at depth 1, the jet budget
# (C(45, 2) = 990), yet its depth-1 tower reaches S^2 of C(44, 2) = 946
# coordinates: n·A^2 = 3.8e7
FIRST_ORDER_43 = "base_dim = 43\nfiber_rank = 1\norder = 1\neq: u1_x1 = 0\n"


def free_first_order(n: int) -> str:
    return f"base_dim = {n}\nfiber_rank = 1\norder = 1\n"


def run_child(command, path, flags):
    """The command in a child with a timeout: a refusal that came too late
    would run the analysis, which must never happen in the test run itself."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "formalpde", command, path, *flags],
        capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and not proc.stdout
    return proc.stderr


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("cohomology", ["--m-max", "100000"], "--m-max 100000 exceeds base_dim 2"),
        # the free system in eight variables: level 2 has C(10, 3) = 120
        # coordinates, so slot (2, 4) has C(8, 4)·120 = 8400
        ("cohomology", ["--l-max", "1"], "Spencer cohomology to l_max 1 and m_max 8"),
        # in 18 variables: slot (1, 1) has 18·C(19, 2) = 3078 coordinates
        ("goldschmidt", ["--l-max", "0"], "Spencer cohomology to l_max 0 and m_max 2"),
    ],
)
def test_spencer_window_past_its_budget_is_refused_in_a_child(
    command, flags, message, tmp_path
):
    if "--m-max" in flags:
        path = str(corpus_path("wave1d.pde"))
    else:
        path = write_pde(tmp_path, free_first_order(8 if command == "cohomology" else 18))
    assert message in run_child(command, path, flags)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("symbol", ["--levels", "1"]),
        ("finite-type", ["--l-max", "0"]),
        ("cohomology", ["--l-max", "0"]),
        ("goldschmidt", ["--l-max", "0"]),
    ],
)
def test_symbol_tower_past_its_budget_is_refused_in_a_child(command, flags, tmp_path):
    err = run_child(command, write_pde(tmp_path, FIRST_ORDER_43), flags)
    assert "symbol tower to depth 1 reaches S^2 ⊗ R^1 in 43 variables" in err
    assert f"A = 946 coordinates: n·A^2 is above the budget of {MAX_TOWER_WORK}" in err


class Admitted(Exception):
    """Raised by a stub of the first step past a budget check."""


def reaches(monkeypatch, module, name, call) -> bool:
    """Whether call gets past its budget check to module.name (stubbed out,
    so nothing past the check runs); a refusal propagates."""

    def stub(*args, **kwargs):
        raise Admitted

    with monkeypatch.context() as patch:
        patch.setattr(module, name, stub)
        try:
            call()
        except Admitted:
            return True
    return False


def chain_of_widths(n, below, dims):
    """A chain with zero maps whose level -1 and levels 0.. have the given
    dimensions: only its shape matters to the Spencer budget."""
    levels = tuple(Subspace.full(d) for d in dims)
    partials = [RatMatrix([[Fraction(0)] * dims[0]] * (n * below), cols=dims[0])]
    partials += [
        RatMatrix([[Fraction(0)] * d] * (n * prev), cols=d) for prev, d in zip(dims, dims[1:])
    ]
    return TableauChain(n=n, levels=levels, partials=tuple(partials))


def test_spencer_budget_is_exact_at_its_edge_and_admits_the_ladder(monkeypatch):
    # n = 2, window (0, 1): the map out of it meets Λ^2 ⊗ level -1, of
    # C(2, 2)·below coordinates, the widest slot met
    report = cohomology(chain_of_widths(2, MAX_SPENCER_SLOT, (1, 0)), 0, 1)
    assert report.entries[(0, 1)] == HEntry(2, 0, 2)
    with pytest.raises(ValueError, match=f"\\(-1, 2\\) of {MAX_SPENCER_SLOT + 1} coordinates"):
        cohomology(chain_of_widths(2, MAX_SPENCER_SLOT + 1, (1, 0)), 0, 1)
    # the benchmark's goldschmidt window on the 4-D wave equation (the free
    # second-order system bounds it), and beyond
    free4 = PdeSystem.from_terms(4, 1, 2, [])
    assert reaches(monkeypatch, spencer, "_slot_matrix", lambda: goldschmidt_check(free4, 6))
    # every corpus system at each command's default window
    for path in (resources.files("formalpde") / "corpus").iterdir():
        system = cli.load_system(str(path))
        cohomology(symbol_tower(system, 3), 2, system.n)


def test_finite_type_budgets_only_its_goldschmidt_fallback():
    # in 18 variables, m_max 2 meets Λ^1 ⊗ S^2 of 18·171 = 3078 coordinates
    n = 18
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    gradient = PdeSystem.from_terms(n, 1, 1, [[(1, 0, alpha)] for alpha in units])
    assert finite_type_integrability(gradient, 0).verdict == (
        "formally-integrable-certified"
    )
    with pytest.raises(ValueError, match="Spencer cohomology to l_max 0 and m_max 2"):
        finite_type_integrability(PdeSystem.from_terms(n, 1, 1, []), 0)


def largest_slot_met(chain, l_max, m_max):
    """The widest slot Λ^j ⊗ W_level that cohomology's maps meet, from the
    chain's exact level dimensions: for each window slot (l, mm) with
    Λ^mm ⊗ W_l nonzero, the slot itself, the target (l-1, mm+1) of the map
    out of it and the source (l+1, mm-1) of the map into it (W_-1 is the
    space the level-0 map lands in)."""
    n = chain.n
    dims = {l: level.dim for l, level in enumerate(chain.levels)}
    dims[-1] = chain.partials[0].rows // n
    met = [
        (level, j)
        for l in range(l_max + 1)
        for mm in range(1, m_max + 1)
        if comb(n, mm) * dims[l]
        for level, j in ((l, mm), (l - 1, mm + 1), (l + 1, mm - 1))
    ]
    return max((comb(n, j) * dims[level] for level, j in met), default=0)


def test_spencer_budget_refuses_exactly_the_windows_past_it(monkeypatch):
    # the budget scaled down, so small chains meet it on both sides
    heat3 = cli.parse_system(HEAT3)
    gradient = PdeSystem.from_terms(3, 1, 1, [[(1, 0, (1, 0, 0))], [(1, 0, (0, 1, 0))],
                                              [(1, 0, (0, 0, 1))]])
    # every second derivative zero: W_0 = 0, but W_-1 has 6 coordinates
    hessian = PdeSystem.from_terms(
        3, 2, 2, [[(1, a, alpha)] for a in range(2) for alpha in multi_indices(3, 2)]
    )
    systems = [PdeSystem.from_terms(n, m, k, []) for n, m, k in product((1, 2, 3), (1, 2), (1, 2))]
    systems += [heat3, gradient, hessian, cli.load_system(str(corpus_path("cauchy_riemann.pde")))]
    outcomes = set()
    for system in systems:
        chain = symbol_tower(system, 3)
        for l_max, m_max, budget in product(range(3), range(1, system.n + 1), (8, 30, 90)):
            monkeypatch.setattr(spencer, "MAX_SPENCER_SLOT", budget)
            fits = largest_slot_met(chain, l_max, m_max) <= budget
            try:
                reaches(
                    monkeypatch, spencer, "_slot_matrix", lambda: cohomology(chain, l_max, m_max)
                )
            except ValueError:
                refused = True
            else:
                refused = False
            assert refused != fits, (system, l_max, m_max, budget)
            outcomes.add(fits)
    assert outcomes == {True, False}
    # the vanished symbol of the gradient system has no slot at all
    assert largest_slot_met(symbol_tower(gradient, 3), 2, 3) == 0


def test_tower_budget_is_exact_at_its_edge_and_admits_the_ladder(monkeypatch):
    def builds(t):
        return reaches(monkeypatch, Subspace, "full", lambda: tower(t, 1))

    # n = 2 at depth 1: A = f·(degree + 2), and 2·2236^2 <= 10^7 < 2·2237^2
    assert MAX_TOWER_WORK == 10**7
    assert builds(Tableau(n=2, f=559, space=Subspace.zero(3 * 559), degree=2))
    with pytest.raises(ValueError, match="A = 2237 coordinates"):
        tower(Tableau(n=2, f=1, space=Subspace.zero(2236), degree=2235), 1)
    # a generalized tableau of p carrier coordinates in n = 10 directions:
    # depth 1 reaches S^1 ⊗ R^p, A = 10p, so p = 100 is n·A^2 = 10^7
    def generalized(p):
        return Tableau.generalized(10, 1, Subspace.full(p), RatMatrix([[Fraction(0)] * p] * 10))

    assert builds(generalized(100))
    with pytest.raises(ValueError, match="A = 1010 coordinates"):
        tower(generalized(101), 1)
    # the benchmark ladder, the heat system at the jet budget's edge, and the
    # gradient system in 18 variables whose finite-type test above needs depth 1
    n = 18
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for system, depth in (
        (PdeSystem.from_terms(4, 1, 2, []), 5),
        (cli.parse_system(HEAT3), 14),
        (PdeSystem.from_terms(n, 1, 1, [[(1, 0, alpha)] for alpha in units]), 1),
    ):
        tower(symbol_tableau(system), depth)
    # every corpus system at each command's default depth
    for path in (resources.files("formalpde") / "corpus").iterdir():
        tower(symbol_tableau(cli.load_system(str(path))), 4)


def test_tower_refuses_a_depth_past_the_root_of_its_budget():
    # n = 1 and an empty generalized carrier: A does not grow with the depth,
    # so only the depth bound stops the tower
    assert isqrt(MAX_TOWER_WORK) == 3162
    line = Tableau(n=1, f=1, space=Subspace.full(1))
    empty = Tableau.generalized(2, 1, Subspace.full(0), RatMatrix([[], []], cols=0))
    for t in (line, empty):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"symbol tower to depth {10**7} is deeper than 3162"):
            tower(t, 10**7)
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match="symbol tower to depth 3163"):
            tower(t, 3163)
    assert len(tower(line, 3162).levels) == 3163


def test_cohomology_refuses_a_form_degree_past_every_caller():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Spencer cohomology to m_max 400000 is past form degree 2"):
        cohomology(chain_of_widths(2, 1, (1, 0)), 0, 4 * 10**5)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="m_max 4 is past form degree 3"):
        cohomology(symbol_tower(cli.parse_system(HEAT3), 2), 0, 4)
    # goldschmidt asks for m_max 2 in one variable too: u'' = 0
    line = PdeSystem.from_terms(1, 1, 2, [[(1, 0, (2,))]])
    assert goldschmidt_check(line, 2).verdict == "formally-integrable-certified"


def test_crosscheck_budget_is_exact_at_its_edge_and_admits_the_ladder(monkeypatch):
    # n = 1: (1 + n)·m·C(1 + k + depth - 1, 1) = 2·250·(1 + depth)
    free = PdeSystem.from_terms(1, 250, 1, [])
    assert reaches(monkeypatch, jetpde, "symbol_tower", lambda: crosscheck_routes(free, 1))
    with pytest.raises(ValueError, match=f"1500 coordinates, above the budget of {MAX_CROSSCHECK_WIDTH}"):
        crosscheck_routes(free, 2)
    heat3 = cli.parse_system(HEAT3)
    assert reaches(monkeypatch, jetpde, "symbol_tower", lambda: crosscheck_routes(heat3, 5))
    systems = [cli.load_system(str(p)) for p in (resources.files("formalpde") / "corpus").iterdir()]
    systems += [PdeSystem.from_terms(n, m, k, []) for n, m, k in ((3, 2, 1), (2, 2, 2))]  # widest pool shapes
    for system in systems:
        assert reaches(monkeypatch, jetpde, "symbol_tower", lambda: crosscheck_routes(system, 2))


def test_a_refused_analysis_eliminates_nothing(count_calls):
    heat3 = cli.parse_system(HEAT3)
    free18 = PdeSystem.from_terms(18, 1, 1, [])
    first43 = cli.parse_system(FIRST_ORDER_43)
    # the base system's own fiber, bounded by the parser and cached, is the
    # one elimination every analysis starts from
    symbol_tableau(free18), symbol_tableau(first43)
    table = [
        (lambda: prolongation_tower(heat3, 20), "prolongation to depth 20"),
        (lambda: goldschmidt_check(free18, 0), "Spencer cohomology to l_max 0"),
        (lambda: finite_type_integrability(first43, 0), "symbol tower to depth 1"),
        (lambda: crosscheck_routes(heat3, 14), "crosscheck to depth 14"),
        (lambda: tower(Tableau(n=43, f=1, space=Subspace.full(43)), 1), "symbol tower to depth 1"),
        (lambda: cohomology(chain_of_widths(2, MAX_SPENCER_SLOT + 1, (1, 0)), 0, 1),
         "Spencer cohomology to l_max 0"),
    ]
    calls = [count_calls(ratlin._reduced), count_calls(rank), count_calls(spencer._slot_matrix)]
    for call, stage in table:
        with pytest.raises(ValueError, match=stage):
            call()
    assert calls == [[], [], []]


def test_the_parser_is_built_once_and_dispatch_reads_the_current_command(
    count_calls, monkeypatch, capsys
):
    path = str(corpus_path("laplace2d.pde"))
    assert main(["symbol", path]) == 0
    builds = count_calls(cli.build_parser)
    assert main(["tower", path]) == 0
    assert main(["crosscheck", path]) == 0
    assert builds == []
    ran = []
    monkeypatch.setattr(
        cli, "cmd_tower", lambda args, system: ran.append(args.command) or ([], {})
    )
    assert main(["tower", path]) == 0
    assert ran == ["tower"]
    capsys.readouterr()


def test_main_alone_loads_the_system_and_emits_the_report():
    # each command maps (args, system) to (lines, payload): the file is read
    # and the report written once, in main
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = {
        (getattr(top, "name", None), call.func.id)
        for top in tree.body
        for call in ast.walk(top)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("load_system", "_emit")
    }
    assert callers == {("main", "load_system"), ("main", "_emit")}


def test_exit_two_for_internal_failures(tmp_path, capsys, monkeypatch):
    import formalpde.cli as cli_mod

    def boom(system, depth):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli_mod, "prolongation_tower", boom)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["tower", path]) == 2
    assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck"]
)
def test_an_unexpected_exception_is_an_internal_failure(command, capsys, monkeypatch):
    # with nothing cached for the system, every command reaches an elimination
    for cache in (jetpde.solution_fiber, jetpde.symbol_tableau, jetpde._held_tower):
        cache.cache_clear()

    def broken(rows, pivot_rows):
        raise KeyError("injected")

    monkeypatch.setattr(ratlin, "_echelon", broken)
    assert main([command, str(corpus_path("laplace2d.pde"))]) == 2
    err = capsys.readouterr().err
    assert f"internal failure in {command}: KeyError: 'injected'" in err
    assert "Traceback" not in err


def move_the_cut(monkeypatch):
    """Fault: every truncation image read off a fiber loses its last vector."""
    read_off = Subspace.head

    def moved(self, stop):
        image = read_off(self, stop)
        return Subspace(stop, image.rows[:-1])

    monkeypatch.setattr(Subspace, "head", moved)


@pytest.mark.parametrize("command", ["tower", "goldschmidt", "finite-type", "crosscheck"])
def test_a_moved_cut_in_the_walk_is_an_internal_failure(command, tmp_path, capsys, monkeypatch):
    # the symbol is the rest of the fiber's basis, so a short image shows up
    # as a symbol one larger than the independent tableau tower's rank
    move_the_cut(monkeypatch)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert "symbol of dim" in err and "disagrees with the tableau tower" in err
    assert "at level 1" in err


def test_a_moved_cut_in_the_connection_route_fails_its_exactness(monkeypatch):
    move_the_cut(monkeypatch)
    conn = pde_to_relconn(parse_system(corpus_text("laplace2d.pde")))
    with pytest.raises(InvariantViolation, match="exactness"):
        classical_prolongation_fiber(conn)


@pytest.mark.parametrize("command", ["tower", "goldschmidt", "finite-type", "crosscheck"])
def test_a_dropped_kept_row_fails_the_walks_containment(command, tmp_path, capsys, monkeypatch):
    # the walk seeds each level's elimination with the lower annihilator's
    # rows; without the lower equation the truncated solutions fill the lower
    # jets, while the shifted rows alone still give the tableau tower's
    # symbol, so only the containment check sees the fault
    seeded = jetpde.kernel

    def dropped(m, kept=()):
        return seeded(m, kept=kept[1:])

    monkeypatch.setattr(jetpde, "kernel", dropped)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main([command, path]) == 2
    assert (
        "truncated solutions (image dim 6) violate the lower system (fiber dim 5) at level 1"
        in capsys.readouterr().err
    )


def test_an_unmapped_jet_fiber_in_the_crosscheck_is_an_internal_failure(
    tmp_path, capsys, monkeypatch
):
    # the walk's fibers solve the prolonged system, so a jet the connection
    # route cannot read is the program's failure (exit 2), not the input's;
    # the fault adds 1 at the jet's last coordinate, given as pairs
    to_point = jetpde._prolongation_point

    def perturbed(system, fiber, pairs):
        moved, last = dict(pairs), jet_fiber_dim(system.n, system.m, system.k + 1) - 1
        moved[last] = moved.get(last, 0) + 1
        return to_point(system, fiber, [(t, x) for t, x in sorted(moved.items()) if x])

    monkeypatch.setattr(jetpde, "_prolongation_point", perturbed)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["crosscheck", path]) == 2
    err = capsys.readouterr().err
    assert "does not map at level 1" in err and "does not solve the system" in err


def test_a_swapped_jet_mapping_fails_the_crosschecks_fiber_comparison(
    tmp_path, capsys, monkeypatch
):
    # a coordinate swap is invertible, so every fiber vector still maps and
    # the dimensions agree, but the mapped fiber is not the connection's
    to_point = jetpde._prolongation_point

    def swapped(system, fiber, pairs):
        point = to_point(system, fiber, pairs)
        return (point[-1], *point[1:-1], point[0])

    monkeypatch.setattr(jetpde, "_prolongation_point", swapped)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["crosscheck", path]) == 2
    assert (
        "jet-side (dim 7, mapped 7) and connection-side (dim 7) prolongation fibers "
        "disagree at level 1" in capsys.readouterr().err
    )


def test_a_sign_flip_in_the_symmetry_rows_fails_the_kernel_part_check(
    tmp_path, capsys, monkeypatch
):
    # with A_j psi_i + A_i psi_j = 0 the e = 0 slice of the connection fiber
    # is no longer g^(1)(∂_D), which tableau._symmetry_equations cuts out
    # independently
    rows_of = relconn_module._symmetry_rows

    def flipped(conn):
        sd, rows = conn.source_dim, rows_of(conn)
        # rows run over i < j, then b; the second psi block is block 1 + j
        starts = [
            (1 + j) * sd
            for i in range(conn.n)
            for j in range(i + 1, conn.n)
            for _ in range(conn.coeff_dim)
        ]
        pairs = [
            [(c, -x if c >= start else x) for c, x in row] for row, start in zip(rows.pairs, starts)
        ]
        return RatMatrix(pairs=pairs, cols=rows.cols)

    monkeypatch.setattr(relconn_module, "_symmetry_rows", flipped)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["crosscheck", path]) == 2
    assert (
        "kernel part (dim 2) does not match the generalized prolongation (dim 2)"
        in capsys.readouterr().err
    )


def test_partial_rows_without_sigma_psi_fail_the_kernel_part_check(tmp_path, capsys, monkeypatch):
    # with sigma psi_i dropped the partial rows read A_i e = 0 alone, so the
    # psi blocks of the e = 0 slice are no longer held to the symbol ker(sigma)
    rows_of = relconn_module._partial_rows

    def without_psi(conn):
        rows = rows_of(conn)
        pairs = [[(c, x) for c, x in row if c < conn.source_dim] for row in rows.pairs]
        return RatMatrix(pairs=pairs, cols=rows.cols)

    monkeypatch.setattr(relconn_module, "_partial_rows", without_psi)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["crosscheck", path]) == 2
    assert "kernel part leaves the symbol of dim 2 in direction 0" in capsys.readouterr().err


def test_a_prolongation_escaping_its_level_fails_the_towers_contraction(
    tmp_path, capsys, monkeypatch
):
    # g^(1) replaced by all of S^3: x1^3 contracts along e1 to 3 x1^2, not in g
    monkeypatch.setattr(
        tableau_module,
        "prolong",
        lambda t: Subspace.full(sym_dim(t.n, t.degree + 1) * t.f),
    )
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["symbol", path]) == 2
    assert (
        "tower level of degree 3 (dim 4) does not contract into its predecessor (dim 2) "
        "along direction 0" in capsys.readouterr().err
    )


def test_a_projection_above_the_vanishing_level_that_is_not_a_bijection_is_located(
    tmp_path, capsys, monkeypatch
):
    # u_11 = u_22 = 0 vanishes at level 1, so finite-type checks the level-2
    # projection; a level-2 fiber one dimension too wide must name both levels
    report_of = jetpde._tower_report

    def widened(system, ranks):
        rep = report_of(system, ranks)
        top = rep.levels[-1]._replace(fiber_dim=rep.levels[-1].fiber_dim + 1)
        return rep._replace(levels=rep.levels[:-1] + (top,))

    monkeypatch.setattr(jetpde, "_tower_report", widened)
    s = PdeSystem.from_terms(2, 1, 2, [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    path = write_pde(tmp_path, format_system(s))
    assert main(["finite-type", path]) == 2
    assert (
        "projections above the vanishing level 1 are not bijections: "
        "level 2 has fiber dim 5, level 1 has 4" in capsys.readouterr().err
    )


def test_a_generalized_prolongation_off_its_kernel_fails_the_symmetry_check(monkeypatch):
    # ∂(v)(e1) = 1, ∂(v)(e2) = 0: the symmetry equation eta_2 = 0 cuts the
    # full S^1 ⊗ R^1, so a kernel that returns the full space is caught
    monkeypatch.setattr(tableau_module, "kernel", lambda m: Subspace.full(m.cols))
    t = Tableau.generalized(2, 1, Subspace.full(1), RatMatrix([[1], [0]]))
    with pytest.raises(
        InvariantViolation,
        match="violates ∂-symmetry: dim 2 in S\\^1 ⊗ R\\^1, 1 symmetry equations",
    ):
        tower(t, 1)


# --------------------------- 7. JSON output ---------------------------


def test_json_stdout_only_and_deterministic(capsys):
    path = str(corpus_path("cauchy_riemann.pde"))
    assert main(["tower", path, "--levels", "3", "--json", "-"]) == 0
    first = capsys.readouterr().out
    assert main(["tower", path, "--levels", "3", "--json", "-"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert first.startswith("{")
    assert "level  fiber" not in first
    assert payload["schema_version"] == 1
    assert payload["command"] == "tower"
    assert payload["verdict"] == "integrable-up-to"
    assert [lv["fiber_dim"] for lv in payload["levels"]] == [6, 8, 10]
    assert payload["basis_ref"].startswith("Spencer")


def test_json_file_plus_table(tmp_path, capsys):
    path = str(corpus_path("flat_connection_obstructed.pde"))
    out_file = tmp_path / "report.json"
    assert main(["tower", path, "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "verdict: obstructed-at(1)" in out
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "obstructed-at"
    assert payload["witness"] == ["1", "0", "0", "0", "0", "-1"]
    assert payload["levels"][0]["projection_surjective"] is False


def test_module_entry_point():
    path = str(corpus_path("gradient_zero.pde"))
    proc = subprocess.run(
        [sys.executable, "-m", "formalpde", "finite-type", path, "--json", "-"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "formally-integrable-certified"
    assert payload["certification_basis"] == "finite-type(0)"
    assert payload["basis_ref"].startswith("Cartan")


def test_each_command_builds_one_symbol_tower(count_calls, capsys):
    # the six commands of one system share its held tower: the first, at the
    # deepest default depth, builds it, and the other five read its prefixes
    calls = count_calls(tower)
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        calls.clear()
        for command in ("symbol", "tower", "cohomology", "goldschmidt",
                        "finite-type", "crosscheck"):
            assert main([command, str(path), "--json", "-"]) == 0
            capsys.readouterr()
        assert len(calls) == 1, path.name


def test_every_matrix_built_from_pairs_is_canonical(monkeypatch, capsys):
    # RatMatrix(pairs=...) checks only the value types; every producer must
    # emit ascending columns and no zeros, so each such matrix equals the one
    # its dense rows read back into pairs
    built = []
    init = RatMatrix.__init__

    def recording(self, data=(), *, cols=None, pairs=None):
        init(self, data, cols=cols, pairs=pairs)
        if pairs is not None:
            built.append(self)

    monkeypatch.setattr(RatMatrix, "__init__", recording)
    jetpde.solution_fiber.cache_clear()  # so the base fibers are eliminated here too
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        for command in ("symbol", "tower", "cohomology", "goldschmidt",
                        "finite-type", "crosscheck"):
            assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert len(built) > 100
    for m in built:
        assert m == RatMatrix([m.row(i) for i in range(m.rows)], cols=m.cols), m


def test_load_system_reads_files(tmp_path):
    path = write_pde(tmp_path, corpus_text("wave1d.pde"))
    assert load_system(path) == parse_system(corpus_text("wave1d.pde"))


def test_a_byte_order_mark_changes_no_corpus_system_or_report(tmp_path, capsys):
    plain, marked = tmp_path / "plain.pde", tmp_path / "marked.pde"
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        plain.write_bytes(path.read_bytes())
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert load_system(str(marked)) == load_system(str(plain)), path.name
        for command in ("symbol", "tower", "cohomology", "goldschmidt",
                        "finite-type", "crosscheck"):
            outs = []
            for source in (plain, marked):
                assert main([command, str(source), "--json", "-"]) == 0, (path.name, command)
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], (path.name, command)


# --------------------------- 8. new command surfaces ---------------------------


def test_crosscheck_multiple_levels(capsys):
    path = str(corpus_path("cauchy_riemann.pde"))
    assert main(["crosscheck", path, "--levels", "3", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert [lv["level"] for lv in payload["levels"]] == [1, 2, 3]
    for lv in payload["levels"]:
        assert lv["jet_route"] == lv["connection_route"]
    assert [lv["jet_route"]["fiber_dim"] for lv in payload["levels"]] == [6, 8, 10]
    with pytest.raises(SystemExit) as info:
        main(["crosscheck", path, "--levels", "0"])
    assert info.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("formalpde ")


def test_goldschmidt_certifies_gradient(capsys):
    path = str(corpus_path("gradient_zero.pde"))
    assert main(["goldschmidt", path, "--l-max", "3", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "formally-integrable-certified"
    assert payload["certification_basis"] == "finite-type(0)"
    assert payload["basis_ref"].startswith("Cartan")


def test_the_cli_loads_every_module_and_no_code_generator():
    # dataclasses compiles each record's methods at import and brings in
    # inspect; nothing is loaded lazily, so the CLI's start-up loads the
    # whole package (every module but __main__)
    probe = "import sys, formalpde.cli; print(*sorted(sys.modules))"
    src = Path(cli.__file__).parent
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src.parent)}, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    package = {"formalpde"} | {
        f"formalpde.{p.stem}" for p in src.glob("*.py") if p.stem not in ("__init__", "__main__")
    }
    assert len(package) == 9 and package <= loaded
