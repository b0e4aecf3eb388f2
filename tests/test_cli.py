"""Tests for the .pde grammar, canonical printer, and command-line driver.

Plan:
 1. every corpus file parses to the expected system matrix
 2. syntax errors carry line, column and the expected token; numbers are
    ASCII digits, and fuzzed text raises only PdeSyntaxError or
    PdeSemanticError
 3. semantic errors carry stable codes
 4. coefficient and sign forms: rationals, '*', signed separators, 0 = 0
 5. canonical printing round-trips (parse of print == original system)
 6. exit codes: 0 for completed analyses, 1 for input problems,
    2 for internal consistency failures; an out-of-range count flag is a
    bad flag, named in the message
 7. --json '-' emits only deterministic JSON; --json PATH writes the file
    and keeps the table on stdout
 8. crosscheck agrees level by level; --version; goldschmidt certifies the
    gradient system through the vanishing symbol; every command builds the
    symbol tower once
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from formalpde.cli import (
    PdeSemanticError,
    PdeSyntaxError,
    format_system,
    load_system,
    main,
    parse_system,
)
from formalpde.errors import InvariantViolation
from formalpde.jetpde import PdeSystem, jet_index
from formalpde.tableau import tower


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


def random_system(rng: random.Random) -> PdeSystem:
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    k = rng.randint(1, 2)
    eqs = []
    for _ in range(rng.randint(0, 3)):
        terms = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randrange(m)
            alpha = [0] * n
            for _ in range(rng.randint(0, k)):
                alpha[rng.randrange(n)] += 1
            terms.append(
                (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), a, tuple(alpha))
            )
        eqs.append(terms)
    return PdeSystem.from_terms(n, m, k, eqs)


def test_print_parse_round_trip():
    systems = [
        parse_system(corpus_text(name))
        for name in (
            "cauchy_riemann.pde", "laplace2d.pde", "wave1d.pde",
            "gradient_zero.pde", "flat_connection_commuting.pde",
            "flat_connection_obstructed.pde",
        )
    ]
    rng = random.Random(7521)
    systems += [random_system(rng) for _ in range(40)]
    for s in systems:
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
        ("finite-type", "--levels", "0", 1),
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


def test_exit_two_for_internal_failures(tmp_path, capsys, monkeypatch):
    import formalpde.cli as cli_mod

    def boom(system, depth):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli_mod, "prolongation_tower", boom)
    path = write_pde(tmp_path, corpus_text("laplace2d.pde"))
    assert main(["tower", path]) == 2
    assert "internal consistency failure" in capsys.readouterr().err


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
    calls = count_calls(tower)
    for path in sorted((resources.files("formalpde") / "corpus").iterdir()):
        for command in ("symbol", "tower", "cohomology", "goldschmidt",
                        "finite-type", "crosscheck"):
            calls.clear()
            assert main([command, str(path), "--json", "-"]) == 0
            capsys.readouterr()
            assert len(calls) == 1, (path.name, command)


def test_load_system_reads_files(tmp_path):
    path = write_pde(tmp_path, corpus_text("wave1d.pde"))
    assert load_system(path) == parse_system(corpus_text("wave1d.pde"))


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
