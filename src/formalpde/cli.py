"""Command-line front end: parse .pde files and run integrability analyses.

File format (UTF-8 whatever the locale, a leading byte-order mark skipped;
one statement per line; lines whose first non-blank character is '#' are
comments; blank lines are ignored):

    base_dim = 2
    fiber_rank = 2
    order = 1

    eq: u1_x1 - u2_x2 = 0
    eq: u1_x2 + u2_x1 = 0

The three headers must each appear exactly once, before the first equation.
An equation is a signed sum of terms set to zero.  A term is an optional
unsigned rational coefficient (p or p/q, '*' optionally separating it from
the variable) and a jet variable u<component> with an optional derivative
tail _x<i>...x<j>.  Signs belong to the separators; 'eq: 0 = 0' denotes the
trivial equation.  Components and directions are 1-based in this syntax.
Numbers are written with the ASCII digits 0-9 only.

Syntax errors report line and column plus the expected token; the column is
the first where the line leaves the grammar, at most one past its end.
Semantic errors (component or direction out of range, derivative order above
the declared order, zero denominators, header problems such as headers whose
first prolongation is past the jet budget) carry a stable code.

Exit codes: 0 = analysis completed (obstructed verdicts included), 1 = bad
input (unreadable file, parse error, bad flags, or an input past the size
budget of the library stage that would run it), 2 = an internal failure: a
consistency check failed or the program raised an unexpected exception.

Each command maps (args, system) to its table lines and its JSON payload;
``main`` loads the system once, runs the command and writes the report once
(``_emit``).  With --json PATH the machine-readable report is written to PATH
next to the usual table; --json - prints only the JSON on stdout.  JSON output
is deterministic byte for byte: fixed key order, integers exact, rationals as
strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import __version__
from .errors import InvariantViolation
from .jetpde import (
    IntegrabilityReport,
    PdeSystem,
    _held,
    check_jet_budget,
    crosscheck_routes,
    finite_type_integrability,
    goldschmidt_check,
    jet_coords,
    prolongation_tower,
    symbol_tower,
)
from .tableau import classify_type

SCHEMA_VERSION = 2


# --------------------------- errors ---------------------------


class PdeSyntaxError(ValueError):
    """A .pde file failed to tokenize or parse; carries line, column, message."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class PdeSemanticError(ValueError):
    """A well-formed .pde file violated a range or structure rule."""

    def __init__(self, line: int, code: str, message: str):
        super().__init__(f"line {line}: {message} [{code}]")
        self.line = line
        self.code = code
        self.message = message


# --------------------------- parsing ---------------------------

_HEADER_RE = re.compile(r"^\s*(base_dim|fiber_rank|order)\s*=\s*([0-9]+)\s*$")
_HEADER_NAMES = ("base_dim", "fiber_rank", "order")


def _int_literal(line_no: int, col: int, digits: str) -> int:
    """int(digits), as a PdeSyntaxError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise PdeSyntaxError(
            line_no, col, f"integer literal of {len(digits)} digits is too long"
        ) from None


# The pieces of a term, in text order.  Each may match empty, so the first empty
# piece is the token a syntax error names.  [0-9] is ASCII only, unlike isdigit().
_TERM_RE = re.compile(
    r"(?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]*))?[ \t]*(?:\*[ \t]*)?)?"
    r"(?:u(?P<comp>[0-9]*)(?:_(?P<dirs>(?:x[0-9]*)*))?)?"
)
_DIRECTION_RE = re.compile(r"x([0-9]*)")
_BLANKS_RE = re.compile(r"[ \t]*")
_TRIVIAL_RE = re.compile(r"0[ \t]*(?==)")  # 'eq: 0 = 0', a bare unsigned zero
_RHS_RE = re.compile(r"=[ \t]*(?:(0)[ \t]*)?")
# not str.splitlines, which also breaks at \v, \f, \x1c-\x1e, U+0085, U+2028 and U+2029
_LINE_END_RE = re.compile(r"\r\n|\r|\n")


def _parse_equation(line_no: int, line: str, n: int, m: int, k: int):
    """The terms of an 'eq:' line; the character at index p is column p + 1."""

    def fail(pos: int, expected: str):
        raise PdeSyntaxError(line_no, pos + 1, f"expected {expected}")

    def semantic(match: re.Match, group: str | int, code: str, message: str):
        raise PdeSemanticError(line_no, code, f"col {match.start(group) + 1}: {message}")

    def number(match: re.Match, group: str | int) -> int:
        return _int_literal(line_no, match.start(group) + 1, match[group])

    terms: list[tuple[Fraction, int, tuple[int, ...]]] = []
    pos = _BLANKS_RE.match(line, line.index("eq:") + 3).end()
    trivial = _TRIVIAL_RE.match(line, pos)  # before any sign: '+0 = 0' is an error
    if trivial:
        pos = trivial.end()
    sign = Fraction(-1) if line.startswith("-", pos) else Fraction(1)
    if line.startswith(("+", "-"), pos):
        pos = _BLANKS_RE.match(line, pos + 1).end()
    while not trivial:
        term = _TERM_RE.match(line, pos)
        coeff = Fraction(1)
        if term["num"] is not None:
            coeff = Fraction(number(term, "num"))
            if term["den"] is not None:
                if not term["den"]:
                    fail(term.start("den"), "a denominator after '/'")
                den = number(term, "den")
                if den == 0:
                    semantic(term, "den", "zero-denominator", "zero denominator in coefficient")
                coeff /= den
        if term["comp"] is None:
            fail(term.end(), "a jet variable like u1 or u1_x1")
        if not term["comp"]:
            fail(term.start("comp"), "a component number after 'u'")
        comp = number(term, "comp")
        if not (1 <= comp <= m):
            semantic(term, "comp", "component-out-of-range", f"component u{comp} outside 1..{m}")
        alpha = [0] * n
        if term["dirs"] is not None:  # unmatched, start("dirs") would be -1
            if not term["dirs"]:
                fail(term.start("dirs"), "a derivative direction like x1 after '_'")
            tail = _DIRECTION_RE.finditer(line, term.start("dirs"), term.end("dirs"))
            for total, x in enumerate(tail, start=1):
                if not x[1]:
                    fail(x.start(1), "a direction number after 'x'")
                d = number(x, 1)
                if not (1 <= d <= n):
                    semantic(x, 1, "direction-out-of-range", f"direction x{d} outside 1..{n}")
                alpha[d - 1] += 1
                if total > k:
                    semantic(
                        x, 1, "order-exceeded", f"derivative order exceeds declared order {k}"
                    )
        terms.append((sign * coeff, comp - 1, tuple(alpha)))
        pos = _BLANKS_RE.match(line, term.end()).end()
        if line.startswith(("+", "-"), pos):
            sign = Fraction(1) if line[pos] == "+" else Fraction(-1)
            pos = _BLANKS_RE.match(line, pos + 1).end()
            continue
        if line.startswith("=", pos):
            break
        fail(pos, "'+', '-' or '= 0'")
    rhs = _RHS_RE.match(line, pos)
    if rhs[1] is None:
        fail(rhs.end(), "'0' on the right-hand side")
    if rhs.end() != len(line):
        fail(rhs.end(), "end of line after '= 0'")
    return terms


@lru_cache(maxsize=1)  # the commands run on one text in one process parse it once
def parse_system(text: str) -> PdeSystem:
    """Parse .pde source into a PdeSystem; equations keep file order."""
    headers: dict[str, int] = {}
    equations: list[list[tuple[Fraction, int, tuple[int, ...]]]] = []
    for line_no, raw in enumerate(_LINE_END_RE.split(text), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "#" in raw:
            raise PdeSyntaxError(
                line_no, raw.index("#") + 1,
                "expected a full-line comment ('#' must start the line)",
            )
        match = _HEADER_RE.match(raw)
        if match:
            name = match.group(1)
            value = _int_literal(line_no, match.start(2) + 1, match.group(2))
            if equations:
                raise PdeSemanticError(
                    line_no, "header-after-equation",
                    f"header {name} appears after the first equation",
                )
            if name in headers:
                raise PdeSemanticError(
                    line_no, "duplicate-header", f"header {name} given twice"
                )
            if value < 1:
                raise PdeSemanticError(
                    line_no, "header-out-of-range", f"{name} must be at least 1"
                )
            headers[name] = value
            if len(headers) == len(_HEADER_NAMES):
                try:  # every analysis prolongs at least once
                    check_jet_budget(*map(headers.get, _HEADER_NAMES), 1)
                except ValueError as err:
                    raise PdeSemanticError(line_no, "header-out-of-range", str(err)) from None
            continue
        if stripped.startswith("eq:"):
            missing = [h for h in _HEADER_NAMES if h not in headers]
            if missing:
                raise PdeSemanticError(
                    line_no, "missing-header",
                    f"equation before header(s) {', '.join(missing)}",
                )
            equations.append(
                _parse_equation(
                    line_no, raw, headers["base_dim"], headers["fiber_rank"],
                    headers["order"],
                )
            )
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        raise PdeSyntaxError(
            line_no, col, "expected a header (base_dim/fiber_rank/order) or 'eq:'"
        )
    missing = [h for h in _HEADER_NAMES if h not in headers]
    if missing:
        raise PdeSemanticError(
            0, "missing-header", f"missing header(s) {', '.join(missing)}"
        )
    return PdeSystem.from_terms(
        headers["base_dim"], headers["fiber_rank"], headers["order"], equations
    )


def load_system(path: str) -> PdeSystem:
    return parse_system(Path(path).read_text(encoding="utf-8-sig"))


# --------------------------- canonical printer ---------------------------


def _format_term(coeff: Fraction, comp: int, alpha: tuple[int, ...]) -> str:
    var = f"u{comp + 1}"
    tail = "".join(f"x{i + 1}" * alpha[i] for i in range(len(alpha)))
    if tail:
        var = f"{var}_{tail}"
    mag = abs(coeff)
    return var if mag == 1 else f"{mag} {var}"


def format_system(system: PdeSystem) -> str:
    """Canonical .pde text: headers first, terms in jet-coordinate order."""
    lines = [
        f"base_dim = {system.n}",
        f"fiber_rank = {system.m}",
        f"order = {system.k}",
        "",
    ]
    coords = jet_coords(system.n, system.m, system.k)
    for row in system.equations.pairs:
        pieces = []
        for c, coeff in row:
            comp, alpha = coords[c]
            term = _format_term(coeff, comp, alpha)
            if not pieces:
                pieces.append(f"-{term}" if coeff < 0 else term)
            else:
                pieces.append(f"- {term}" if coeff < 0 else f"+ {term}")
        body = " ".join(pieces) if pieces else "0"
        lines.append(f"eq: {body} = 0")
    return "\n".join(lines) + "\n"


# --------------------------- report rendering ---------------------------


def basis_ref(certification_basis: str) -> str:
    """One literature reference backing each certification route."""
    if certification_basis.startswith("goldschmidt"):
        return (
            "Goldschmidt, Existence theorems for analytic linear partial "
            "differential equations, Ann. of Math. 86 (1967)"
        )
    if certification_basis.startswith("finite-type"):
        return (
            "Cartan, Les systèmes différentiels extérieurs et leurs "
            "applications géométriques (1945)"
        )
    return (
        "Spencer, Overdetermined systems of linear partial differential "
        "equations, Bull. Amer. Math. Soc. 75 (1969)"
    )


def _frac_list(vec) -> list[str] | None:
    if vec is None:
        return None
    return [str(x) for x in vec]


def _report_payload(rep: IntegrabilityReport) -> dict:
    payload = {
        "base_fiber_dim": rep.base_fiber_dim,
        "levels": [{**rec._asdict(), "witness": _frac_list(rec.witness)} for rec in rep.levels],
        "verdict": rep.verdict,
        "verdict_level": rep.verdict_level,
        "certification_basis": rep.certification_basis,
        "witness": _frac_list(rep.witness),
        "basis_ref": basis_ref(rep.certification_basis),
    }
    if rep.cohomology is not None:
        payload["cohomology"] = [
            {"l": l, "m": mm, "h_dim": h} for (l, mm), h in sorted(rep.cohomology.items())
        ]
    if rep.type_verdict is not None:
        payload["symbol_type"] = rep.type_verdict._asdict()  # JSON writes ranks as an array
    return payload


def _report_table(rep: IntegrabilityReport) -> list[str]:
    lines = [f"base fiber dimension: {rep.base_fiber_dim}"]
    lines.append("level  fiber  symbol  projection")
    for rec in rep.levels:
        lines.append(
            f"{rec.level:>5}  {rec.fiber_dim:>5}  {rec.symbol_dim:>6}  "
            f"{'onto' if rec.projection_surjective else 'NOT onto'}"
        )
    lines.append(
        f"verdict: {rep.verdict}({rep.verdict_level})  [{rep.certification_basis}]"
    )
    if rep.witness is not None:
        lines.append("witness jet: " + " ".join(str(x) for x in rep.witness))
    lines.append(f"basis_ref: {basis_ref(rep.certification_basis)}")
    return lines


def _emit(args, system: PdeSystem, lines: list[str], payload: dict) -> int:
    """Write main's one report: the table, or with --json - only the JSON
    (--json PATH writes it too), whose envelope every command shares ahead of
    the command's payload.  Exit code 0."""
    if args.json:
        blob = json.dumps({
            "schema_version": SCHEMA_VERSION, "command": args.command,
            "system": {"base_dim": system.n, "fiber_rank": system.m, "order": system.k,
                       "equation_count": system.equations.rows},
            **payload,
        })
        if args.json == "-":
            print(blob)
            return 0
        Path(args.json).write_text(blob + "\n")
    print("\n".join(lines))
    return 0


# --------------------------- commands ---------------------------


def cmd_symbol(args, system: PdeSystem) -> tuple[list[str], dict]:
    chain = symbol_tower(system, args.levels)
    verdict = classify_type(chain, args.levels)
    lines = [
        f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}",
        f"symbol dimension: {chain.levels[0].dim}",
        "prolongation ranks: "
        + " ".join(f"g({l})={d}" for l, d in enumerate(verdict.ranks)),
        f"symbol type: {verdict.kind}({verdict.level})",
    ]
    return lines, {
        "symbol_dim": chain.levels[0].dim,
        "ranks": list(verdict.ranks),
        "symbol_type": {"kind": verdict.kind, "level": verdict.level},
    }


def cmd_tower(args, system: PdeSystem) -> tuple[list[str], dict]:
    rep = prolongation_tower(system, args.levels)
    return _report_table(rep), _report_payload(rep)


def cmd_cohomology(args, system: PdeSystem) -> tuple[list[str], dict]:
    m_max = args.m_max if args.m_max is not None else system.n
    if m_max > system.n:  # every form degree past n is a zero slot
        raise ValueError(f"--m-max {m_max} exceeds base_dim {system.n}")
    held, chain = _held(system, args.l_max + 1, 0)
    report = held.symbol.window(chain, args.l_max, m_max)
    lines = [f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}"]
    lines.append("l      " + "  ".join(f"H(l,{mm})" for mm in range(1, m_max + 1)))
    for l in range(args.l_max + 1):
        cells = "  ".join(
            f"{report.entries[(l, mm)].h_dim:>6}" for mm in range(1, m_max + 1)
        )
        lines.append(f"{l:<5}  {cells}")
    if report.vanishing_level is not None:
        lines.append(f"symbol vanishes from level {report.vanishing_level}")
    return lines, {
        "l_max": args.l_max,
        "m_max": m_max,
        "entries": [
            {"l": l, "m": mm, **e._asdict()} for (l, mm), e in sorted(report.entries.items())
        ],
        "vanishing_level": report.vanishing_level,
    }


def cmd_goldschmidt(args, system: PdeSystem) -> tuple[list[str], dict]:
    rep = goldschmidt_check(system, args.l_max)
    lines = _report_table(rep)
    h2 = [rep.cohomology[(l, 2)] for l in range(args.l_max + 1)]
    lines.insert(
        1, f"H(l,2) for l = 0..{args.l_max}: " + " ".join(str(d) for d in h2)
    )
    return lines, _report_payload(rep)


def cmd_finite_type(args, system: PdeSystem) -> tuple[list[str], dict]:
    rep = finite_type_integrability(system, args.l_max)
    lines = _report_table(rep)
    if rep.type_verdict is not None:
        lines.insert(
            1, f"symbol type: {rep.type_verdict.kind}({rep.type_verdict.level})"
        )
    return lines, _report_payload(rep)


def cmd_crosscheck(args, system: PdeSystem) -> tuple[list[str], dict]:
    levels = crosscheck_routes(system, args.levels)
    lines = [f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}"]
    lines.extend(
        f"level {r.level}: jet route fiber {r.jet_route.fiber_dim} image "
        f"{r.jet_route.image_dim} | connection route fiber {r.connection_route.fiber_dim} "
        f"image {r.connection_route.image_dim} | symbol {r.symbol_dim}"
        for r in levels
    )
    lines.append(f"routes agree at every level 1..{args.levels}")
    # _asdict is shallow, and JSON would write a RouteDims as an array
    rows = [{**r._asdict(), "jet_route": r.jet_route._asdict(),
             "connection_route": r.connection_route._asdict()} for r in levels]
    return lines, {"levels": rows, "agree": True}


# --------------------------- argument parsing ---------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; input problems here are exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in 'invalid int value'
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formalpde",
        description="integrability analysis for linear constant-coefficient "
        "PDE systems",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, levels=None, l_max=None, m_max=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a .pde system file")
        if levels is not None:
            p.add_argument("--levels", type=_int_at_least(1), default=levels,
                           help=f"prolongation depth (default {levels})")
        if l_max is not None:
            p.add_argument("--l-max", dest="l_max", type=_int_at_least(0),
                           default=l_max,
                           help=f"cohomology window bound (default {l_max})")
        if m_max:
            p.add_argument("--m-max", dest="m_max", type=_int_at_least(1),
                           default=None,
                           help="highest form degree (default: base_dim)")
        p.add_argument("--json", metavar="PATH",
                       help="write a JSON report to PATH; '-' prints only JSON")
        return p

    add("symbol", "symbol tableau: dimension, prolongation ranks, type", levels=4)
    add("tower", "walk the prolongation tower and test each projection", levels=4)
    add("cohomology", "table of symbol cohomology dimensions", l_max=2, m_max=True)
    add("goldschmidt", "first-projection surjectivity plus bounded 2-acyclicity",
        l_max=2)
    add("finite-type", "certification through symbol vanishing", l_max=2)
    add("crosscheck",
        "compare the jet route against the connection route level by level",
        levels=2)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main()


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the module's current bindings, read per call, so a rebound cmd_* runs
    command = {"symbol": cmd_symbol, "tower": cmd_tower, "cohomology": cmd_cohomology,
               "goldschmidt": cmd_goldschmidt, "finite-type": cmd_finite_type,
               "crosscheck": cmd_crosscheck}[args.command]
    try:
        system = load_system(args.file)
        return _emit(args, system, *command(args, system))
    except (PdeSyntaxError, PdeSemanticError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, reported without a traceback
        print(f"internal failure in {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
