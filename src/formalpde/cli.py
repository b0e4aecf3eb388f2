"""Command-line front end: parse .pde files and run integrability analyses.

File format (one statement per line; lines whose first non-blank character
is '#' are comments; blank lines are ignored):

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

Syntax errors report line and column plus the expected token; semantic
errors (component or direction out of range, derivative order above the
declared order, zero denominators, header problems) carry a stable code.

Exit codes: 0 = analysis completed (obstructed verdicts included), 1 = bad
input (unreadable file, parse error, bad flags), 2 = an internal consistency
check failed.

With --json PATH the machine-readable report is written to PATH next to the
usual table; --json - prints only the JSON on stdout.  JSON output is
deterministic byte for byte: fixed key order, integers exact, rationals as
strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import InvariantViolation
from .jetpde import (
    IntegrabilityReport,
    PdeSystem,
    crosscheck_routes,
    finite_type_integrability,
    goldschmidt_check,
    jet_coords,
    prolongation_tower,
    symbol_tableau,
)
from .spencer import cohomology
from .tableau import classify_type, tower

SCHEMA_VERSION = 1


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
_DIGITS = frozenset("0123456789")  # str.isdigit() also accepts '²' and '٢'


class _TermScanner:
    """Hand scanner for the right-hand side of an 'eq:' line."""

    def __init__(self, line_no: int, text: str, offset: int):
        self.line_no = line_no
        self.text = text
        self.pos = 0
        self.offset = offset  # column of text[0] in the original line, 1-based

    def col(self) -> int:
        return self.offset + self.pos

    def fail(self, expected: str):
        raise PdeSyntaxError(self.line_no, self.col(), f"expected {expected}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self, expected: str) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.fail(expected)
        return int(self.text[start : self.pos])

    def take_rational(self) -> Fraction:
        num = self.take_int("an unsigned integer")
        if self.peek() == "/":
            self.pos += 1
            den_col = self.col()
            den = self.take_int("a denominator after '/'")
            if den == 0:
                raise PdeSemanticError(
                    self.line_no, "zero-denominator",
                    f"col {den_col}: zero denominator in coefficient",
                )
            return Fraction(num, den)
        return Fraction(num)

    def take_variable(self, n: int, m: int, k: int) -> tuple[int, tuple[int, ...]]:
        if self.peek() != "u":
            self.fail("a jet variable like u1 or u1_x1")
        self.pos += 1
        comp_col = self.col()
        comp = self.take_int("a component number after 'u'")
        if not (1 <= comp <= m):
            raise PdeSemanticError(
                self.line_no, "component-out-of-range",
                f"col {comp_col}: component u{comp} outside 1..{m}",
            )
        alpha = [0] * n
        total = 0
        if self.peek() == "_":
            self.pos += 1
            if self.peek() != "x":
                self.fail("a derivative direction like x1 after '_'")
            while self.peek() == "x":
                self.pos += 1
                dir_col = self.col()
                d = self.take_int("a direction number after 'x'")
                if not (1 <= d <= n):
                    raise PdeSemanticError(
                        self.line_no, "direction-out-of-range",
                        f"col {dir_col}: direction x{d} outside 1..{n}",
                    )
                alpha[d - 1] += 1
                total += 1
                if total > k:
                    raise PdeSemanticError(
                        self.line_no, "order-exceeded",
                        f"col {dir_col}: derivative order exceeds declared order {k}",
                    )
        return comp - 1, tuple(alpha)


def _parse_equation(line_no: int, line: str, n: int, m: int, k: int):
    body_start = line.index("eq:") + 3
    scanner = _TermScanner(line_no, line[body_start:], body_start + 1)
    terms: list[tuple[Fraction, int, tuple[int, ...]]] = []
    scanner.skip_ws()
    sign = Fraction(1)
    if scanner.peek() in "+-":
        if scanner.peek() == "-":
            sign = Fraction(-1)
        scanner.pos += 1
        scanner.skip_ws()
    # the trivial equation: a bare, unsigned zero
    trivial = False
    if sign == 1 and scanner.peek() == "0":
        save = scanner.pos
        scanner.pos += 1
        scanner.skip_ws()
        trivial = scanner.peek() == "="
        if not trivial:
            scanner.pos = save
    while not trivial:
        coeff = Fraction(1)
        if scanner.peek() in _DIGITS:
            coeff = scanner.take_rational()
            scanner.skip_ws()
            if scanner.peek() == "*":
                scanner.pos += 1
                scanner.skip_ws()
        comp, alpha = scanner.take_variable(n, m, k)
        terms.append((sign * coeff, comp, alpha))
        scanner.skip_ws()
        ch = scanner.peek()
        if ch in "+-":
            sign = Fraction(1) if ch == "+" else Fraction(-1)
            scanner.pos += 1
            scanner.skip_ws()
            continue
        if ch == "=":
            break
        scanner.fail("'+', '-' or '= 0'")
    scanner.pos += 1  # the '='
    scanner.skip_ws()
    if scanner.peek() != "0":
        scanner.fail("'0' on the right-hand side")
    scanner.pos += 1
    scanner.skip_ws()
    if scanner.pos != len(scanner.text):
        scanner.fail("end of line after '= 0'")
    return terms


def parse_system(text: str) -> PdeSystem:
    """Parse .pde source into a PdeSystem; equations keep file order."""
    headers: dict[str, int] = {}
    header_lines: dict[str, int] = {}
    equations: list[list[tuple[Fraction, int, tuple[int, ...]]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
            name, value = match.group(1), int(match.group(2))
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
            header_lines[name] = line_no
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
    return parse_system(Path(path).read_text())


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
    for r in range(system.equations.rows):
        row = system.equations.row(r)
        pieces = []
        for c, coeff in enumerate(row):
            if coeff == 0:
                continue
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


def _system_payload(system: PdeSystem) -> dict:
    return {
        "base_dim": system.n,
        "fiber_rank": system.m,
        "order": system.k,
        "equation_count": system.equations.rows,
    }


def _report_payload(command: str, system: PdeSystem, rep: IntegrabilityReport) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "system": _system_payload(system),
        "base_fiber_dim": rep.base_fiber_dim,
        "levels": [
            {
                "level": rec.level,
                "fiber_dim": rec.fiber_dim,
                "symbol_dim": rec.symbol_dim,
                "projection_surjective": rec.projection_surjective,
                "torsion_vanishes": rec.torsion_vanishes,
                "witness": _frac_list(rec.witness),
            }
            for rec in rep.levels
        ],
        "verdict": rep.verdict,
        "verdict_level": rep.verdict_level,
        "certification_basis": rep.certification_basis,
        "witness": _frac_list(rep.witness),
        "basis_ref": basis_ref(rep.certification_basis),
    }
    if rep.cohomology is not None:
        payload["cohomology"] = [
            {"l": l, "m": mm, "h_dim": rep.cohomology[(l, mm)]}
            for (l, mm) in sorted(rep.cohomology)
        ]
    if rep.type_verdict is not None:
        payload["symbol_type"] = {
            "kind": rep.type_verdict.kind,
            "level": rep.type_verdict.level,
            "ranks": list(rep.type_verdict.ranks),
        }
    return payload


def _report_table(rep: IntegrabilityReport) -> list[str]:
    lines = [f"base fiber dimension: {rep.base_fiber_dim}"]
    lines.append("level  fiber  symbol  projection  torsion")
    for rec in rep.levels:
        lines.append(
            f"{rec.level:>5}  {rec.fiber_dim:>5}  {rec.symbol_dim:>6}  "
            f"{'onto' if rec.projection_surjective else 'NOT onto':<10}  "
            f"{'vanishes' if rec.torsion_vanishes else 'OBSTRUCTS'}"
        )
    lines.append(
        f"verdict: {rep.verdict}({rep.verdict_level})  [{rep.certification_basis}]"
    )
    if rep.witness is not None:
        lines.append("witness jet: " + " ".join(str(x) for x in rep.witness))
    lines.append(f"basis_ref: {basis_ref(rep.certification_basis)}")
    return lines


def _emit(args, lines: list[str], payload: dict) -> None:
    blob = json.dumps(payload, indent=2)
    if args.json == "-":
        print(blob)
        return
    if args.json:
        Path(args.json).write_text(blob + "\n")
    print("\n".join(lines))


# --------------------------- commands ---------------------------


def cmd_symbol(args) -> int:
    system = load_system(args.file)
    tab = symbol_tableau(system)
    verdict = classify_type(tower(tab, args.levels), args.levels)
    lines = [
        f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}",
        f"symbol dimension: {tab.space.dim}",
        "prolongation ranks: "
        + " ".join(f"g({l})={d}" for l, d in enumerate(verdict.ranks)),
        f"symbol type: {verdict.kind}({verdict.level})",
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "symbol",
        "system": _system_payload(system),
        "symbol_dim": tab.space.dim,
        "ranks": list(verdict.ranks),
        "symbol_type": {"kind": verdict.kind, "level": verdict.level},
    }
    _emit(args, lines, payload)
    return 0


def cmd_tower(args) -> int:
    system = load_system(args.file)
    rep = prolongation_tower(system, args.levels)
    _emit(args, _report_table(rep), _report_payload("tower", system, rep))
    return 0


def cmd_cohomology(args) -> int:
    system = load_system(args.file)
    m_max = args.m_max if args.m_max is not None else max(system.n, 1)
    chain = tower(symbol_tableau(system), args.l_max + 1).chain()
    report = cohomology(chain, l_max=args.l_max, m_max=m_max)
    lines = [f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}"]
    lines.append("l      " + "  ".join(f"H(l,{mm})" for mm in range(1, m_max + 1)))
    for l in range(args.l_max + 1):
        cells = "  ".join(
            f"{report.entries[(l, mm)].h_dim:>6}" for mm in range(1, m_max + 1)
        )
        lines.append(f"{l:<5}  {cells}")
    if report.vanishing_level is not None:
        lines.append(f"symbol vanishes from level {report.vanishing_level}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "cohomology",
        "system": _system_payload(system),
        "l_max": args.l_max,
        "m_max": m_max,
        "entries": [
            {
                "l": l,
                "m": mm,
                "z_dim": report.entries[(l, mm)].z_dim,
                "b_dim": report.entries[(l, mm)].b_dim,
                "h_dim": report.entries[(l, mm)].h_dim,
            }
            for (l, mm) in sorted(report.entries)
        ],
        "vanishing_level": report.vanishing_level,
    }
    _emit(args, lines, payload)
    return 0


def cmd_goldschmidt(args) -> int:
    system = load_system(args.file)
    rep = goldschmidt_check(system, args.l_max)
    lines = _report_table(rep)
    h2 = [rep.cohomology[(l, 2)] for l in range(args.l_max + 1)]
    lines.insert(
        1, f"H(l,2) for l = 0..{args.l_max}: " + " ".join(str(d) for d in h2)
    )
    _emit(args, lines, _report_payload("goldschmidt", system, rep))
    return 0


def cmd_finite_type(args) -> int:
    system = load_system(args.file)
    rep = finite_type_integrability(system, args.l_max, args.levels)
    lines = _report_table(rep)
    if rep.type_verdict is not None:
        lines.insert(
            1, f"symbol type: {rep.type_verdict.kind}({rep.type_verdict.level})"
        )
    _emit(args, lines, _report_payload("finite-type", system, rep))
    return 0


def cmd_crosscheck(args) -> int:
    system = load_system(args.file)
    levels = crosscheck_routes(system, args.levels)
    lines = [f"system: base_dim={system.n} fiber_rank={system.m} order={system.k}"]
    lines.extend(
        f"level {r.level}: jet route fiber {r.jet_fiber_dim} image {r.jet_image_dim} | "
        f"connection route fiber {r.connection_fiber_dim} image "
        f"{r.connection_image_dim} | symbol {r.symbol_dim}"
        for r in levels
    )
    lines.append(f"routes agree at every level 1..{args.levels}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "crosscheck",
        "system": _system_payload(system),
        "levels": [
            {
                "level": r.level,
                "jet_route": {"fiber_dim": r.jet_fiber_dim, "image_dim": r.jet_image_dim},
                "connection_route": {
                    "fiber_dim": r.connection_fiber_dim,
                    "image_dim": r.connection_image_dim,
                },
                "symbol_dim": r.symbol_dim,
            }
            for r in levels
        ],
        "agree": True,
    }
    _emit(args, lines, payload)
    return 0


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

    def add(name, func, help_text, *, levels=None, l_max=None, m_max=False):
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
        p.set_defaults(func=func)
        return p

    add("symbol", cmd_symbol,
        "symbol tableau: dimension, prolongation ranks, type", levels=4)
    add("tower", cmd_tower,
        "walk the prolongation tower and test each projection", levels=4)
    add("cohomology", cmd_cohomology,
        "table of symbol cohomology dimensions", l_max=2, m_max=True)
    add("goldschmidt", cmd_goldschmidt,
        "first-projection surjectivity plus bounded 2-acyclicity", l_max=2)
    add("finite-type", cmd_finite_type,
        "certification through symbol vanishing", levels=6, l_max=2)
    add("crosscheck", cmd_crosscheck,
        "compare the jet route against the connection route level by level",
        levels=2)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PdeSyntaxError, PdeSemanticError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
