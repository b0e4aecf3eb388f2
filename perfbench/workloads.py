"""The three benchmark workloads: seeded inputs, the op each input drives,
and a reference check for every op that shares no code with formalpde.

A workload turns ``(seed, seconds)`` into a warm-up op and a list of timed
ops.  The amount of work is a function of ``seconds`` alone (the op count the
seed code finishes in about that time), so two commits always measure the
same inputs and the same number of ops; a faster commit finishes sooner.

No op repeats an input already analysed in the same worker process: the
analysis caches are keyed on system equality, so a repeat would be a free
cache hit.  The six commands of one cli-sweep system are the one intended
exception.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
POOL_PATH = Path(__file__).resolve().parent / "data" / "cli_pool.json"

# Seed-code op costs in seconds, measured on a shared 2-vCPU x86-64 VM
# (Python 3.11); they only size the run, they are never reported.
NOMINAL_OP_S = {"tower-heat3": 0.6, "goldschmidt-wave4": 0.75, "cli-sweep": 0.12}
MIN_OPS = 21  # the tail percentile needs ten ops beyond it

TOWER_DEPTH = 5
GOLDSCHMIDT_L_MAX = 3
CLI_COMMANDS = ("symbol", "tower", "cohomology", "goldschmidt", "finite-type", "crosscheck")


@dataclass
class Op:
    """One timed unit of work and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output matches


def clear_caches() -> None:
    """Empty every lru_cache in formalpde, as in a fresh process."""
    for name in ("ratlin", "tensorspace", "tableau", "spencer", "jetpde", "relconn", "cli"):
        for value in vars(importlib.import_module(f"formalpde.{name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def build(workload: str, seed: int, seconds: float, work_dir: Path) -> tuple[Op, list[Op]]:
    """The warm-up op and the timed ops of one run."""
    if workload == "tower-heat3":
        return _scalar_ops(workload, seed, seconds, HEAT3_PRINCIPAL, HEAT3_LOWER, _heat3_op)
    if workload == "goldschmidt-wave4":
        return _scalar_ops(workload, seed, seconds, WAVE4_PRINCIPAL, WAVE4_LOWER, _wave4_op)
    if workload == "cli-sweep":
        return _cli_sweep_ops(seed, seconds, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------- scalar second-order systems ---------------------------


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _unit(n: int, i: int, times: int) -> tuple[int, ...]:
    return tuple(times if j == i else 0 for j in range(n))


HEAT3_PRINCIPAL = ((2, 0, 0), (0, 2, 0), (0, 0, 1))  # u_x1x1, u_x2x2, u_x3
HEAT3_LOWER = ((0, 0, 0), (1, 0, 0), (0, 1, 0))  # u, u_x1, u_x2
WAVE4_PRINCIPAL = tuple(_unit(4, i, 2) for i in range(4))
WAVE4_LOWER = ((0, 0, 0, 0),) + tuple(_unit(4, i, 1) for i in range(4))


def _scalar_ops(workload, seed, seconds, principal, lower, make_op):
    """Distinct single-equation systems: every principal coefficient nonzero,
    plus one to three lower-order terms.  The lower-order terms never touch a
    principal coefficient, so the closed forms below hold on every draw.

    Which lower-order terms appear sets most of an op's cost (on tower-heat3,
    one term costs about half of three), so a run draws every pattern of
    them equally often, in seeded order; only the coefficients are free.
    """
    from formalpde.jetpde import PdeSystem

    patterns = [c for r in (1, 2, 3) for c in combinations(lower, r)]
    reps = max(1, round(op_count(workload, seconds) / len(patterns)))
    rng = random.Random(f"{workload}:{seed}")
    order = [rng.choice(patterns)] + rng.sample(patterns * reps, len(patterns) * reps)
    n = len(principal[0])
    seen: set[str] = set()
    ops = []
    for pattern in order:
        while True:
            terms = [(_nonzero(rng), 0, alpha) for alpha in principal + pattern]
            key = repr(terms)
            if key not in seen:
                break
        seen.add(key)
        ops.append(make_op(PdeSystem.from_terms(n, 1, 2, [terms]), key))
    return ops[0], ops[1:]


def fiber_dim_scalar(n: int, order: int) -> int:
    """Solution fiber of one scalar order-2 equation, as jets of ``order``."""
    return comb(n + order, n) - comb(n + order - 2, n)


def symbol_dim_scalar(n: int, order: int) -> int:
    """Top-degree kernel of one nonzero quadratic symbol in degree ``order``."""
    return comb(order + n - 1, n - 1) - comb(order - 2 + n - 1, n - 1)


def check_heat3(rep) -> str | None:
    n = 3
    if rep.base_fiber_dim != fiber_dim_scalar(n, 2):
        return f"base fiber {rep.base_fiber_dim}"
    if len(rep.levels) != TOWER_DEPTH:
        return f"{len(rep.levels)} levels"
    for rec in rep.levels:
        order = 2 + rec.level
        if rec.fiber_dim != fiber_dim_scalar(n, order):
            return f"level {rec.level} fiber {rec.fiber_dim}"
        if rec.symbol_dim != symbol_dim_scalar(n, order):
            return f"level {rec.level} symbol {rec.symbol_dim}"
        if not rec.projection_surjective:
            return f"level {rec.level} projection not onto"
    if (rep.verdict, rep.verdict_level) != ("integrable-up-to", TOWER_DEPTH):
        return f"verdict {rep.verdict}({rep.verdict_level})"
    return None


def _heat3_op(system, label) -> Op:
    from formalpde import jetpde  # looked up per call, so a traced run sees the wrapper

    return Op(label, lambda: jetpde.prolongation_tower(system, TOWER_DEPTH), check_heat3)


def check_wave4(rep) -> str | None:
    n = 4
    if rep.base_fiber_dim != fiber_dim_scalar(n, 2):
        return f"base fiber {rep.base_fiber_dim}"
    (rec,) = rep.levels
    if rec.fiber_dim != fiber_dim_scalar(n, 3) or rec.symbol_dim != symbol_dim_scalar(n, 3):
        return f"level 1 dims {rec.fiber_dim}/{rec.symbol_dim}"
    if not rec.projection_surjective:
        return "level 1 projection not onto"
    # one equation: the symbol complex is Koszul, so H(l,1) = H(l,2) = 0
    want = {(l, j): 0 for l in range(GOLDSCHMIDT_L_MAX + 1) for j in (1, 2)}
    if rep.cohomology != want:
        return f"cohomology {sorted(rep.cohomology.items())}"
    got = (rep.verdict, rep.verdict_level, rep.certification_basis)
    if got != ("integrable-up-to", GOLDSCHMIDT_L_MAX, f"goldschmidt-up-to-evidence({GOLDSCHMIDT_L_MAX})"):
        return f"verdict {got}"
    return None


def _wave4_op(system, label) -> Op:
    from formalpde import jetpde

    return Op(label, lambda: jetpde.goldschmidt_check(system, GOLDSCHMIDT_L_MAX), check_wave4)


# --------------------------- cli-sweep ---------------------------


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def format_pde(rec: dict) -> str:
    """.pde text of a pool record (its terms are already merged and nonzero)."""
    n = rec["n"]
    lines = [f"base_dim = {n}", f"fiber_rank = {rec['m']}", f"order = {rec['k']}", ""]
    for eq in rec["eqs"]:
        body = ""
        for coeff, a, alpha in eq:
            tail = "".join(f"x{i + 1}" * alpha[i] for i in range(n))
            term = f"u{a + 1}_{tail}" if tail else f"u{a + 1}"
            if abs(coeff) != 1:
                term = f"{abs(coeff)} {term}"
            sign = "-" if coeff < 0 else "+"
            body = f"{body} {sign} {term}" if body else ("-" if coeff < 0 else "") + term
        lines.append(f"eq: {body or '0'} = 0")
    return "\n".join(lines) + "\n"


def _cli_sweep_ops(seed: int, seconds: float, work_dir: Path):
    """The corpus files, then one seeded pick from each of ``count`` strata of
    the pool (ordered by seed-code cost), in seeded order.  Stratifying on
    cost keeps every run's cost mix close to the pool's, so the spread
    between seeds stays small.

    The warm-up runs, per shape (n, m, k), the costliest system not picked,
    so the tables keyed on dimensions alone (multi-indices, contraction and
    polarization matrices) are built before timing starts; without it the
    first system of each shape in the seeded order paid for them.
    """
    pool = load_pool()
    ranked = pool["pool"]
    count = op_count("cli-sweep", seconds)
    if count >= len(ranked):
        raise ValueError(f"--seconds {seconds} needs more systems than the pool holds")
    rng = random.Random(f"cli-sweep:{seed}")
    picks = {rng.randrange(j * len(ranked) // count, (j + 1) * len(ranked) // count)
             for j in range(count)}
    warm = {}
    for i, rec in enumerate(ranked):  # ascending cost, so the last one per shape wins
        if i not in picks:
            warm[rec["n"], rec["m"], rec["k"]] = rec
    chosen = [ranked[i] for i in sorted(picks)]
    rng.shuffle(chosen)

    corpus_dir = ROOT / "src" / "formalpde" / "corpus"
    ops = []
    for rec in pool["corpus"]:
        path = corpus_dir / f"{rec['name']}.pde"
        if hashlib.sha256(path.read_bytes()).hexdigest() != rec["sha256"]:
            raise ValueError(f"{path.name} changed since the pool was built; rerun make_pool.py")
        ops.append(_cli_op(rec["name"], path, rec))
    work_dir.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(list(warm.values()) + chosen):
        path = work_dir / f"sys{i:04d}.pde"
        path.write_text(format_pde(rec))
        ops.append(_cli_op(f"pool:{rec['stratum']}:{i}", path, rec))
    warm_ops = ops[len(pool["corpus"]):len(pool["corpus"]) + len(warm)]
    del ops[len(pool["corpus"]):len(pool["corpus"]) + len(warm)]

    def warm_check(outs):
        return next(filter(None, (op.check(out) for op, out in zip(warm_ops, outs))), None)

    return Op("warm-up", lambda: [op.run() for op in warm_ops], warm_check), ops


def run_cli(args: list[str]) -> tuple[int, str]:
    from formalpde import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, buf.getvalue()


def _cli_op(label: str, path: Path, rec: dict) -> Op:
    def run():
        return [run_cli([cmd, str(path), "--json", "-"]) for cmd in CLI_COMMANDS]

    return Op(label, run, lambda outs: check_cli(rec, outs))


def expected_cli(rec: dict) -> dict[str, dict]:
    """Per command, the JSON fields the oracle numbers determine."""
    n = rec["n"]
    fiber, symbol, image = rec["fiber"], rec["symbol"], [None] + rec["image"]
    h = {tuple(map(int, key.split(","))): v for key, v in rec["h"].items()}
    onto = [None] + [image[i] == fiber[i - 1] for i in range(1, len(fiber))]

    def levels(depth):
        return [
            {"level": i, "fiber_dim": fiber[i], "symbol_dim": symbol[i],
             "projection_surjective": onto[i]}
            for i in range(1, depth + 1)
        ]

    def first_zero(ranks):
        return next((i for i, r in enumerate(ranks) if r == 0), None)

    def tower_verdict(depth, basis):
        bad = next((i for i in range(1, depth + 1) if not onto[i]), None)
        if bad is None:
            return {"verdict": "integrable-up-to", "verdict_level": depth,
                    "certification_basis": "exhausted-bound"}
        return {"verdict": "obstructed-at", "verdict_level": bad,
                "certification_basis": basis}

    def goldschmidt(l_max):
        out = {"base_fiber_dim": fiber[0], "levels": levels(1),
               "cohomology": [{"l": l, "m": j, "h_dim": h[(l, j)]}
                              for l in range(l_max + 1) for j in (1, 2)]}
        bad2 = next((l for l in range(l_max + 1) if h[(l, 2)]), None)
        vanish = first_zero(symbol[: l_max + 2])
        if not onto[1]:
            v = ("obstructed-at", 1, f"goldschmidt({l_max})")
        elif bad2 is not None:
            v = ("inconclusive", bad2, f"goldschmidt({l_max})")
        elif vanish is not None:
            v = ("formally-integrable-certified", vanish, f"finite-type({vanish})")
        else:
            v = ("integrable-up-to", l_max, f"goldschmidt-up-to-evidence({l_max})")
        out.update(verdict=v[0], verdict_level=v[1], certification_basis=v[2])
        return out

    sym_levels = 4  # symbol --levels default
    finite = first_zero(symbol[: sym_levels + 1])
    exp = {
        "symbol": {
            "symbol_dim": symbol[0],
            "ranks": symbol[: sym_levels + 1],
            "symbol_type": {"kind": "finite", "level": finite} if finite is not None
            else {"kind": "infinite-up-to", "level": sym_levels},
        },
        "tower": dict(base_fiber_dim=fiber[0], levels=levels(4), **tower_verdict(4, "tower(4)")),
        "cohomology": {
            "entries": [{"l": l, "m": j, "h_dim": h[(l, j)]}
                        for l in range(3) for j in range(1, n + 1)],
            "vanishing_level": first_zero(symbol[:4]),
        },
        "goldschmidt": goldschmidt(2),
    }
    # finite-type --l-max 2 --levels 6
    ft = first_zero(symbol[:3])
    if ft is None:
        fin = goldschmidt(2)
        fin["symbol_type"] = {"kind": "infinite-up-to", "level": 2, "ranks": symbol[:3]}
    else:
        need = max(ft + 1, 1)
        fin = dict(base_fiber_dim=fiber[0], levels=levels(need), **tower_verdict(need, ""))
        if fin["verdict"] != "obstructed-at":
            fin.update(verdict="formally-integrable-certified", verdict_level=ft)
        fin["certification_basis"] = f"finite-type({ft})"
        fin["symbol_type"] = {"kind": "finite", "level": ft, "ranks": symbol[:3]}
    exp["finite-type"] = fin
    exp["crosscheck"] = {
        "agree": True,
        "levels": [
            {"level": i,
             "jet_route": {"fiber_dim": fiber[i], "image_dim": image[i]},
             "connection_route": {"fiber_dim": fiber[i], "image_dim": image[i]},
             "symbol_dim": symbol[i]}
            for i in (1, 2)
        ],
    }
    return exp


def _matches(want, got) -> bool:
    """got agrees with want on every key want names (lists element-wise)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _matches(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, want, got))
    return want == got


def check_cli(rec: dict, outs: list[tuple[int, str]]) -> str | None:
    expected = expected_cli(rec)
    for cmd, (code, text) in zip(CLI_COMMANDS, outs):
        if code != 0:
            return f"{cmd} exited {code}"
        got = json.loads(text)
        if not _matches(expected[cmd], got):
            return f"{cmd} disagrees with the oracle"
    return None
