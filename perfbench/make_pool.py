"""Build the cli-sweep system pool and its reference values.

Run from the repository root:

    python3 perfbench/make_pool.py

(about ten minutes on two cores, most of it in sympy)

The pool is drawn from the acceptance suite's ``random_pde`` family, with
n <= 3, m <= 2, k <= 2 and k = 1 when n = 3, one stratum per shape
(n, m, k) and equation count.  Every system's reference values come from
``tests/oracle_brute.py`` (sympy only, no formalpde code): fiber, symbol and
projection-image dimensions through prolongation level 4, and the Spencer
cohomology dimensions H(l, j) for l <= 2.  The six corpus files get the same
treatment.

Last, the pool is ordered by what each system costs the current formalpde
(all six commands, median of three timed passes).  The benchmark stratifies on
that order; the costs decide only which systems share a stratum, never a
reference value.

The result is ``perfbench/data/cli_pool.json``; the benchmark only reads it,
so this script runs once, not per benchmark run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from calibrate import Speed

ROOT = Path(__file__).resolve().parents[1]
POOL_PATH = Path(__file__).resolve().parent / "data" / "cli_pool.json"
POOL_SEED = 19010208
PER_STRATUM = 12  # systems per stratum; n = 3 strata hold twice as many
TOWER_DEPTH = 4  # the tower command's default --levels
H_LEVELS = 2  # the cohomology/goldschmidt default --l-max


def shapes() -> list[tuple[int, int, int]]:
    return [
        (n, m, k)
        for n in (1, 2, 3)
        for m in (1, 2)
        for k in ((1,) if n == 3 else (1, 2))
    ]


def normalize(eqs) -> list:
    """Merge repeated jet variables, drop zero terms, sort each equation."""
    out = []
    for eq in eqs:
        acc: dict[tuple[int, tuple[int, ...]], int] = {}
        for coeff, a, alpha in eq:
            key = (a, tuple(alpha))
            acc[key] = acc.get(key, 0) + coeff
        out.append(sorted([c, a, list(alpha)] for (a, alpha), c in acc.items() if c))
    return out


def draw_equations(rng: random.Random, n: int, m: int, k: int, neq: int) -> list:
    """One system of the random_pde family, conditioned on its stratum."""
    eqs = []
    for _ in range(neq):
        terms = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randrange(m)
            alpha = [0] * n
            for _ in range(rng.randint(0, k)):
                alpha[rng.randrange(n)] += 1
            terms.append((rng.randint(-2, 2), a, tuple(alpha)))
        eqs.append(terms)
    return normalize(eqs)


_HEADER = re.compile(r"^\s*(base_dim|fiber_rank|order)\s*=\s*(\d+)\s*$")
_TERM = re.compile(r"([+-])?\s*(?:(\d+)(?:/(\d+))?\s*\*?\s*)?u(\d+)(?:_((?:x\d+)+))?\s*")


def parse_pde(text: str):
    """A small reader for the .pde format, enough for the corpus files."""
    head: dict[str, int] = {}
    eqs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _HEADER.match(line)
        if match:
            head[match.group(1)] = int(match.group(2))
            continue
        body = line[len("eq:"):].split("=")[0].strip()
        n = head["base_dim"]
        terms = []
        pos = 0
        while body != "0" and pos < len(body):
            t = _TERM.match(body, pos)
            if t is None or t.end() == pos:
                raise ValueError(f"cannot read term in {line!r}")
            sign = -1 if t.group(1) == "-" else 1
            if t.group(3):
                raise ValueError("rational corpus coefficients are not supported")
            coeff = sign * int(t.group(2) or 1)
            alpha = [0] * n
            for d in re.findall(r"x(\d+)", t.group(5) or ""):
                alpha[int(d) - 1] += 1
            terms.append((coeff, int(t.group(4)) - 1, tuple(alpha)))
            pos = t.end()
        eqs.append(terms)
    return head["base_dim"], head["fiber_rank"], head["order"], normalize(eqs)


def oracle_record(item: dict) -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracle_brute as ob

    n, m, k = item["n"], item["m"], item["k"]
    eqs = [[(c, a, tuple(al)) for c, a, al in eq] for eq in item["eqs"]]
    data = ob.tower_data(n, m, k, eqs, TOWER_DEPTH)
    bases = ob.symbol_tower_bases(n, m, k, eqs, H_LEVELS + 1)
    h = {
        f"{l},{j}": ob.spencer_h_dim(n, m, bases, l, j)
        for l in range(H_LEVELS + 1)
        for j in range(1, max(n, 2) + 1)
    }
    return dict(
        item,
        fiber=[d[0] for d in data],
        symbol=[d[1] for d in data],
        image=[d[2] for d in data[1:]],
        h=h,
    )


def build_items() -> tuple[list[dict], list[dict]]:
    corpus = []
    seen = set()
    for path in sorted((ROOT / "src" / "formalpde" / "corpus").glob("*.pde")):
        text = path.read_text()
        n, m, k, eqs = parse_pde(text)
        seen.add(json.dumps([n, m, k, eqs]))
        corpus.append(
            {
                "name": path.stem,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "n": n, "m": m, "k": k, "eqs": eqs,
            }
        )
    rng = random.Random(POOL_SEED)
    pool = []
    for n, m, k in shapes():
        # n = 3 carries the family's whole n = 3 mass on a single k
        quota = PER_STRATUM * (2 if n == 3 else 1)
        for neq in range(1, 5):
            got = 0
            while got < quota:
                eqs = draw_equations(rng, n, m, k, neq)
                key = json.dumps([n, m, k, eqs])
                if key in seen:
                    continue
                seen.add(key)
                pool.append(
                    {"stratum": f"{n}{m}{k}{neq}", "n": n, "m": m, "k": k, "eqs": eqs}
                )
                got += 1
    return corpus, pool


def rank_by_cost(pool: list[dict], passes: int = 3) -> list[dict]:
    """The pool ordered by seed-code cost, each record carrying its cost_s.

    A system's cost is its median over ``passes`` timed passes (caches
    cleared between passes), in wall seconds scaled to the reference machine
    speed (calibrate.py), so that host speed drift does not reorder the pool.
    """
    sys.path.insert(0, str(ROOT / "src"))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, rec in enumerate(pool):
            paths.append(Path(tmp) / f"sys{i}.pde")
            paths[-1].write_text(workloads.format_pde(rec))
        for _ in range(passes):
            workloads.clear_caches()
            speed = Speed()
            for path in paths:
                start = time.perf_counter()
                for cmd in workloads.CLI_COMMANDS:
                    workloads.run_cli([cmd, str(path), "--json", "-"])
                speed.add(time.perf_counter() - start)
            runs.append(speed.scaled())
    for rec, costs in zip(pool, zip(*runs)):
        rec["cost_s"] = round(statistics.median(costs), 5)
    return sorted(pool, key=lambda rec: rec["cost_s"])


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    corpus, pool = build_items()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as workers:
        corpus = workers.map(oracle_record, corpus)
        done = []
        for i, rec in enumerate(workers.imap(oracle_record, pool, chunksize=4)):
            done.append(rec)
            if i % 50 == 0:
                print(f"{i + 1}/{len(pool)} systems", file=sys.stderr, flush=True)
    payload = {
        "pool_seed": POOL_SEED,
        "per_stratum": PER_STRATUM,
        "tower_depth": TOWER_DEPTH,
        "h_levels": H_LEVELS,
        "corpus": corpus,
        "pool": rank_by_cost(done),
    }
    POOL_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {len(done)} pool systems to {POOL_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
