"""formalpde benchmark: three seeded workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tower-heat3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run starts fresh worker processes (perfbench/worker.py) on the
checkout's ``src`` and never imports formalpde itself.  With ``--trace 0`` it
reports the end-to-end metrics: op latency median and tail, throughput, the
worker's peak RSS, the share of ops that passed their reference check, and
``setup_s``, the time a fresh interpreter takes to import ``formalpde.cli``.
Op times are wall times, scaled to a reference machine speed measured
alongside (calibrate.py); ``setup_s`` is scaled by reference interpreter
spawns instead (``measure_setup``).  Raw figures are printed too.
With ``--trace 1`` it runs the same ops twice, untraced and traced, and
reports the per-layer metrics plus ``trace.overhead_ratio`` (traced over
untraced op time).  Human-readable lines come first; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when the checkout has no
``src/formalpde`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("tower-heat3", "goldschmidt-wave4", "cli-sweep")
SETUP_SPAWNS = 21
# A fresh interpreter importing the stdlib modules formalpde uses: the same
# kind of work as the measured import, without formalpde.
SETUP_REFERENCE = "import argparse, dataclasses, fractions, json, pathlib, re, typing"
SETUP_REFERENCE_S = 0.075  # that spawn's wall time on a shared 2-vCPU x86-64 VM
RUN_LIMIT_S = 170  # every run must end within 180 s
END_TO_END = {
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "setup_s": "s",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # nothing else, so no stray install is measured
    return env


def measure_setup() -> tuple[float, float, str]:
    """Time of a fresh interpreter that imports formalpde.cli.

    Each such spawn is timed (wall) between two spawns of SETUP_REFERENCE,
    and its time is divided by theirs.  Spawn times drift with the host's
    speed by up to 50% between minutes, the spawn-to-reference ratio by
    about 3%.  setup_s is the median ratio times SETUP_REFERENCE_S: the
    import's time on a machine where the reference spawn takes that long.
    Returns it, the raw median wall time, and where formalpde was imported
    from.
    """
    probe = "import formalpde.cli, formalpde; print(formalpde.__file__)"
    first = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_env(),
                           capture_output=True, text=True)
    if first.returncode != 0:
        raise RuntimeError(f"importing formalpde.cli failed:\n{first.stderr}")
    where = Path(first.stdout.strip()).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        raise RuntimeError(f"formalpde resolves to {where}, outside {ROOT / 'src'}")

    def spawn(code: str) -> float:
        # no timeout= here: waiting with one polls the child at intervals of
        # up to 50 ms, which quantizes the measured time (main's alarm bounds it)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), check=True)
        return time.perf_counter() - start

    raw, ratios = [], []
    before = spawn(SETUP_REFERENCE)
    for _ in range(SETUP_SPAWNS):
        raw.append(spawn("import formalpde.cli"))
        after = spawn(SETUP_REFERENCE)
        ratios.append(2 * raw[-1] / (before + after))
        before = after
    return SETUP_REFERENCE_S * statistics.median(ratios), statistics.median(raw), str(where)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(OUT_DIR / f"work-{tag}")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each rank.

    Op times here jump between cost groups right at the median (cli-sweep's
    pool: 0.056 s at the 45th percentile, 0.086 s at the 55th) and each op's
    time carries ~15% machine noise, so the single middle order statistic
    moved 11% between two runs of one seed; this estimate moved 5%.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)

    def density(x: float) -> float:
        return exp(log_norm + (a - 1) * log(x) + (b - 1) * log(1 - x)) if 0 < x < 1 else 0.0

    steps = 8  # Simpson's rule on each rank's interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, steps))
        weights.append((density(i / n) + inner + density((i + 1) / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile of op time with at least ten ops beyond it."""
    n = len(times)
    pct = (100 * (n - 10)) // n
    return hd_quantile(times, pct / 100), pct


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setup_s, setup_raw, where = measure_setup()
    res = run_worker(workload, seed, seconds, 0)
    times, n = res["times"], res["attempted"]  # n counts the warm-up op too
    failed = len(res["failures"])
    tail_s, pct = tail(times)
    values = {
        "op_latency_p50_s": hd_quantile(times, 0.5),
        "op_latency_tail_s": tail_s,
        "throughput_ops_s": len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": (n - failed) / n,
        "setup_s": setup_s,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = [
        f"formalpde: {where}",
        f"ops: {n}, failed: {failed}, fail_ratio: {failed / n:.4f}",
        f"raw (unscaled) wall: op p50 {statistics.median(res['raw_times']):.6f} s, "
        f"ops total {sum(res['raw_times']):.3f} s, setup {setup_raw:.6f} s; "
        f"calibration median {statistics.median(res['calibrations']):.6f} s",
        f"ops wall/CPU: {sum(res['raw_times']) / sum(res['cpu_times']):.3f} "
        f"(above 1: time the worker waited rather than computed); "
        f"wall window with checks {res['wall_window_s']:.3f} s",
        f"op_latency_tail_s is p{pct} of {len(times)} timed ops (10 ops beyond it); both "
        "latencies are Harrell-Davis quantile estimates",
        f"setup_s is {SETUP_REFERENCE_S} s times the median ratio of {SETUP_SPAWNS} "
        "formalpde.cli import spawns to reference spawns",
    ]
    return _result(metrics, n, failed, res), notes


def layers(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    plain = run_worker(workload, seed, seconds, 0)
    traced = run_worker(workload, seed, seconds, 1)
    # span times are raw wall seconds; scale them like the ops (calibrate.py)
    speed = sum(traced["times"]) / sum(traced["raw_times"])
    metrics = {}
    for name, value in traced["layers"].items():
        unit = unit_of(name)
        metrics[name] = (value * speed if unit == "s" else value, unit)
    metrics["trace.overhead_ratio"] = (sum(traced["times"]) / sum(plain["times"]), "ratio")
    failed = len({f["op"] for f in plain["failures"] + traced["failures"]})
    notes = [
        f"formalpde: {traced['formalpde']}",
        f"ops: {traced['attempted']}, spans: {traced['spans']}, failed: {failed}",
        f"ops total: untraced {sum(plain['times']):.3f} s, traced {sum(traced['times']):.3f} s (scaled wall)",
    ]
    if traced["absent"]:
        notes.append("absent (target missing): " + ", ".join(traced["absent"]))
    return _result(metrics, traced["attempted"], failed, traced), notes


def unit_of(metric: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), (".cells_in", "cells"),
                         (".cells_out", "cells"), (".rows_out", "rows"), (".max_bits", "bits"),
                         (".cache_hits", "count"), (".cache_misses", "count"),
                         (".cache_entries", "count")):
        if metric.endswith(suffix):
            return unit
    return "ratio"


def _result(metrics: dict, attempted: int, failed: int, res: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": res["failures"][:5],
    }


def _out_of_time(signum, frame):
    raise TimeoutError(f"not done within {RUN_LIMIT_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description="formalpde benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "formalpde" / "__init__.py").is_file():
        print(f"error: no formalpde source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _out_of_time)
    results = {}
    for name in names:
        measure = layers if args.trace else end_to_end
        signal.alarm(RUN_LIMIT_S)  # a child still running is killed as the error unwinds
        try:
            result, notes = measure(name, args.seed, args.seconds)
        except (RuntimeError, subprocess.SubprocessError, TimeoutError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in notes:
            print(f"  {line}")
        for key, m in result["metrics"].items():
            print(f"  {key:<46} {m['value']:>14.6g} {m['unit']}")
        for f in result["failures"]:
            print(f"  FAILED {f['op']}: {f['reason']}")
        del result["failures"]
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
