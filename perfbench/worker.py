"""One benchmark worker: a fresh interpreter that runs one workload's ops.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src``:

    python3 perfbench/worker.py --workload W --seed N --seconds S --work-dir DIR
        [--trace 0|1]

It builds the seeded inputs, runs the warm-up op, then times every op in a
closed loop (one client, no threads), checking each output against its
reference outside the op's time.  With ``--trace 1`` the layer tracer is
installed around the timed ops and its spans are written to
``.perfbench/spans-W-seedN.jsonl``.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from calibrate import Speed

SPANS_DIR = workloads.ROOT / ".perfbench"


def check_provenance() -> str:
    import formalpde

    src = (workloads.ROOT / "src").resolve()
    where = Path(formalpde.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"formalpde imported from {where}, not from {src}")
    return str(where)


def run_ops(ops: list[workloads.Op], tracer=None) -> dict:
    """Time every op and check its output right after; failures never raise.

    An op's time is its wall time, scaled to the reference machine speed
    (see calibrate.py).  The op's CPU time (user + system) is recorded too,
    so the report can show how much of the wall time the process spent
    waiting rather than computing.  Outputs are dropped once checked, so
    they do not add to peak RSS.
    """
    speed = Speed()
    cpu_times = []
    failures = []
    wall_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        speed.add(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"op": op.label, "reason": reason})
    return {
        "times": speed.scaled(),
        "raw_times": speed.raw,
        "cpu_times": cpu_times,
        "calibrations": speed.cals,
        "wall_window_s": time.perf_counter() - wall_start,
        "attempted": len(ops),
        "failures": failures,
    }


def run_workload(warm: workloads.Op, ops: list[workloads.Op], spans: Path | None = None) -> dict:
    """Run the warm-up op, then time ``ops``, traced when ``spans`` names the
    file to write the spans to.  The warm-up op builds imports and small
    tables, and its input is never reused; it is not timed, but it is
    checked and counted like the rest."""
    warm_failures = run_ops([warm])["failures"]
    if spans is not None:
        from tracer import LayerTrace

        layer = LayerTrace()
        with layer as tracer:
            result = run_ops(ops, tracer)
        result["layers"], result["absent"] = layer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(spans)
    else:
        result = run_ops(ops)
    result["attempted"] += 1
    result["failures"] = warm_failures + result["failures"]
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    module_file = check_provenance()
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        warm, ops = workloads.build(args.workload, args.seed, args.seconds, args.work_dir)
        result = run_workload(warm, ops, spans)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["formalpde"] = module_file
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
