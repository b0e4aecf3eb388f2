"""Outside-in tracing of formalpde: wrappers installed from the benchmark.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds every public
function of the traced modules (and the private boundaries named in
``PRIVATE``) in every ``formalpde.*`` namespace that holds it, and replaces
public methods on their classes.  Each call records a span -- name, start,
end, parent span, op id -- kept in memory and written out by ``write_spans``.

Span times are wall seconds (``time.perf_counter``), like the end-to-end
timings; run.py scales the reported ones to the reference machine speed.
Self time is a span's duration minus the time its child spans cover.  The
tracer's own bookkeeping (opening and closing spans, computing counters such
as the bit size of an echelon form) is measured and taken out of every
enclosing span, so it does not inflate the callers' self time.

``tensorspace`` is not wrapped per call; its caches are read through
``cache_info()``.  A named target that no longer exists is reported as
absent, never as an error.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

TRACED_MODULES = ("ratlin", "tableau", "spencer", "jetpde", "relconn", "cli")
PRIVATE = ("tableau._verify_contracts_into", "spencer._slot_matrix", "cli._emit")
# Per-entry accessors and coercions: wrapping them would multiply the span
# count for no layer boundary; their time stays with the caller.
SKIP = {"ratlin.rat", "ratlin.RatMatrix.row", "ratlin.RatMatrix.col", "jetpde.jet_index"}


def _module(name: str):
    return importlib.import_module(f"formalpde.{name}")


def discover() -> dict[str, tuple]:
    """Span name -> (owner, attribute, kind) for every traced callable."""
    found: dict[str, tuple] = {}
    for mod_name in TRACED_MODULES:
        mod = _module(mod_name)
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(value):
                for meth, raw in vars(value).items():
                    if meth.startswith("_") and meth not in ("__init__", "__matmul__"):
                        continue
                    if isinstance(raw, staticmethod):
                        found[f"{mod_name}.{attr}.{meth}"] = (value, meth, "static")
                    elif inspect.isfunction(raw):
                        found[f"{mod_name}.{attr}.{meth}"] = (value, meth, "method")
            elif callable(value):
                found[f"{mod_name}.{attr}"] = (mod, attr, "function")
    for name in PRIVATE:
        mod_name, attr = name.split(".")
        if hasattr(_module(mod_name), attr):
            found[name] = (_module(mod_name), attr, "function")
    return {k: v for k, v in found.items() if k not in SKIP}


class Tracer:
    """Span recorder with per-name call counts, self and inclusive times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, op]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []  # outermost spans of a name only
        self._active: list[int] = []
        self._stack: list[list] = []  # [span index, name id, start, child s, excluded at start]
        self._excluded = 0.0
        self._restore: list[tuple] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self.deepest: dict[int, tuple[int, int, int]] = {}  # op -> (order, rows, cols)

    # -- recording --

    def _open(self, nid: int, entered: float) -> None:
        """Start a span; the bookkeeping since ``entered`` happens before
        its start, so only the rest of it is taken out of its duration."""
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, 0.0, 0.0, parent, self.op])
        self.calls[nid] += 1
        self._active[nid] += 1
        now = self.clock()
        self.spans[idx][1] = now
        self._stack.append([idx, nid, now, 0.0, self._excluded + (now - entered)])

    def _close(self, end: float) -> None:
        idx, nid, start, child, excluded = self._stack.pop()
        dur = end - start - (self._excluded - excluded)
        self.spans[idx][2] = end
        self.self_s[nid] += dur - child
        self._active[nid] -= 1
        if not self._active[nid]:
            self.total_s[nid] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name: str, func):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._active.append(0)
        hook = HOOKS.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            entered = clock()
            self._open(nid, entered)
            self._excluded += clock() - entered
            try:
                result = func(*args, **kwargs)
            except BaseException:
                returned = clock()
                self._close(returned)
                self._excluded += clock() - returned
                raise
            returned = clock()
            if hook is not None:
                hook(self, args, result)
            self._close(returned)
            self._excluded += clock() - returned
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installation --

    def install(self) -> None:
        for name, (owner, attr, kind) in discover().items():
            raw = vars(owner)[attr]
            func = raw.__func__ if kind == "static" else raw
            wrapped = self.wrap(name, func)
            if kind == "function":
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("formalpde") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is func:
                                self._restore.append((mod, key, value))
                                setattr(mod, key, wrapped)
            else:
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped) if kind == "static" else wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output --

    def stats(self, name: str) -> tuple[int, float, float] | None:
        """(calls, self seconds, inclusive seconds) of a span name, if traced."""
        if name not in self.names:
            return None
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --------------------------- counters at the boundaries ---------------------------


def _bump(tr: Tracer, key: str, value: float) -> None:
    tr.counters[key] = tr.counters.get(key, 0) + value


def _rref_hook(tr: Tracer, args, result) -> None:
    (mat,) = args
    echelon, pivots = result
    _bump(tr, "ratlin.rref.cells_in", mat.rows * mat.cols)
    _bump(tr, "rref.rows_in", mat.rows)
    _bump(tr, "rref.rank", len(pivots))
    bits = tr.counters.get("ratlin.rref.max_bits", 0)
    for i in range(len(pivots)):  # rows below the rank are zero
        for x in echelon.row(i):
            if x:
                bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    tr.counters["ratlin.rref.max_bits"] = bits


def _slot_hook(tr: Tracer, args, result) -> None:
    _bump(tr, "spencer.assembly.cells_out", result.rows * result.cols)


def _prolongation_hook(tr: Tracer, args, result) -> None:
    rows = result.equations.rows
    _bump(tr, "jetpde.formal_prolongation.rows_out", rows)
    if result.k >= tr.deepest.get(tr.op, (0, 0, 0))[0]:
        tr.deepest[tr.op] = (result.k, rows, result.equations.cols)


HOOKS = {
    "ratlin.rref": _rref_hook,
    "spencer._slot_matrix": _slot_hook,
    "jetpde.formal_prolongation": _prolongation_hook,
}


def _tensorspace_caches() -> list:
    mod = _module("tensorspace")
    return [v for v in vars(mod).values() if callable(getattr(v, "cache_info", None))]


class LayerTrace:
    """A tracer installed around a block of ops, plus cache-statistics deltas."""

    def __init__(self):
        self.tracer = Tracer()
        self.cached: dict[str, tuple] = {}  # span name -> (lru_cache object, hits before)

    def __enter__(self) -> Tracer:
        for _, name, field in PER_LAYER:
            if field != "cache_hits":
                continue
            mod_name, attr = name.split(".")
            func = getattr(_module(mod_name), attr, None)
            if callable(getattr(func, "cache_info", None)):
                self.cached[name] = (func, func.cache_info().hits)
        self.ts_before = sum(c.cache_info().misses for c in _tensorspace_caches())
        self.tracer.install()
        return self.tracer

    def __exit__(self, *exc) -> None:
        self.tracer.uninstall()
        self.hits = {n: f.cache_info().hits - before for n, (f, before) in self.cached.items()}
        caches = _tensorspace_caches()
        self.ts_misses = sum(c.cache_info().misses for c in caches) - self.ts_before
        self.ts_entries = sum(c.cache_info().currsize for c in caches)

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Every per-layer metric that could be measured, and the absent ones."""
        tr, c = self.tracer, self.tracer.counters
        deepest = tr.deepest.values()
        derived = {
            "ratlin.rref.cells_in": lambda: c.get("ratlin.rref.cells_in", 0),
            "ratlin.rref.rank_per_row": lambda: c.get("rref.rank", 0) / max(c.get("rref.rows_in", 0), 1),
            "ratlin.rref.max_bits": lambda: c.get("ratlin.rref.max_bits", 0),
            "spencer.assembly.cells_out": lambda: c.get("spencer.assembly.cells_out", 0),
            "jetpde.formal_prolongation.rows_out": lambda: c.get("jetpde.formal_prolongation.rows_out", 0),
            "jetpde.prolongation.rows_per_col": lambda: (
                sum(r for _, r, _ in deepest) / max(sum(w for _, _, w in deepest), 1)),
        }
        out: dict[str, float] = {}
        absent: list[str] = []
        for metric, span, field in PER_LAYER:
            if field == "module":
                out[metric] = tr.module_self_s(span)
            elif field == "cache_hits":
                if span in self.hits:
                    out[metric] = self.hits[span]
                else:
                    absent.append(metric)
            elif field == "tensorspace":
                out[metric] = self.ts_misses if metric.endswith("misses") else self.ts_entries
            elif tr.stats(span) is None:
                absent.append(metric)
            elif field == "counter":
                out[metric] = derived[metric]()
            else:
                out[metric] = dict(zip(("calls", "self_s", "total_s"), tr.stats(span)))[field]
        return out, absent


def _calls_self(metric: str, span: str) -> list[tuple[str, str, str]]:
    return [(f"{metric}.calls", span, "calls"), (f"{metric}.self_s", span, "self_s")]


# (metric, span name or module, what to read).  "counter" metrics are computed
# by the HOOKS above and exist only when their span was traced.
PER_LAYER: list[tuple[str, str, str]] = [
    *_calls_self("ratlin.rref", "ratlin.rref"),
    ("ratlin.rref.cells_in", "ratlin.rref", "counter"),
    ("ratlin.rref.rank_per_row", "ratlin.rref", "counter"),
    ("ratlin.rref.max_bits", "ratlin.rref", "counter"),
    *_calls_self("ratlin.kernel", "ratlin.kernel"),
    *_calls_self("ratlin.Subspace.from_spanning", "ratlin.Subspace.from_spanning"),
    *_calls_self("ratlin.RatMatrix.__init__", "ratlin.RatMatrix.__init__"),
    *_calls_self("ratlin.RatMatrix.apply", "ratlin.RatMatrix.apply"),
    *_calls_self("ratlin.Subspace.contains_vector", "ratlin.Subspace.contains_vector"),
    ("ratlin.self_s", "ratlin", "module"),
    ("tensorspace.cache_misses", "tensorspace", "tensorspace"),
    ("tensorspace.cache_entries", "tensorspace", "tensorspace"),
    ("tableau.tower.calls", "tableau.tower", "calls"),
    ("tableau.tower.total_s", "tableau.tower", "total_s"),
    ("tableau.verify.calls", "tableau._verify_contracts_into", "calls"),
    ("tableau.verify.total_s", "tableau._verify_contracts_into", "total_s"),
    ("tableau.prolong.total_s", "tableau.prolong", "total_s"),
    ("tableau.self_s", "tableau", "module"),
    ("spencer.cohomology.calls", "spencer.cohomology", "calls"),
    ("spencer.cohomology.total_s", "spencer.cohomology", "total_s"),
    ("spencer.assembly.self_s", "spencer._slot_matrix", "self_s"),
    ("spencer.assembly.cells_out", "spencer._slot_matrix", "counter"),
    ("spencer.self_s", "spencer", "module"),
    *_calls_self("jetpde.formal_prolongation", "jetpde.formal_prolongation"),
    ("jetpde.formal_prolongation.rows_out", "jetpde.formal_prolongation", "counter"),
    ("jetpde.prolongation.rows_per_col", "jetpde.formal_prolongation", "counter"),
    *_calls_self("jetpde.solution_fiber", "jetpde.solution_fiber"),
    ("jetpde.solution_fiber.cache_hits", "jetpde.solution_fiber", "cache_hits"),
    *_calls_self("jetpde.symbol_tableau", "jetpde.symbol_tableau"),
    ("jetpde.symbol_tableau.cache_hits", "jetpde.symbol_tableau", "cache_hits"),
    ("jetpde.prolongation_tower.total_s", "jetpde.prolongation_tower", "total_s"),
    ("jetpde.goldschmidt_check.total_s", "jetpde.goldschmidt_check", "total_s"),
    ("jetpde.self_s", "jetpde", "module"),
    ("relconn.classical_prolongation_fiber.calls", "relconn.classical_prolongation_fiber", "calls"),
    ("relconn.classical_prolongation_fiber.total_s", "relconn.classical_prolongation_fiber", "total_s"),
    ("relconn.RelConn.__init__.self_s", "relconn.RelConn.__init__", "self_s"),
    ("relconn.self_s", "relconn", "module"),
    *_calls_self("cli.parse_system", "cli.parse_system"),
    ("cli.cmd_crosscheck.self_s", "cli.cmd_crosscheck", "self_s"),
    ("cli.emit.self_s", "cli._emit", "self_s"),
    ("cli.self_s", "cli", "module"),
]
