"""In-memory span tracer for the latlab benchmark.

The tracer wraps latlab's public functions from outside the package: it
replaces a module or class attribute with a wrapper and restores the
original on ``uninstall``.  latlab's internal calls look those attributes up
at call time (``intlinalg.rank(...)``, module globals, ``self.char_poly()``),
so wrapping the attribute is enough to see every call.

Each call records a span ``(id, name, start_ns, end_ns, parent_id, item,
pid, counts)``.  Spans stay in memory.  Process-pool workers are forked
while the pool call's span is open, so they inherit the wrappers and the
open span stack; a worker appends the spans of each finished task to its
own file in the spool directory, and ``collect`` merges those files back.
Timestamps come from ``time.perf_counter_ns``, which is CLOCK_MONOTONIC on
Linux and so comparable across processes.

``layer_metrics`` turns the spans of one traced pass into per-layer self
times and work counts.  A span's self time is its duration minus the part
of it that its children cover; children that ran in a pool worker count as
time the parent waited.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from math import comb

def _sym_counts(args, kwargs, result):
    vecs = args[0]
    n = len(vecs[0]) if vecs else 0
    return {"rows": len(vecs), "cols": comb(n + 1, 2)}


def _pool_counts(args, kwargs, result):
    # tables._map(fn, items, jobs) and perfection.scan_D(excl, d_max, jobs)
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return {"jobs": jobs}


# (owner name, attribute, span name, counter)
# A counter maps (args, kwargs, result) to the work counts kept on the span.
TARGETS = (
    ("intlinalg", "kernel_basis", "intlinalg.kernel_basis", None),
    ("intlinalg", "hnf", "intlinalg.hnf", None),
    ("intlinalg", "gram_matrix", "intlinalg.gram_matrix", None),
    ("intlinalg", "bareiss_det", "intlinalg.bareiss_det", None),
    ("intlinalg", "gram_det", "intlinalg.gram_det", None),
    ("intlinalg", "rank", "intlinalg.rank", None),
    ("intlinalg", "char_poly", "intlinalg.char_poly",
     lambda a, k, r: {"order": len(a[0])}),
    ("intlinalg", "mat_mul", "intlinalg.mat_mul", None),
    ("lattice", "build", "lattice.build", None),
    ("lattice", "vectors_of_norm", "lattice.vectors_of_norm",
     lambda a, k, r: {"found": r.count}),
    ("lattice", "square_patterns", "lattice.square_patterns",
     lambda a, k, r: {"patterns": len(r)}),
    ("lattice", "minimum", "lattice.minimum", None),
    ("lattice", "enumerate_by_basis_oracle", "lattice.oracle",
     lambda a, k, r: {"vectors": sum(m.count for m in r.values())}),
    ("families", "make", "families.make", None),
    ("families", "build_family", "families.build_family", None),
    ("families", "verify_formula", "families.verify_formula", None),
    ("families", "craig_pair_count", "families.craig_pair_count", None),
    ("fields", "distinct_root_histogram", "fields.histogram",
     lambda a, k, r: {"subsets": sum(r.values())}),
    ("perfection", "sym_square_rank", "perfection.sym_square_rank", _sym_counts),
    ("perfection", "alpha_series", "perfection.alpha_series", None),
    ("perfection", "perfection_report", "perfection.perfection_report", None),
    ("perfection", "scan_D", "perfection.scan_D", _pool_counts),
    ("perfection", "_scan_entry", "perfection.scan_task", None),
    ("perfection", "minvec_graph", "perfection.minvec_graph",
     lambda a, k, r: {"vertices": r.order}),
    ("perfection.MinVectorGraph", "spectrum", "perfection.spectrum", None),
    ("perfection.MinVectorGraph", "srg_parameters", "perfection.srg_parameters", None),
    ("tables", "run_table", "tables.run_table", None),
    ("tables", "_map", "tables.map", _pool_counts),
    ("tables", "_exclusion_row", "tables.task", None),
    ("tables", "_scan_row", "tables.task", None),
    ("tables", "_craig_row", "tables.task", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("intlinalg", "lattice", "families", "fields", "perfection", "tables", "cli")


def _resolve(latlab, owner: str):
    obj = latlab
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder; one per traced run, installed around traced passes."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.item = None
        self.active = False
        self._seq = 0
        self._worker_depth = None
        self._patched: list[tuple] = []
        os.makedirs(spool_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._enter_worker)

    def install(self, latlab) -> None:
        for owner_name, attr, name, counter in TARGETS:
            owner = _resolve(latlab, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patched.append((owner, attr, original))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.active = False

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, counter, args, kwargs)

        return traced

    def _call(self, fn, name, counter, args, kwargs):
        self._seq += 1
        sid = f"{self.pid}.{self._seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        counts = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            counts = {"raised": 1}
            raise
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            if counts is None and counter is not None:
                counts = counter(args, kwargs, result)
            self.spans.append((sid, name, start, end, parent, self.item, self.pid, counts))
            if len(self.stack) == self._worker_depth:
                self._flush()
        return result

    def _enter_worker(self) -> None:
        # runs in every forked child; a pool worker keeps the open span stack
        # so its task spans name the pool call as their parent
        if not self.active:
            return
        self.pid = os.getpid()
        self.spans = []
        self._worker_depth = len(self.stack)

    def _flush(self) -> None:
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[tuple]:
        """Spans of the main process plus every worker spool; clears both."""
        spans = self.spans
        self.spans = []
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
            os.remove(path)
        return spans


def _union(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, main_pid: int, wall_s: float) -> dict[str, float]:
    """Per-layer self times (s) and work counts of one traced pass.

    Every ``_s`` metric is a self time except ``intlinalg.char_poly_s``,
    which includes the ``mat_mul`` calls it makes.

    Times sum over the main process and its pool workers, so on a pooled
    workload a layer can report more seconds than the pass took.
    ``trace.accounted_frac`` is (main-process self time + time the main
    process waited on workers) over the pass wall time; the rest is the
    benchmark's own glue between calls.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[str, list[tuple]] = {}
    for s in spans:
        if s[4] in by_id:
            children.setdefault(s[4], []).append(s)

    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    main_self = wait = worker_busy = pooled_capacity = 0
    counts: dict[str, int] = {}
    fallbacks = 0
    for sid, name, start, end, parent, _item, pid, cnt in spans:
        kids = children.get(sid, ())
        covered = _union((max(k[2], start), min(k[3], end)) for k in kids)
        own = end - start - covered
        self_ns[name] = self_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        for key, value in (cnt or {}).items():
            if name == "lattice.square_patterns" and by_id.get(parent, (None, None))[1] == name:
                continue  # only the top call of the recursion lists the patterns
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if pid == main_pid:
            main_self += own
            worker_kids = [k for k in kids if k[6] != pid]
            if worker_kids:
                wait += covered
                pooled_capacity += (cnt or {}).get("jobs", 1) * (end - start)
                worker_busy += sum(k[3] - k[2] for k in worker_kids)
        if name == "perfection.sym_square_rank":
            if sum(1 for k in kids if k[1] == "intlinalg.rank") > 1:
                fallbacks += 1

    def sec(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def frac(num, den):
        return num / den if den else 0.0

    sym_calls = calls.get("perfection.sym_square_rank", 0)
    von_calls = calls.get("lattice.vectors_of_norm", 0)
    empty = sum(1 for s in spans
                if s[1] == "lattice.vectors_of_norm" and s[7] and not s[7].get("found"))
    out = {
        "perfection.sym_rank_self_s": sec("perfection.sym_square_rank"),
        "perfection.sym_rank_calls": sym_calls,
        "perfection.sym_rows": counts.get("perfection.sym_square_rank.rows", 0),
        "perfection.sym_cols": counts.get("perfection.sym_square_rank.cols", 0),
        "perfection.rank_fallbacks": fallbacks,
        "perfection.certified_frac": frac(sym_calls - fallbacks, sym_calls),
        "intlinalg.rank_s": sec("intlinalg.rank"),
        "intlinalg.rank_calls": calls.get("intlinalg.rank", 0),
        "lattice.oracle_s": sec("lattice.oracle"),
        "lattice.oracle_vectors": counts.get("lattice.oracle.vectors", 0),
        "lattice.vectors_of_norm_s": sec("lattice.vectors_of_norm"),
        "lattice.vectors_of_norm_calls": von_calls,
        "lattice.vectors_found": counts.get("lattice.vectors_of_norm.found", 0),
        "lattice.patterns": counts.get("lattice.square_patterns.patterns", 0),
        "lattice.empty_norm_frac": frac(empty, von_calls),
        # inclusive: Faddeev-LeVerrier's matrix products are its own work
        "intlinalg.char_poly_s": total_ns.get("intlinalg.char_poly", 0) / 1e9,
        "intlinalg.mat_mul_s": sec("intlinalg.mat_mul"),
        "intlinalg.char_poly_order": counts.get("intlinalg.char_poly.order", 0),
        "perfection.spectrum_self_s": sec("perfection.spectrum"),
        "perfection.graph_vertices": counts.get("perfection.minvec_graph.vertices", 0),
        "intlinalg.kernel_basis_s": sec("intlinalg.kernel_basis"),
        "intlinalg.hnf_s": sec("intlinalg.hnf"),
        "intlinalg.gram_det_s": sec("intlinalg.gram_matrix", "intlinalg.bareiss_det",
                                    "intlinalg.gram_det"),
        "lattice.build_s": sec("lattice.build"),
        "lattice.builds": calls.get("lattice.build", 0),
        "fields.histogram_s": sec("fields.histogram"),
        "fields.histogram_subsets": counts.get("fields.histogram.subsets", 0),
        "tables.run_table_s": sec("tables.run_table"),
        "tables.worker_busy_s": worker_busy / 1e9,
        "tables.pool_wait_s": wait / 1e9,
        "tables.pool_tasks": calls.get("tables.task", 0) + calls.get("perfection.scan_task", 0),
        "tables.pool_eff": frac(worker_busy, pooled_capacity),
        "cli.self_s": sec("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = sum(
            v for n, v in self_ns.items() if n.split(".")[0] == layer) / 1e9
    out["trace.spans"] = len(spans)
    out["trace.accounted_frac"] = frac((main_self + wait) / 1e9, wall_s)
    return out
