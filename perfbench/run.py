"""The latlab benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze, oracle, graph, cli-batch (see workloads.py and
README.md).  The run is a closed loop in one process: one item at a time,
passes over the seeded corpus until the next pass would end after
``--seconds``, at least one pass.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass wall time, CPU time (process plus pool workers) and slowest item, the
peak RSS of the process plus its largest worker, and the median of several
set-up probes (interpreter start, ``import latlab``, corpus generation).
Times are given at reference speed: calibrate.Sampler times a fixed chunk
every 50 ms during the run, and each time is scaled by the chunk times
sampled while it ran (see calibrate.py).  The raw seconds are printed too.
``--trace 1`` runs each item untraced and then traced and reports the
per-layer metrics of the traced passes plus the tracing overhead.

Every output is checked; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Each run also writes a result
file (and, when traced, its spans) under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calibrate
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 11
E2E_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "item_max_ref_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def _import_latlab():
    """Import latlab from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "latlab", "__init__.py")):
        sys.exit(f"error: no latlab sources under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import latlab

    if not os.path.abspath(latlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: latlab imported from {latlab.__file__}, not from src/")
    return latlab


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_eff"):
        return "fraction"
    return "count"


@dataclass
class Timing:
    """One timed item.  `scale` takes the sampler's own time out of the
    measured times and adds the times at reference speed."""
    key: str
    start: float  # perf_counter at the call
    seconds: float
    cpu: float
    sha: str | None
    failure: str | None
    ref_seconds: float = 0.0
    ref_cpu: float = 0.0

    def scale(self, sampler: calibrate.Sampler) -> None:
        end = self.start + self.seconds
        wall, cpu = sampler.handler_time(self.start, end)
        self.seconds -= wall
        self.cpu -= cpu
        factor = calibrate.CHUNK_REF_S / sampler.chunk_cpu(self.start, end)
        self.ref_seconds = self.seconds * factor
        self.ref_cpu = self.cpu * factor


@dataclass
class Pass:
    traced: bool
    items: list = field(default_factory=list)  # Timing
    spans: list | None = None
    layers: dict | None = None

    @property
    def wall(self) -> float:  # sum of item call times
        return sum(t.seconds for t in self.items)

    @property
    def cpu(self) -> float:
        return sum(t.cpu for t in self.items)

    @property
    def wall_ref(self) -> float:
        return sum(t.ref_seconds for t in self.items)

    @property
    def cpu_ref(self) -> float:
        return sum(t.ref_cpu for t in self.items)

    @property
    def item_max_ref(self) -> float:
        return max(t.ref_seconds for t in self.items)

    def run(self, item, reference, workloads) -> None:
        """Time one item, then check its output outside the timed call."""
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            code, text = workloads.execute(item)
            failure = None
        except Exception as exc:  # a raising item is counted, not fatal
            code, text, failure = None, None, f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        sha = None
        if failure is None:
            try:
                sha, failure = workloads.check(item, code, text, reference)
            except Exception as exc:  # malformed output
                failure = f"unreadable output: {exc!r}"
        self.items.append(Timing(item.key, t0, seconds, cpu, sha, failure))


def run_round(items, reference, latlab, workloads, tracer) -> list[Pass]:
    """One pass over the items.  With a tracer there are two passes: each
    item runs untraced and then traced, so both see the same machine state
    and their difference is the tracing overhead."""
    passes = [Pass(traced=False)] + ([Pass(traced=True)] if tracer else [])
    for idx, item in enumerate(items):
        for p in passes:
            if not p.traced:
                p.run(item, reference, workloads)
                continue
            tracer.item = idx
            tracer.install(latlab)
            try:
                p.run(item, reference, workloads)
            finally:
                tracer.uninstall()
    if tracer:
        traced = passes[1]
        traced.spans = tracer.collect()
        traced.layers = layer_metrics(traced.spans, os.getpid(), traced.wall)
    return passes


def measure(items, reference, seconds, latlab, workloads, tracer) -> list[Pass]:
    """Closed loop of rounds until the next round would end after `seconds`."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes += run_round(items, reference, latlab, workloads, tracer)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return passes


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, seconds at reference speed) of one set-up probe.  The probe
    times the reference chunk itself, on the vCPU it ran on."""
    t0 = time.monotonic_ns()
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
                         capture_output=True, text=True, check=True, cwd=ROOT).stdout
    ready, chunk = out.split()[-2:]
    seconds = (int(ready) - t0) / 1e9
    return seconds, seconds * calibrate.CHUNK_REF_S / float(chunk)


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "latlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _metadata(args, jobs: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "loadavg_at_start": os.getloadavg(),
        "src_sha256": _source_digest(),
        "started_unix": time.time(),
    }


def _consistency_failures(passes: list[Pass]) -> int:
    """Items whose output digest differs between passes (traced or not)."""
    digests: dict[str, set] = {}
    for p in passes:
        for t in p.items:
            if t.failure is None:
                digests.setdefault(t.key, set()).add(t.sha)
    return sum(1 for shas in digests.values() if len(shas) > 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="item order (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one cheap item (used by selfcheck.py)")
    args = parser.parse_args(argv)

    latlab = _import_latlab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    jobs = workloads.jobs_of(args.workload)
    meta = _metadata(args, jobs)
    items = workloads.corpus(args.workload, args.seed, args.quick)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        + ("-quick" if args.quick else ""))
    tracer = None
    if args.trace:
        tracer = Tracer(os.path.join(RESULTS, f"spool-{os.getpid()}"))
    sampler = None if args.trace else calibrate.Sampler(
        os.path.join(RESULTS, f"samples-{os.getpid()}"))
    try:
        if sampler:
            sampler.start()
        passes = measure(items, reference, args.seconds, latlab, workloads, tracer)
    finally:
        if sampler:
            sampler.stop()
        if tracer is not None:
            shutil.rmtree(tracer.spool_dir, ignore_errors=True)

    attempted = sum(len(p.items) for p in passes)
    failures = [(t.key, t.failure) for p in passes for t in p.items if t.failure]
    failed = len(failures) + _consistency_failures(passes)
    plain = [p for p in passes if not p.traced]
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}  # measured seconds, not scaled; printed, not gated
    if args.trace:
        traced = [p for p in passes if p.traced]
        for name in traced[0].layers:
            samples[name] = [p.layers[name] for p in traced]
        untraced_wall = statistics.median(p.wall for p in plain)
        traced_wall = statistics.median(p.wall for p in traced)
        samples["trace.wall_s"] = [p.wall for p in traced]
        samples["trace.untraced_wall_s"] = [p.wall for p in plain]
        samples["trace.overhead_s"] = [traced_wall - untraced_wall]
        samples["trace.overhead_frac"] = [(traced_wall - untraced_wall) / untraced_wall]
        units = {name: _unit(name) for name in samples}
    else:
        for t in (t for p in passes for t in p.items):
            t.scale(sampler)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # probes start after the peak RSS is read, so they do not count in it
        probes = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        samples = {
            "wall_ref_s": [p.wall_ref for p in plain],
            "cpu_ref_s": [p.cpu_ref for p in plain],
            "item_max_ref_s": [p.item_max_ref for p in plain],
            "peak_rss_mb": [(own + kids) / 1024],  # ru_maxrss is in KiB on Linux
            "setup_s": [ref for _, ref in probes],
        }
        raw = {
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "item_max_s": [max(t.seconds for t in p.items) for p in plain],
            "setup_raw_s": [seconds for seconds, _ in probes],
            "chunk_cpu_s": [cpu for _, _, cpu, _ in sampler.samples],
        }
        units = E2E_UNITS
    meta["git_commit"] = _git_commit()  # a child process, so only after the peak RSS
    metrics = {name: {"value": statistics.median(vals), "unit": units[name]}
               for name, vals in samples.items()}
    fail_frac = failed / attempted

    result = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "failures": failures[:50],
        "metrics": {name: dict(metrics[name], samples=samples[name]) for name in metrics},
        "raw": raw,
        "speed_samples": sampler.samples if sampler else [],  # (start, wall, CPU, pid)
        "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                    "wall_ref_s": p.wall_ref, "cpu_ref_s": p.cpu_ref,
                    "items": [{"key": t.key, "start": t.start, "seconds": t.seconds,
                               "cpu_s": t.cpu,
                               "ref_seconds": t.ref_seconds, "ref_cpu_s": t.ref_cpu,
                               "sha256": t.sha, "failure": t.failure}
                              for t in p.items]} for p in passes],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for number, p in enumerate(passes):
                for span in p.spans or ():
                    fh.write(json.dumps([number, *span]) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']} "
              f"(median of {len(samples[name])})")
    for name, vals in raw.items():
        print(f"{args.workload} {name} {statistics.median(vals):.6g} s "
              f"(measured, not scaled; median of {len(vals)})")
    print(f"{args.workload} fail_frac {fail_frac:.6g} fraction ({failed} of {attempted} items)")
    if args.trace:
        for kind, subset in (("untraced", plain), ("traced", traced)):
            bad = sum(1 for p in subset for t in p.items if t.failure)
            print(f"{args.workload} fail_frac {kind} passes: {bad} of "
                  f"{sum(len(p.items) for p in subset)} items")
    for key, reason in failures[:10]:
        print(f"{args.workload} FAILED {key}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
