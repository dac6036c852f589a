#!/usr/bin/env python3
"""Seeded benchmark of the controlsets library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: ``sweep`` (run_experiment rows: the randomized search),
``oracle`` (all optimal sets plus cohesiveness cross-checks), ``reduction``
(verify_reduction on planted-satisfiable and unsatisfiable 3-CNF) and
``stationary`` (exact transition matrix and stationary law).

With ``--trace 0`` the run repeats rounds of items until ``--seconds`` have
passed, checks every answer, and prints the end-to-end metrics, with every
time scaled to one fixed host speed (see ``SpeedProbe``).  With
``--trace 1`` it runs a fixed number of rounds, each item untraced and with
spans around every public layer function, then once more with the counters
that spans would distort; it prints the per-layer metrics and writes the spans to
``.perfbench_out/``.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
SETUP_REPEATS = 21
# Times are reported at the host speed at which one call of
# ``reference_work`` takes REFERENCE_NS.  A SIGALRM timer samples that speed
# every SPEED_PERIOD_S seconds of wall time, and a time is scaled by the
# median sample taken within SPEED_WINDOW_S seconds of it.
REFERENCE_NS = 750_000
SPEED_PERIOD_S = 0.02
SPEED_WINDOW_S = 0.05


def reference_work() -> int:
    """A fixed mix of the interpreter work the library does, independent of
    the library itself: small-int arithmetic, bit masks, list and dict
    traffic, and Fraction arithmetic on growing numbers.  About 0.75 ms on
    a 2-core shared VM."""
    mask, table, seq, total = 0, {}, [], 0
    for i in range(1, 750):
        total += i * i % 7
        mask |= 1 << (i * 37 % 61)
        if mask.bit_count() > 50:
            mask = 0
        table[i * 7919 % 1009] = mask & 0xFFFF
        seq.append(i ^ (mask & 255))
    seq.sort()
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i * i + 1, 3 * i + 7)
    return total + len(table) + seq[-1] + (acc * acc).numerator % 7


class SpeedProbe:
    """Times ``reference_work`` from a SIGALRM handler while active.

    A shared host runs the same code up to 1.5 times slower or faster, in
    bursts of a fraction of a second and in phases of seconds to minutes,
    so the wall times of two runs differ by more than a code change does.
    ``scaled`` reports a time at one fixed host speed instead, from the
    samples taken during it.  The handler's own time is kept in
    ``spent_ns`` so that callers can take it out of what they time."""

    def __init__(self):
        self.ends: list[int] = []
        self.samples: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        reference_work()
        t1 = time.perf_counter_ns()
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        self.spent_ns += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start_ns: int, ns: float) -> float:
        """``ns`` measured from ``start_ns``, at the reference speed: scaled
        by REFERENCE_NS over the median sample ending within
        SPEED_WINDOW_S of that interval (or within a wider window, if
        none does)."""
        if not self.samples:
            raise RuntimeError("no host speed sample was taken")
        window = int(SPEED_WINDOW_S * 1e9)
        while True:
            lo = bisect.bisect_left(self.ends, start_ns - window)
            hi = bisect.bisect_right(self.ends, start_ns + ns + window)
            if hi > lo:
                return ns * REFERENCE_NS / statistics.median(self.samples[lo:hi])
            window *= 2


def load_library():
    """Import ``controlsets`` afresh from this checkout's ``src/``."""
    package_dir = os.path.join(SRC, "controlsets")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit(f"error: no controlsets sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "controlsets" or n.startswith("controlsets.")]:
        del sys.modules[name]
    cs = importlib.import_module("controlsets")
    if os.path.dirname(os.path.abspath(cs.__file__)) != package_dir:
        raise SystemExit(f"error: controlsets was imported from {cs.__file__}, not {package_dir}")
    return types.SimpleNamespace(
        cs=cs,
        experiments=importlib.import_module("controlsets.experiments"),
        graph=importlib.import_module("controlsets.graph"),
    )


def run_context() -> dict:
    """Python version, core count, commit (when the checkout is a git
    repository), and the size and digest of ``src/``.  Context only."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(fname.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


@dataclass
class Record:
    kind: str
    ns: int
    error: str | None
    size: int | None
    digest: Any
    start_ns: int = 0


def run_items(lib, workload, items, tracer=None, probe=None, speed=None) -> list[Record]:
    """Time each item's call, less the time ``speed`` spent in it; check its
    answer with ``probe`` paused."""
    records = []
    for item in items:
        spent = speed.spent_ns if speed else 0
        span = tracer.begin(f"item:{item.kind}") if tracer else None
        t0 = time.perf_counter_ns()
        try:
            answer, error = workload.run(lib, item), None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            ns = time.perf_counter_ns() - t0
            if tracer:
                tracer.finish(span)
        if speed:
            ns -= speed.spent_ns - spent
        size = digest = None
        if error is None:
            if probe:
                probe.enabled = False
            try:
                size, digest = workload.check(lib, item, answer)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if probe:
                    probe.enabled = True
        records.append(Record(item.kind, ns, error, size, digest, t0))
    return records


def pinned_mismatches(name: str, seed: int, records: list[Record]) -> None:
    """Fail the items whose digest differs from the one pinned for this seed."""
    with open(EXPECTED_PATH) as fh:
        pinned = json.load(fh).get(name, {}).get(str(seed), [])
    for rec, want in zip(records, pinned):
        if rec.error is None and rec.digest != want:
            rec.error = f"answer {rec.digest} differs from the pinned {want}"


def report_failures(records: list[Record]) -> int:
    failed = [r for r in records if r.error]
    for r in failed[:5]:
        print(f"FAILED {r.kind}: {r.error}", file=sys.stderr)
    return len(failed)


def timed_run(lib, workload, seed: int, seconds: float, first_round, setup: list, speed: SpeedProbe) -> dict:
    deadline = time.perf_counter() + seconds
    batches: list[list[Record]] = []
    items = first_round
    while True:
        batches.append(run_items(lib, workload, items, speed=speed))
        if time.perf_counter() >= deadline:
            break
        items = workload.make_round(lib, seed, len(batches))
    records = [r for batch in batches for r in batch]
    pinned_mismatches(workload.name, seed, records)
    failed = report_failures(records)

    scaled_s = [[speed.scaled(r.start_ns, r.ns) / 1e9 for r in batch] for batch in batches]
    times_ms = [t * 1e3 for batch in scaled_s for t in batch]
    throughput = [len(batch) / sum(batch) for batch in scaled_s]
    setup_s = statistics.median(speed.scaled(t0, ns) for t0, ns in setup) / 1e9
    tail = statistics.quantiles(times_ms, n=100, method="inclusive")[workload.tail_pct - 1]
    beyond = sum(1 for t in times_ms if t > tail)
    sizes = [r.size for r in records if r.size is not None]
    metrics = {
        "items_per_s": (statistics.median(throughput), "1/s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
        "item_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "search_size_mean": (statistics.fmean(sizes) if sizes else 0.0, "count"),
    }
    notes = {
        "items_per_s": f"median over {len(batches)} rounds",
        "item_p50_ms": f"wall {statistics.median(r.ns for r in records) / 1e6:.4f}",
        "item_tail_ms": f"p{workload.tail_pct}, {beyond} of {len(records)} items beyond it",
        "setup_s": f"wall {statistics.median(ns for _, ns in setup) / 1e9:.4f}; median of {SETUP_REPEATS} imports plus round-0 generation",
    }
    print(f"workload {workload.name}  seed {seed}  rounds {len(batches)}  items {len(records)}")
    ref_ms = statistics.median(speed.samples) / 1e6
    print(f"  host speed: reference_work median {ref_ms:.4f} ms over {len(speed.samples)} samples;"
          f" times are at {REFERENCE_NS / 1e6:g} ms, scaled by {REFERENCE_NS / 1e6 / ref_ms:.4f} overall")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>14.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<18} {failed / len(records):>14.4f} {'ratio':<6} {failed} of {len(records)} items")
    return {"attempted": len(records), "failed": failed, "metrics": metrics}


def _generate(lib, workload, seed: int, r: int, tracer=None):
    """Round ``r``'s items and the nanoseconds spent making them."""
    span = tracer.begin("setup") if tracer else None
    t0 = time.perf_counter_ns()
    items = workload.make_round(lib, seed, r)
    ns = time.perf_counter_ns() - t0
    if tracer:
        tracer.finish(span)
    return ns, items


def traced_run(lib, workload, seed: int, context: dict) -> dict:
    """``trace_rounds`` rounds, each item run untraced and with spans back to
    back (alternating which goes first, so drift in machine speed cancels in
    ``trace.overhead_ratio``), then once more with the counters."""
    tracer = tracing.Tracer()
    plain: list[Record] = []
    traced: list[Record] = []
    plain_ns = traced_ns = 0
    for r in range(workload.trace_rounds):
        ns, items = _generate(lib, workload, seed, r)
        plain_ns += ns
        with tracing.spans(tracer):
            ns, twins = _generate(lib, workload, seed, r, tracer)
        traced_ns += ns
        for k, (item, twin) in enumerate(zip(items, twins)):
            for mode in ((0, 1) if k % 2 == 0 else (1, 0)):
                if mode:
                    with tracing.spans(tracer):
                        traced += run_items(lib, workload, [twin], tracer, tracer)
                    traced_ns += traced[-1].ns
                else:
                    plain += run_items(lib, workload, [item])
                    plain_ns += plain[-1].ns
    summary = tracer.summary()
    tracing.check_expected(workload.name, summary["per_name"])

    counters = tracing.Counters()
    counted: list[Record] = []
    with tracing.counting(counters):
        for r in range(workload.trace_rounds):
            counted += run_items(lib, workload, workload.make_round(lib, seed, r), probe=counters)

    pinned_mismatches(workload.name, seed, traced)
    for a, b, c in zip(plain, traced, counted):
        if not (a.error or b.error or c.error) and not a.digest == b.digest == c.digest:
            c.error = f"answers differ between passes: {a.digest}, {b.digest}, {c.digest}"
    failures = {i for recs in (plain, traced, counted) for i, r in enumerate(recs) if r.error}
    report_failures(plain + traced + counted)

    metrics = tracing.layer_metrics(summary, tracer, counters, traced_ns / plain_ns)
    print(f"workload {workload.name}  seed {seed}  traced rounds {workload.trace_rounds}  items {len(traced)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print("  share of item time by layer self time (top 4 per item class):")
    for kind, shares in sorted(summary["shares"].items()):
        top = ", ".join(f"{n} {s:.1%}" for n, s in list(shares.items())[:4])
        print(f"    {kind:<16} {top}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json.gz")
    tracer.dump(path, {
        "workload": workload.name,
        "seed": seed,
        "context": context,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "per_name": summary["per_name"],
        "shares": summary["shares"],
    })
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {"attempted": len(traced), "failed": len(failures), "metrics": metrics}


def set_up(workload, seed: int, speed: SpeedProbe | None = None):
    """``SETUP_REPEATS`` fresh imports of the library, each followed by
    generating round 0: the library, round 0, and the start and nanoseconds
    of each set-up, less the time ``speed`` spent in it."""
    times = []
    for _ in range(SETUP_REPEATS):
        spent = speed.spent_ns if speed else 0
        t0 = time.perf_counter_ns()
        lib = load_library()
        first_round = workload.make_round(lib, seed, 0)
        times.append((t0, time.perf_counter_ns() - t0 - ((speed.spent_ns - spent) if speed else 0)))
    return lib, first_round, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        lib, _, _ = set_up(workload, args.seed)
        context = run_context()
        print("context " + json.dumps(context, sort_keys=True))
        result = traced_run(lib, workload, args.seed, context)
    else:
        with SpeedProbe() as speed:
            lib, first_round, setup = set_up(workload, args.seed, speed)
            print("context " + json.dumps(run_context(), sort_keys=True))
            result = timed_run(lib, workload, args.seed, args.seconds, first_round, setup, speed)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
