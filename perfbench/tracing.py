"""Spans and counters around the library's public functions.

The tracer rebinds each traced name in every ``controlsets`` module that
holds it (``closure_mask`` is bound in ``scs``, ``experiments`` and
``sat_reduction``), so calls made inside the library are seen too.  Nothing
under ``src/`` is edited, and the original objects are put back on leaving
:func:`spans` or :func:`counting`.

Spans are kept in memory as parallel arrays and written out once, at exit.
A span's self time is its duration minus the durations of its direct
children.

``delta_sign`` is called millions of times per second, so wrapping it with
spans would swamp the self times of everything above it.  It is counted in a
separate pass instead (:func:`counting`), which also takes the
chain's stride-1 cardinality trace to count moves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import sys
import time
from array import array

# Traced public functions, by defining module.
LAYERS = {
    "scs": ("closure_mask", "optimal_oracle", "find_sufficient_within", "cohesiveness_crosscheck"),
    "chain": ("run_search", "transition_matrix", "stationary_distribution"),
    "graph": ("erdos_renyi", "uniformly_at_most_cohesive"),
    "experiments": ("run_row", "degree_heuristic"),
    "sat_reduction": ("build_gadget", "verify_reduction", "normalize_control_set"),
}

# Layers that must record calls on each workload; zero calls means the
# workload no longer exercises what it was chosen for.
EXPECTED = {
    "sweep": ("experiments.run_row", "experiments.degree_heuristic", "chain.run_search",
              "graph.erdos_renyi", "scs.closure_mask"),
    "oracle": ("scs.optimal_oracle", "scs.closure_mask", "scs.cohesiveness_crosscheck",
               "graph.uniformly_at_most_cohesive", "graph.erdos_renyi"),
    "reduction": ("sat_reduction.verify_reduction", "sat_reduction.build_gadget",
                  "sat_reduction.normalize_control_set", "scs.find_sufficient_within",
                  "scs.closure_mask"),
    "stationary": ("chain.transition_matrix", "chain.stationary_distribution"),
}


class TraceSetupError(RuntimeError):
    """A traced name is missing, or a layer went silent on its workload."""


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "controlsets" or name.startswith("controlsets."))]


def rebind(replacements: dict) -> list:
    """Rebind every module-level name bound to a key of ``replacements``
    (compared by identity) to its value.  Returns the undo list."""
    undo = []
    for mod in _library_modules():
        for attr, value in list(vars(mod).items()):
            for original, wrapper in replacements.items():
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


def restore(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def _lookup(modname: str, fname: str):
    mod = sys.modules.get(f"controlsets.{modname}")
    fn = getattr(mod, fname, None) if mod is not None else None
    if fn is None:
        raise TraceSetupError(f"controlsets.{modname}.{fname} is missing; the tracer cannot wrap it")
    return fn


class Tracer:
    """In-memory span recorder with per-function extra counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.enabled = True
        self.errors: dict[str, int] = {}
        self.extra: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def wrap(self, qualname: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[qualname] = tracer.errors.get(qualname, 0) + 1
                raise
            finally:
                tracer.finish(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self nanoseconds; per-root-kind self
        time by name; closures inside ``find_sufficient_within``."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        root = [0] * count
        fsw = self._ids.get("scs.find_sufficient_within", -2)
        under_fsw = [False] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                under_fsw[i] = under_fsw[p] or self.name[p] == fsw
            else:
                root[i] = i
        per_name = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        per_root: dict[str, dict] = {}
        closure = self._ids.get("scs.closure_mask", -2)
        fsw_closures = 0
        for i in range(count):
            name = self.names[self.name[i]]
            rec = per_name[name]
            rec["calls"] += 1
            rec["total_ns"] += dur[i]
            own = dur[i] - child[i]
            rec["self_ns"] += own
            kind = self.names[self.name[root[i]]]
            bucket = per_root.setdefault(kind, {})
            bucket[name] = bucket.get(name, 0) + own
            if self.name[i] == closure and under_fsw[i]:
                fsw_closures += 1
        shares = {}
        for kind, bucket in per_root.items():
            total = per_name[kind]["total_ns"]
            shares[kind] = {n: ns / total for n, ns in sorted(bucket.items(), key=lambda kv: -kv[1]) if total}
        return {"per_name": per_name, "shares": shares, "fsw_closures": fsw_closures}

    def dump(self, path: str, header: dict) -> None:
        """Write every span (name id, parent index, start and end in ns from
        the first span) plus ``header`` as gzipped JSON."""
        t0 = self.start[0] if len(self.start) else 0
        doc = dict(header)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _on_closure(tracer, args, result):
    if result == (1 << args[0].n) - 1:
        tracer.add("closure_full", 1)


def _on_oracle(tracer, args, result):
    tracer.add("sets_checked", result.checked)


def _on_run_search(tracer, args, result):
    tracer.add("chain_steps", result.steps)
    tracer.add("chain_best_step", result.best_step)


def _on_matrix(tracer, args, result):
    tracer.add("chain_states", result.size)


HOOKS = {
    "scs.closure_mask": _on_closure,
    "scs.optimal_oracle": _on_oracle,
    "chain.run_search": _on_run_search,
    "chain.transition_matrix": _on_matrix,
}


@contextlib.contextmanager
def spans(tracer: Tracer):
    """Wrap every function in :data:`LAYERS` with spans for the duration."""
    replacements = {}
    for modname, fnames in LAYERS.items():
        for fname in fnames:
            qual = f"{modname}.{fname}"
            fn = _lookup(modname, fname)
            replacements[fn] = tracer.wrap(qual, fn, HOOKS.get(qual))
    undo = rebind(replacements)
    try:
        yield
    finally:
        restore(undo)


class Counters:
    """Counts from the counting pass; nothing is counted while ``enabled``
    is False (the benchmark's own answer checks)."""

    def __init__(self):
        self.enabled = True
        self.signs = 0
        self.closures = 0
        self.closure_signs = 0
        self.steps = 0
        self.moves = 0


@contextlib.contextmanager
def counting(counters: Counters):
    """For the duration, count ``delta_sign`` calls on every game built through
    ``majority_game`` (an instance attribute shadows the method), the calls
    made inside ``closure_mask``, and chain moves from a stride-1
    cardinality trace: every move changes the cardinality by exactly one."""
    majority_game = _lookup("coordination", "majority_game")
    closure_mask = _lookup("scs", "closure_mask")
    run_search = _lookup("chain", "run_search")

    def counted_game(graph):
        game = majority_game(graph)
        method = game.delta_sign

        def delta_sign(i, mask):
            if counters.enabled:
                counters.signs += 1
            return method(i, mask)

        game.delta_sign = delta_sign
        return game

    def counted_closure(game, mask):
        if not counters.enabled:
            return closure_mask(game, mask)
        before = counters.signs
        result = closure_mask(game, mask)
        counters.closures += 1
        counters.closure_signs += counters.signs - before
        return result

    def counted_search(game, config):
        if not counters.enabled:
            return run_search(game, config)
        steps = config.steps if config.steps is not None else 100 * game.n * game.n
        run = run_search(game, dataclasses.replace(config, trace_points=steps))
        cards = [c for _, c in run.cardinality_trace]
        counters.steps += run.steps
        counters.moves += sum(1 for a, b in zip(cards, cards[1:]) if a != b)
        # Only the move count needs the stride-1 trace; drop it early.
        return dataclasses.replace(run, cardinality_trace=run.cardinality_trace[:1])

    undo = rebind({majority_game: counted_game, closure_mask: counted_closure, run_search: counted_search})
    try:
        yield
    finally:
        restore(undo)


def check_expected(workload: str, per_name: dict) -> None:
    silent = [n for n in EXPECTED[workload] if per_name.get(n, {}).get("calls", 0) == 0]
    if silent:
        raise TraceSetupError(f"{workload}: no calls recorded into {', '.join(silent)}")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, tracer: Tracer, counters: Counters, overhead: float) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    per = summary["per_name"]

    def calls(n):
        return per.get(n, {}).get("calls", 0)

    def self_s(n):
        return per.get(n, {}).get("self_ns", 0) / 1e9

    x = tracer.extra
    steps = x.get("chain_steps", 0)
    run_search_s = per.get("chain.run_search", {}).get("total_ns", 0) / 1e9
    er_calls = calls("graph.erdos_renyi")
    return {
        "coordination.delta_sign.calls": (counters.signs, "count"),
        "scs.closure_mask.calls": (calls("scs.closure_mask"), "count"),
        "scs.closure_mask.self_s": (self_s("scs.closure_mask"), "s"),
        "scs.closure_mask.signs_per_call": (_ratio(counters.closure_signs, counters.closures), "count"),
        "scs.closure_mask.full_ratio": (_ratio(x.get("closure_full", 0), calls("scs.closure_mask")), "ratio"),
        "scs.optimal_oracle.self_s": (self_s("scs.optimal_oracle"), "s"),
        "scs.optimal_oracle.sets_checked": (x.get("sets_checked", 0), "count"),
        "scs.find_sufficient_within.self_s": (self_s("scs.find_sufficient_within"), "s"),
        "scs.find_sufficient_within.closures": (summary["fsw_closures"], "count"),
        "sat_reduction.build_gadget.calls": (calls("sat_reduction.build_gadget"), "count"),
        "sat_reduction.build_gadget.self_s": (self_s("sat_reduction.build_gadget"), "s"),
        "sat_reduction.verify_reduction.self_s": (self_s("sat_reduction.verify_reduction"), "s"),
        "sat_reduction.normalize_control_set.self_s": (self_s("sat_reduction.normalize_control_set"), "s"),
        "chain.run_search.calls": (calls("chain.run_search"), "count"),
        "chain.run_search.self_s": (self_s("chain.run_search"), "s"),
        "chain.steps": (steps, "count"),
        "chain.steps_per_s": (_ratio(steps, run_search_s), "1/s"),
        "chain.move_ratio": (_ratio(counters.moves, counters.steps), "ratio"),
        "chain.best_step_ratio": (_ratio(x.get("chain_best_step", 0), steps), "ratio"),
        "chain.transition_matrix.self_s": (self_s("chain.transition_matrix"), "s"),
        "chain.stationary_distribution.self_s": (self_s("chain.stationary_distribution"), "s"),
        "chain.states": (x.get("chain_states", 0), "count"),
        "graph.uniformly_at_most_cohesive.calls": (calls("graph.uniformly_at_most_cohesive"), "count"),
        "graph.uniformly_at_most_cohesive.self_s": (self_s("graph.uniformly_at_most_cohesive"), "s"),
        "graph.erdos_renyi.self_s": (self_s("graph.erdos_renyi"), "s"),
        "graph.erdos_renyi.accept_ratio": (
            _ratio(er_calls - tracer.errors.get("graph.erdos_renyi", 0), er_calls), "ratio"),
        "experiments.run_row.self_s": (self_s("experiments.run_row"), "s"),
        "experiments.degree_heuristic.self_s": (self_s("experiments.degree_heuristic"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
