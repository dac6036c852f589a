"""Command-line front end.

Subcommands: generate, verify, oracle, search, analytic, reduce-sat,
verify-reduction, experiment.  Exit codes: 0 success, 1 validation error
(usage errors included), 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from ._ratio import format_rational, parse_rational
from .chain import ChainConfig
from .complete_graph import ThresholdDistribution, analytic_min_size
from .errors import InputError, InternalCheckError
from .experiments import ExperimentSpec, best_of_restarts, emit_outputs, run_experiment
from .gamefile import format_game, parse_game
from .graph import _text_lines, complete, erdos_renyi, format_graph, grid, path, ring, tree
from .coordination import from_thresholds
from .sat_reduction import build_gadget, format_labels, parse_cnf, verify_reduction
from .scs import cascade, is_sufficient, optimal_oracle


def _read(path_arg: str) -> str:
    if path_arg == "-":
        return sys.stdin.read()
    try:
        with open(path_arg) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path_arg!r}: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out!r}: {exc}") from None


def _write_csv(header: list[str], rows, out: str | None = None) -> None:
    """Write CSV quoted by the csv module, each row ending in LF
    (``experiments.rows_to_csv`` keeps the module's CRLF)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _write_out(buf.getvalue(), out)


def _parse_ints(spec: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"bad {what} {spec!r}; expected comma-separated integers") from None


def _parse_set(spec: str) -> frozenset[int]:
    spec = spec.strip()
    if spec == "none":
        return frozenset()
    return frozenset(_parse_ints(spec, "player set"))


def _steps(value: int) -> int | None:
    """The ``--steps`` value: 0 means the default 100*n^2 (None)."""
    if value < 0:
        raise InputError(f"--steps must be >= 0 (0 means 100*n^2), got {value}")
    return value or None


def _fmt_set(players) -> str:
    return ",".join(str(p) for p in sorted(players))


# CLI family -> (its builder called on the parsed arguments, and the option
# it needs with the message when that is missing).
_GENERATORS = {
    "complete": (lambda a: complete(a.n), None),
    "ring": (lambda a: ring(a.n), None),
    "path": (lambda a: path(a.n), None),
    "grid": (lambda a: grid(a.n, a.d), ("d", "grid needs --d (dimension)")),
    "tree": (
        lambda a: tree(_parse_ints(a.parents, "--parents")),
        ("parents", "tree needs --parents, e.g. --parents -1,0,0,1"),
    ),
    "er": (lambda a: erdos_renyi(a.n, a.p, a.seed), ("p", "er needs --p (edge probability)")),
}


def cmd_generate(args) -> int:
    build, needs = _GENERATORS[args.family]
    if needs and getattr(args, needs[0]) in (None, ""):
        raise InputError(needs[1])
    g = build(args)
    if args.as_game:
        theta = parse_rational(args.theta)
        game = from_thresholds(g, [theta] * g.n)
        _write_out(format_game(game), args.out)
    else:
        _write_out(format_graph(g), args.out)
    return 0


def _report(args, lines: list[str], header: list[str], row: list) -> None:
    """Print the plain ``lines``, or with ``--format csv`` the ``header``
    and the one ``row``."""
    if args.format == "csv":
        _write_csv(header, [row])
    else:
        print("\n".join(lines))


def cmd_verify(args) -> int:
    game = parse_game(_read(args.game))
    result = cascade(game, _parse_set(args.set))
    sufficient = "yes" if result.sufficient else "no"
    witness = " ".join(str(i) for i in result.witness)
    size = f"{len(result.final_set)}/{game.n}"
    lines = [f"sufficient: {sufficient}", f"witness: {witness or '-'}", f"final-size: {size}"]
    _report(args, lines, ["sufficient", "witness"], [sufficient, witness])
    return 0


def cmd_oracle(args) -> int:
    game = parse_game(_read(args.game))
    result = optimal_oracle(game, budget=args.budget)
    sets = [_fmt_set(s) for s in result.optimal_sets]
    lines = [f"minimum: none within budget {result.budget}"]
    if result.found:
        lines = [f"minimum: {result.min_size}", f"optimal-sets: {len(sets)}", *(f"  {s or '(empty)'}" for s in sets)]
    # No set within the budget: min_size None and sets "" write an empty row.
    _report(args, lines, ["min_size", "sets"], [result.min_size, ";".join(sets)])
    return 0


def cmd_search(args) -> int:
    steps = _steps(args.steps)
    game = parse_game(_read(args.game))
    epsilon = parse_rational(args.epsilon)
    # Only --emit-trace reads the cardinality trace.
    trace_points = ChainConfig.trace_points if args.emit_trace else 1
    best = best_of_restarts(game, epsilon, steps, args.seed, args.restarts, trace_points)
    players = _fmt_set(best.best_profile.players)
    sufficient = "yes" if is_sufficient(game, best.best_profile) else "no"
    if args.emit_trace:
        _write_csv(["step", "cardinality"], best.cardinality_trace, args.emit_trace)
    size, step = best.best_size, best.best_step
    lines = [f"best-size: {size}", f"best-set: {players or '(empty)'}", f"best-step: {step}", f"sufficient: {sufficient}"]
    _report(args, lines, ["best_size", "best_step", "sufficient", "set"], [size, step, sufficient, players])
    return 0


def cmd_analytic(args) -> int:
    values = []
    for no, line in _text_lines(_read(args.thresholds)):
        try:
            values.append(parse_rational(line))
        except InputError as exc:
            raise InputError(f"line {no}: {exc}") from None
    dist = ThresholdDistribution(tuple(values))
    m, chosen = analytic_min_size(dist)
    chosen = _fmt_set(chosen)
    thetas = " ".join(format_rational(t) for t in dist.thetas)
    lines = [f"minimum: {m}", f"set: {chosen or '(empty)'}", f"thresholds-sorted: {thetas}"]
    _report(args, lines, ["min_size", "set"], [m, chosen])
    return 0


def cmd_reduce_sat(args) -> int:
    cnf = parse_cnf(_read(args.cnf))
    gadget = build_gadget(cnf)
    _write_out(format_graph(gadget.graph), args.out_graph)
    _write_out(format_labels(gadget), args.out_labels)
    if args.out_graph:
        print(f"gadget: {gadget.graph.n} nodes, target control-set size {cnf.target_size}")
    return 0


def cmd_verify_reduction(args) -> int:
    cnf = parse_cnf(_read(args.cnf))
    report = verify_reduction(cnf)
    print(f"variables: {cnf.num_vars}")
    print(f"clauses: {cnf.num_clauses}")
    print(f"target-size: {report.target_size}")
    print(f"gadget-nodes: {report.node_count} (expected ok: {report.sizes_ok})")
    print(f"gadget-edges: {report.edge_count}")
    print(f"degree-profile-ok: {report.degrees_ok}")
    print(f"satisfiable: {'yes' if report.satisfiable else 'no'}")
    print(f"control-set-within-target: {'yes' if report.control_within_target else 'no'}")
    if report.roundtrip_ok is not None:
        print(f"roundtrip-ok: {report.roundtrip_ok}")
    print(f"agreement: {'yes' if report.agree else 'NO'}")
    if not (report.agree and report.sizes_ok and report.degrees_ok):
        raise InternalCheckError("reduction validation failed; see report above")
    return 0


def cmd_experiment(args) -> int:
    n_values = tuple(_parse_ints(args.n, "--n"))
    spec = ExperimentSpec(
        family=args.family,
        n_values=n_values,
        trials=args.trials,
        epsilon=parse_rational(args.epsilon),
        steps=_steps(args.steps),
        restarts=args.restarts,
        oracle_cutoff=args.oracle_cutoff,
        master_seed=args.seed,
    )
    rows = run_experiment(spec)
    out_dir = args.out_dir or "."
    csv_path, plot_path = emit_outputs(rows, out_dir)
    done = [r for r in rows if not r.skipped]
    skipped = len(rows) - len(done)
    print(f"rows: {len(rows)} ({skipped} skipped)")
    for r in rows:
        if r.skipped:
            print(f"  n={r.n} trial={r.trial}: skipped (no valid graph draw)")
        else:
            oracle = "-" if r.oracle_size is None else str(r.oracle_size)
            print(
                f"  n={r.n} trial={r.trial}: chain={r.chain_size} oracle={oracle} "
                f"coverage={float(r.coverage):.3f} ({r.runtime_ms} ms)"
            )
    print(f"wrote {csv_path}")
    print(f"wrote {plot_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad input, as for subparsers: exit 1
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="controlsets",
        description="Minimum sufficient control sets in binary supermodular games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph (or homogeneous game) file")
    p.add_argument("family", choices=list(_GENERATORS))
    p.add_argument("n", type=int, nargs="?", default=0, help="node count (grid: side length)")
    p.add_argument("--d", type=int, default=None, help="grid dimension")
    p.add_argument("--p", type=float, default=None, help="edge probability for er")
    p.add_argument("--parents", default="", help="tree parent list, root as -1")
    p.add_argument("--seed", default="0")
    p.add_argument("--as-game", action="store_true", help="wrap in a homogeneous game file")
    p.add_argument("--theta", default="1/2", help="threshold used with --as-game")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="cascade a seed set on a game file")
    p.add_argument("game")
    p.add_argument("--set", required=True, help="comma-separated player indices ('' or 'none' for empty)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive minimum control set")
    p.add_argument("game")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("search", help="randomized reversible-walk search")
    p.add_argument("game")
    p.add_argument("--epsilon", default="3/10")
    p.add_argument("--steps", type=int, default=0, help="0 means 100*n^2")
    p.add_argument("--seed", default="0")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--emit-trace", default=None, help="write step,cardinality CSV here")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("analytic", help="closed-form optimum on the complete graph")
    p.add_argument("thresholds", help="file with one rational threshold per line")
    p.set_defaults(fn=cmd_analytic)

    p = sub.add_parser("reduce-sat", help="build the gadget graph for a DIMACS 3-CNF")
    p.add_argument("cnf")
    p.add_argument("--out-graph", default=None)
    p.add_argument("--out-labels", default=None)
    p.set_defaults(fn=cmd_reduce_sat)

    p = sub.add_parser("verify-reduction", help="validate the reduction on one instance")
    p.add_argument("cnf")
    p.set_defaults(fn=cmd_verify_reduction)

    p = sub.add_parser("experiment", help="random-graph sweep with CSV output")
    p.add_argument("--family", choices=["dense", "sparse"], default="dense")
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--epsilon", default="3/10")
    p.add_argument("--steps", type=int, default=0, help="0 means 100*n^2")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--oracle-cutoff", type=int, default=16)
    p.add_argument("--seed", default="0")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_experiment)

    for name in ("verify", "oracle", "search", "analytic"):  # the commands that print through _report
        sub.choices[name].add_argument("--format", choices=["plain", "csv"], default="plain")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
