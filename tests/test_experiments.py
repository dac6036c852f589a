import csv
import io
import math
from fractions import Fraction

import pytest

from controlsets import (
    ChainConfig,
    InputError,
    complete,
    degree_heuristic,
    emit_outputs,
    erdos_renyi,
    majority_game,
    ring,
    run_search,
)
from controlsets import experiments
from controlsets.experiments import (
    CSV_COLUMNS,
    ExperimentSpec,
    best_of_restarts,
    edge_probability,
    rows_to_csv,
    run_experiment,
    run_row,
)


def strip_runtime(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [row[:-1] for row in rows]


class TestDegreeHeuristic:
    def test_full_seed_covers_everything(self):
        g = complete(6)
        _, cov = degree_heuristic(majority_game(g), g, 6)
        assert cov == 1

    def test_complete_graph_half(self):
        g = complete(8)
        chosen, cov = degree_heuristic(majority_game(g), g, 4)
        assert chosen == frozenset({0, 1, 2, 3})  # ties break to low index
        assert cov == 1

    def test_k_bounds(self):
        g = complete(4)
        with pytest.raises(InputError):
            degree_heuristic(majority_game(g), g, 0)

    def test_graph_of_another_size_is_refused(self):
        with pytest.raises(InputError, match="^graph has 8 nodes but the game has 5 players$"):
            degree_heuristic(majority_game(ring(5)), ring(8), 6)
        with pytest.raises(InputError, match="^graph has 4 nodes but the game has 6 players$"):
            degree_heuristic(majority_game(complete(6)), complete(4), 2)


class TestEdgeProbability:
    def test_dense_constant(self):
        assert edge_probability("dense", 50) == 0.4

    def test_sparse_uses_natural_log(self):
        assert edge_probability("sparse", 50) == 4 * math.log(50) / 50

    def test_sparse_capped_at_one(self):
        assert edge_probability("sparse", 3) == 1.0

    def test_unknown_family(self):
        with pytest.raises(InputError, match=r"^unknown family 'scale_free'; choose from \('dense', 'sparse'\)$"):
            edge_probability("scale_free", 10)


class TestRows:
    def test_row_reproducible_except_runtime(self):
        spec = ExperimentSpec(family="dense", n_values=(9,), trials=1, restarts=3, master_seed="rep")
        a = run_row(spec, 9, 0)
        b = run_row(spec, 9, 0)
        assert (a.chain_size, a.oracle_size, a.coverage, a.chain_set) == (
            b.chain_size,
            b.oracle_size,
            b.coverage,
            b.chain_set,
        )

    def test_best_of_restarts_keeps_earliest_smallest(self):
        game = majority_game(erdos_renyi(12, 0.4, "restarts"))
        runs = [
            run_search(game, ChainConfig(epsilon=Fraction(1, 2), steps=60, seed=f"s/r{k}"))
            for k in range(6)
        ]
        sizes = [r.best_size for r in runs]
        expected = runs[sizes.index(min(sizes))]
        best = best_of_restarts(game, Fraction(1, 2), 60, "s", 6)
        assert (best.seed, best.best_profile) == (expected.seed, expected.best_profile)
        with pytest.raises(InputError, match="restarts"):
            best_of_restarts(game, Fraction(1, 2), 60, "s", 0)

    def test_rows_unchanged_by_one_point_trace(self):
        # run_row asks its walks for a one-point trace; every row must equal
        # the walks that keep the default trace, and the sets pinned here.
        spec = ExperimentSpec(family="sparse", n_values=(12, 20), trials=2, restarts=2, master_seed=7)
        rows = run_experiment(spec)
        pinned = [
            ({3, 6, 7, 9}, 4), ({2, 4, 7, 10}, 4), ({1, 2, 14, 16, 19}, None),
            ({1, 2, 5, 7, 11, 17}, None),
        ]
        assert [(set(r.chain_set), r.oracle_size) for r in rows] == pinned
        for row in rows:
            game = majority_game(erdos_renyi(row.n, row.p, row.graph_seed))
            args = (game, spec.epsilon, 100 * row.n**2, row.graph_seed, spec.restarts)
            full = best_of_restarts(*args)
            short = best_of_restarts(*args, trace_points=1)
            trace = full.cardinality_trace
            assert len(trace) > 7_000 and trace[-1][0] == 100 * row.n**2
            assert short.cardinality_trace == (trace[0], trace[-1])
            assert (short.best_profile, short.best_step) == (full.best_profile, full.best_step)
            assert row.chain_set == full.best_profile.players

    def test_chain_never_beats_oracle(self):
        spec = ExperimentSpec(family="dense", n_values=(8, 10), trials=2, restarts=2, master_seed=5)
        for row in run_experiment(spec):
            assert not row.skipped
            assert row.chain_size >= row.oracle_size

    def test_skipped_row_is_marked(self, monkeypatch):
        monkeypatch.setattr(experiments, "SEED_ADVANCE_LIMIT", 1)
        spec = ExperimentSpec(family="dense", n_values=(2,), trials=1, restarts=1, master_seed="skip1")
        row = run_row(spec, 2, 0)
        assert row.skipped
        assert row.chain_size is None

    def test_oracle_cutoff_respected(self):
        spec = ExperimentSpec(
            family="dense", n_values=(8,), trials=1, restarts=1,
            master_seed=1, oracle_cutoff=0,
        )
        row = run_experiment(spec)[0]
        assert row.oracle_size is None
        assert row.chain_size >= 1

    def test_worker_pool_matches_sequential(self):
        spec = ExperimentSpec(family="dense", n_values=(8,), trials=2, restarts=1, master_seed="w")
        seq = run_experiment(spec, workers=1)
        par = run_experiment(spec, workers=2)
        field = lambda rows: [(r.n, r.trial, r.chain_size, r.oracle_size, r.coverage) for r in rows]
        assert field(seq) == field(par)


class TestCsvOutputs:
    def test_column_order(self):
        spec = ExperimentSpec(family="dense", n_values=(8,), trials=1, restarts=1, master_seed=2)
        text = rows_to_csv(run_experiment(spec))
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_single_row_gives_two_lines(self):
        spec = ExperimentSpec(family="dense", n_values=(8,), trials=1, restarts=1, master_seed=2)
        text = rows_to_csv(run_experiment(spec))
        assert len(text.strip().splitlines()) == 2

    def test_deterministic_modulo_runtime(self):
        spec = ExperimentSpec(family="dense", n_values=(8, 9), trials=2, restarts=2, master_seed="csv")
        a = rows_to_csv(run_experiment(spec))
        b = rows_to_csv(run_experiment(spec))
        assert strip_runtime(a) == strip_runtime(b)

    def test_skipped_rows_emit_empty_metrics(self, monkeypatch):
        monkeypatch.setattr(experiments, "SEED_ADVANCE_LIMIT", 1)
        spec = ExperimentSpec(family="dense", n_values=(2,), trials=1, restarts=1, master_seed="skip1")
        text = rows_to_csv(run_experiment(spec, workers=1))
        rec = next(csv.DictReader(io.StringIO(text)))
        assert rec["chain_size"] == ""
        assert rec["coverage"] == ""
        assert rec["n"] == "2"

    def test_emit_outputs_writes_csv_and_plot_script(self, tmp_path):
        spec = ExperimentSpec(family="dense", n_values=(8,), trials=1, restarts=1, master_seed=3)
        rows = run_experiment(spec)
        csv_path, plot_path = emit_outputs(rows, str(tmp_path))
        with open(csv_path) as fh:
            assert fh.readline().strip() == ",".join(CSV_COLUMNS)
        with open(plot_path) as fh:
            script = fh.read()
        assert "results.csv" in script
        assert "controlsets" not in script  # consumes only the CSV

    def test_empty_rows_rejected(self):
        with pytest.raises(InputError):
            rows_to_csv([])


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InputError):
            ExperimentSpec(family="scale_free", n_values=(8,))

    def test_empty_n_values(self):
        with pytest.raises(InputError):
            ExperimentSpec(family="dense", n_values=())
