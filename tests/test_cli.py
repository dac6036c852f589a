import os

import pytest

from controlsets import parse_game, parse_graph
from controlsets.cli import main

RING_GAME = """\
game coordination
players 4
graph 4 4 undirected
0 1 1
1 2 1
2 3 1
0 3 1
"""


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_complete_graph_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "complete", "5")
        assert code == 0
        assert parse_graph(out).n == 5

    def test_er_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "generate", "er", "10", "--p", "0.4", "--seed", "1")
        code2, out2, _ = run_cli(capsys, "generate", "er", "10", "--p", "0.4", "--seed", "1")
        assert code == code2 == 0
        assert out1 == out2

    def test_as_game(self, capsys, tmp_path):
        out_file = tmp_path / "g.game"
        code, _, _ = run_cli(
            capsys, "generate", "ring", "5", "--as-game", "--theta", "1/2", "--out", str(out_file)
        )
        assert code == 0
        game = parse_game(out_file.read_text())
        assert game.n == 5

    def test_bad_parameters_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "generate", "complete", "1")
        assert code == 1
        assert "error" in err

    def test_bad_tree_parents_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "generate", "tree", "--parents=-1,x")
        assert code == 1
        assert "error: bad --parents" in err

    def test_sink_draw_reports_seed(self, capsys):
        code, _, err = run_cli(capsys, "generate", "er", "2", "--p", "0.01", "--seed", "0")
        assert code == 1
        assert "seed" in err


class TestVerify:
    def test_sufficient_seed(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "verify", str(path), "--set", "0")
        assert code == 0
        assert "sufficient: yes" in out
        assert "witness: 1 2 3" in out

    def test_empty_seed(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "verify", str(path), "--set", "")
        assert code == 0
        assert "sufficient: no" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-such.game", "--set", "0")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "text",
        [
            "game coordination\nplayers 50000000\ngraph 50000000 0 undirected\n",
            "game table\nplayers 1000000\n",
        ],
        ids=["coordination", "table"],
    )
    def test_hostile_size_one_short_error(self, capsys, tmp_path, text):
        path = tmp_path / "huge.game"
        path.write_text(text)
        code, _, err = run_cli(capsys, "verify", str(path), "--set", "0")
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and len(err) < 300


class TestOracle:
    def test_ring(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "oracle", str(path))
        assert code == 0
        assert "minimum: 1" in out

    def test_table_without_increasing_differences_exit_one(self, capsys, tmp_path):
        path = tmp_path / "table.game"
        path.write_text("game table\nplayers 3\n" + "".join(f"delta {i} 0 1 -1 0\n" for i in range(3)))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "increasing differences" in err

    def test_budget_indeterminate(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "oracle", str(path), "--budget", "0")
        assert code == 0
        assert "none within budget" in out


class TestSearch:
    def test_search_with_trace(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "search", str(path), "--seed", "1", "--emit-trace", str(trace)
        )
        assert code == 0
        assert "best-size: 1" in out
        assert "sufficient: yes" in out
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,cardinality"
        assert lines[1].startswith("0,")

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "search", str(path), "--seed", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "best_size,best_step,sufficient,set"

    def test_zero_restarts_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, err = run_cli(capsys, "search", str(path), "--restarts", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "restarts" in err
        assert err.count("\n") == 1


class TestAnalytic:
    def test_thresholds_file(self, capsys, tmp_path):
        path = tmp_path / "thetas.txt"
        path.write_text("0.1\n0.3\n1/2\n0.7\n0.9\n")
        code, out, _ = run_cli(capsys, "analytic", str(path))
        assert code == 0
        assert "minimum: 1" in out
        assert "set: 4" in out

    def test_bad_value_reports_line(self, capsys, tmp_path):
        path = tmp_path / "thetas.txt"
        path.write_text("0.1\nnope\n")
        code, _, err = run_cli(capsys, "analytic", str(path))
        assert code == 1
        assert "line 2" in err


class TestReduction:
    CNF = "p cnf 3 1\n1 -2 3 0\n"

    def test_reduce_sat_outputs(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(self.CNF)
        gpath = tmp_path / "gadget.graph"
        lpath = tmp_path / "labels.txt"
        code, out, _ = run_cli(
            capsys, "reduce-sat", str(cnf), "--out-graph", str(gpath), "--out-labels", str(lpath)
        )
        assert code == 0
        g = parse_graph(gpath.read_text())
        assert g.n == 13
        assert lpath.read_text().splitlines()[0] == "0 clause1"

    def test_verify_reduction(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(self.CNF)
        code, out, _ = run_cli(capsys, "verify-reduction", str(cnf))
        assert code == 0
        assert "agreement: yes" in out

    def test_malformed_cnf_exit_one(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        code, _, err = run_cli(capsys, "verify-reduction", str(cnf))
        assert code == 1


class TestExperiment:
    def test_small_sweep(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--family", "dense",
            "--n", "8",
            "--trials", "1",
            "--restarts", "1",
            "--seed", "cli",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "plot_results.py").exists()
        assert "wrote" in out

    def test_bad_n_list_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--n", "4,x", "--out-dir", str(tmp_path))
        assert code == 1
        assert "error: bad --n" in err

    @pytest.mark.parametrize("workers", ["abc", "0", "-2"])
    def test_bad_worker_count_exit_one(self, capsys, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("CONTROLSETS_WORKERS", workers)
        code, _, err = run_cli(
            capsys, "experiment", "--n", "4", "--trials", "1", "--restarts", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "error:" in err and "worker" in err.lower()
        assert not (tmp_path / "results.csv").exists()
