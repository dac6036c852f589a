import csv
import io
import os

import pytest

from controlsets import cli, complete, erdos_renyi, grid, parse_game, parse_graph, path, ring, tree
from controlsets.cli import main
from controlsets.experiments import best_of_restarts

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
    @pytest.mark.parametrize(
        "args, graph",
        [
            (["complete", "5"], complete(5)),
            (["ring", "6"], ring(6)),
            (["path", "4"], path(4)),
            (["grid", "3", "--d", "2"], grid(3, 2)),
            (["tree", "--parents=-1,0,0,1,1"], tree([-1, 0, 0, 1, 1])),
            (["er", "12", "--p", "0.4", "--seed", "3"], erdos_renyi(12, 0.4, "3")),
        ],
        ids=["complete", "ring", "path", "grid", "tree", "er"],
    )
    def test_each_family_matches_its_builder(self, capsys, args, graph):
        code, out, _ = run_cli(capsys, "generate", *args)
        assert code == 0
        assert parse_graph(out) == graph

    @pytest.mark.parametrize(
        "args, message",
        [
            (["grid", "3"], "grid needs --d (dimension)"),
            (["er", "5"], "er needs --p (edge probability)"),
            (["tree"], "tree needs --parents, e.g. --parents -1,0,0,1"),
        ],
        ids=["grid", "er", "tree"],
    )
    def test_missing_option_exits_one(self, capsys, args, message):
        code, out, err = run_cli(capsys, "generate", *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, _ = run_cli(capsys, "verify", str(path), "--set", "0", "--format", "csv")
        assert code == 0
        assert out == "sufficient,witness\nyes,1 2 3\n"

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

    def test_result_unchanged_by_emit_trace(self, capsys, tmp_path, monkeypatch):
        # Without --emit-trace the walks keep a one-point trace, which must
        # not move the best set, its step or the sufficiency verdict.
        _, text, _ = run_cli(capsys, "generate", "ring", "12", "--as-game")
        path = tmp_path / "ring12.game"
        path.write_text(text)
        points = []

        def spy(*args):
            points.append(args[-1])
            return best_of_restarts(*args)

        monkeypatch.setattr(cli, "best_of_restarts", spy)
        args = ("search", str(path), "--seed", "3", "--restarts", "3", "--steps", "5000")
        for fmt in ("plain", "csv"):
            plain = run_cli(capsys, *args, "--format", fmt)
            traced = run_cli(
                capsys, *args, "--format", fmt, "--emit-trace", str(tmp_path / "t.csv")
            )
            assert plain == traced
            assert plain[0] == 0
        assert points == [1, 10_000, 1, 10_000]

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

    def test_negative_steps_exit_one(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        code, out, err = run_cli(capsys, "search", str(path), "--steps", "-5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--steps" in err
        assert err.count("\n") == 1

    def test_zero_steps_means_default_budget(self, capsys, tmp_path):
        path = tmp_path / "ring.game"
        path.write_text(RING_GAME)
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "search", str(path), "--steps", "0", "--emit-trace", str(trace)
        )
        assert code == 0
        # 100 * n^2 = 1600 steps for n = 4.
        assert trace.read_text().splitlines()[-1].startswith("1600,")


class TestCsvFormat:
    """Every ``--format csv`` output parses with ``csv.reader`` into rows as
    wide as the header, with a set of several players in one field."""

    @staticmethod
    def parse(text: str) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(text)))
        assert all(len(row) == len(rows[0]) for row in rows)
        return rows

    @pytest.fixture
    def k7(self, capsys, tmp_path):
        path = tmp_path / "k7.game"
        path.write_text(run_cli(capsys, "generate", "complete", "7", "--as-game")[1])
        return str(path)

    def test_oracle(self, capsys, k7):
        code, out, _ = run_cli(capsys, "oracle", k7, "--format", "csv")
        assert code == 0
        [header, [size, sets]] = self.parse(out)
        assert header == ["min_size", "sets"] and size == "3"
        assert len({frozenset(s.split(",")) for s in sets.split(";")}) == 35

    def test_oracle_indeterminate_row_is_empty(self, capsys, k7):
        code, out, _ = run_cli(capsys, "oracle", k7, "--budget", "1", "--format", "csv")
        assert code == 0
        assert self.parse(out) == [["min_size", "sets"], ["", ""]]

    def test_search_and_trace(self, capsys, k7, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "search", k7, "--format", "csv", "--emit-trace", str(trace))
        assert code == 0
        [header, [size, _, sufficient, players]] = self.parse(out)
        assert header == ["best_size", "best_step", "sufficient", "set"]
        assert size == "3" and sufficient == "yes" and len(players.split(",")) == 3
        assert self.parse(trace.read_text())[0] == ["step", "cardinality"]

    def test_verify(self, capsys, k7):
        code, out, _ = run_cli(capsys, "verify", k7, "--set", "0,1,2", "--format", "csv")
        assert code == 0
        assert self.parse(out) == [["sufficient", "witness"], ["yes", "3 4 5 6"]]

    def test_analytic(self, capsys, tmp_path):
        path = tmp_path / "thetas.txt"
        path.write_text("1\n1\n1\n1/2\n0.9\n")
        code, out, _ = run_cli(capsys, "analytic", str(path), "--format", "csv")
        assert code == 0
        assert self.parse(out) == [["min_size", "set"], ["3", "2,3,4"]]

    def test_table_game_row_unquoted(self, capsys, tmp_path):
        path = tmp_path / "table.game"
        path.write_text("game table\nplayers 3\n" + "".join(f"delta {i} -2 0 0 2\n" for i in range(3)))
        code, out, _ = run_cli(capsys, "oracle", str(path), "--format", "csv")
        assert code == 0
        assert out == "min_size,sets\n1,0;1;2\n"


# Fixture files of the golden test: the 4-ring majority game, K4 majority,
# the 4-ring with threshold 0 (the empty set suffices), threshold lists, and
# the two 3-CNF files of the CI smokes: all eight sign patterns over three
# variables (unsatisfiable, so the exact search decides) and a satisfiable
# formula over four variables.
GOLDEN_FILES = {
    "ring.game": RING_GAME,
    "k4.game": "game coordination\nplayers 4\ngraph 4 6 undirected\n"
    "0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n",
    "zero.game": RING_GAME + "".join(f"theta {i} 0\n" for i in range(4)),
    "mixed.txt": "1\n0.9\n# noise\n\n1/2\n1\n",
    "zeros.txt": "0\n0\n",
    "unsat8.cnf": "p cnf 3 8\n"
    + "".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)),
    "sat4.cnf": "p cnf 4 3\n1 -2 3 0\n-1 2 -4 0\n2 3 4 0\n",
}

GOLDEN = [
    ("verify ring.game --set 0", "sufficient: yes\nwitness: 1 2 3\nfinal-size: 4/4\n"),
    ("verify ring.game --set none", "sufficient: no\nwitness: -\nfinal-size: 0/4\n"),
    ("verify ring.game --set 0 --format csv", "sufficient,witness\nyes,1 2 3\n"),
    ("verify k4.game --set 2 --format csv", "sufficient,witness\nno,\n"),
    (
        "oracle k4.game",
        "minimum: 2\noptimal-sets: 6\n  0,1\n  0,2\n  0,3\n  1,2\n  1,3\n  2,3\n",
    ),
    ("oracle k4.game --format csv", 'min_size,sets\n2,"0,1;0,2;0,3;1,2;1,3;2,3"\n'),
    ("oracle k4.game --budget 1", "minimum: none within budget 1\n"),
    ("oracle k4.game --budget 1 --format csv", "min_size,sets\n,\n"),
    ("oracle zero.game", "minimum: 0\noptimal-sets: 1\n  (empty)\n"),
    ("oracle zero.game --format csv", "min_size,sets\n0,\n"),
    (
        "search k4.game --steps 300 --seed 7",
        "best-size: 2\nbest-set: 1,2\nbest-step: 2\nsufficient: yes\n",
    ),
    (
        "search k4.game --steps 300 --seed 7 --format csv",
        'best_size,best_step,sufficient,set\n2,2,yes,"1,2"\n',
    ),
    (
        "search zero.game --steps 50 --seed 1",
        "best-size: 0\nbest-set: (empty)\nbest-step: 10\nsufficient: yes\n",
    ),
    ("search zero.game --steps 50 --seed 1 --format csv", "best_size,best_step,sufficient,set\n0,10,yes,\n"),
    ("analytic mixed.txt", "minimum: 2\nset: 2,3\nthresholds-sorted: 1/2 9/10 1 1\n"),
    ("analytic mixed.txt --format csv", 'min_size,set\n2,"2,3"\n'),
    ("analytic zeros.txt", "minimum: 0\nset: (empty)\nthresholds-sorted: 0 0\n"),
    ("analytic zeros.txt --format csv", "min_size,set\n0,\n"),
    (
        "verify-reduction unsat8.cnf",
        "variables: 3\nclauses: 8\ntarget-size: 4\ngadget-nodes: 48 (expected ok: True)\n"
        "gadget-edges: 68\ndegree-profile-ok: True\nsatisfiable: no\n"
        "control-set-within-target: no\nagreement: yes\n",
    ),
    (
        "verify-reduction sat4.cnf",
        "variables: 4\nclauses: 3\ntarget-size: 5\ngadget-nodes: 25 (expected ok: True)\n"
        "gadget-edges: 29\ndegree-profile-ok: True\nsatisfiable: yes\n"
        "control-set-within-target: yes\nroundtrip-ok: True\nagreement: yes\n",
    ),
]


class TestGoldenOutput:
    """The exact stdout of the report commands, plain and CSV, on fixed
    files: found, indeterminate and empty answers alike."""

    @pytest.mark.parametrize("command, expected", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_stdout(self, capsys, tmp_path, command, expected):
        for name, text in GOLDEN_FILES.items():
            (tmp_path / name).write_text(text)
        sub, name, *rest = command.split()
        code, out, err = run_cli(capsys, sub, str(tmp_path / name), *rest)
        assert (code, out, err) == (0, expected, "")


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

    def test_reduce_sat_refuses_a_huge_header(self, capsys, tmp_path):
        cnf = tmp_path / "huge.cnf"
        cnf.write_text("p cnf 1000000000 1\n1 2 3 0\n")
        code, out, err = run_cli(
            capsys, "reduce-sat", str(cnf), "--out-graph", os.devnull, "--out-labels", os.devnull
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "nodes" in err

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

    def test_negative_steps_exit_one(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "experiment", "--n", "8", "--trials", "1", "--restarts", "1",
            "--steps", "-5", "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--steps" in err
        assert not (tmp_path / "results.csv").exists()

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


class TestUsageErrors:
    """A usage error is bad input: one ``error:`` line and exit code 1,
    never 2, which means an internal check failed."""

    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["oracle", "k5.game", "--budget", "abc"], "--budget: invalid int value: 'abc'"),
            (["search", "k5.game", "--steps", "1.5"], "--steps: invalid int value: '1.5'"),
            (["experiment", "--n", "8", "--steps", "x"], "--steps: invalid int value: 'x'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["verify", "k5.game", "--format", "xml"], "invalid choice: 'xml'"),
            (["generate", "moebius", "5"], "invalid choice: 'moebius'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_exit_one_with_error_line(self, capsys, args, fragment):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and fragment in out.err
        assert out.err.count("\n") == 1 and "usage:" not in out.err

    @pytest.mark.parametrize("args", [["--help"], ["oracle", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: controlsets")
