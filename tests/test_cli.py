import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plausilearn
from plausilearn import logic
from plausilearn.cli import run


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "coin.json"
    code = run(
        [
            "grid",
            "--alphabet",
            "H,T",
            "--resolution",
            "10",
            "--plausibility",
            "entropy",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGrid:
    def test_writes_model_file(self, model_path):
        payload = json.loads(model_path.read_text())
        assert payload["alphabet"] == ["H", "T"]
        assert len(payload["worlds"]) == 11
        assert payload["plausibility"] == "entropy"
        assert payload["worlds"][0] == [[0, 1], [1, 1]]

    def test_stdout_when_no_output(self, capsys):
        assert run(["grid", "--alphabet", "H,T", "--resolution", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["worlds"]) == 3

    def test_condition_recorded(self, tmp_path):
        path = tmp_path / "m.json"
        code = run(
            [
                "grid",
                "--alphabet",
                "H,T",
                "--resolution",
                "4",
                "--condition",
                "H H T",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        assert json.loads(path.read_text())["conditioned_on"] == [2, 1]

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["grid", "--alphabet", "R,B,G", "--resolution", "3"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCheck:
    def test_valid_formula_exit_zero(self, model_path, capsys):
        code = run(
            ["check", "--model", str(model_path), "--formula", "w(H) >= 0"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True
        assert out["verdicts"] == [True] * 11

    def test_invalid_formula_exit_one(self, model_path, capsys):
        code = run(
            ["check", "--model", str(model_path), "--formula", "w(H) >= 1/2"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["valid"] is False
        assert sum(out["verdicts"]) == 6

    def test_belief_formula(self, model_path, capsys):
        code = run(
            [
                "check",
                "--model",
                str(model_path),
                "--formula",
                "B (w(H) = 1/2)",
            ]
        )
        assert code == 0

    def test_table_format(self, model_path, capsys):
        code = run(
            [
                "check",
                "--model",
                str(model_path),
                "--formula",
                "T",
                "--format",
                "table",
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "valid\tTrue"
        assert len(lines) == 12

    def test_count_past_int64(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "alphabet": ["H", "T"], "grid_resolution": 4,
            "conditioned_on": [2**70, 1],
        }))
        code = run(["check", "--model", str(path), "--formula", "B (w(H) = 3/4)"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_weight_whose_float_underflows(self, tmp_path, capsys):
        # 10**-400 is positive, but 0.0 as a float: its log is taken from
        # the integers, as log(1) - log(10**400).
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "alphabet": ["H", "T"],
            "worlds": [[[1, 10**400], [10**400 - 1, 10**400]]],
        }))
        assert run(["check", "--model", str(path), "--formula", "T"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == [True]

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_flat_chain_of_10000_atoms(self, model_path, op, capsys):
        formula = f" {op} ".join(["T"] * 10_000)
        assert run(["check", "--model", str(model_path), "--formula", formula]) == 0
        assert json.loads(capsys.readouterr().out)["formula"] == formula

    def test_600_negations(self, model_path, capsys):
        formula = "~" * 600 + "T"
        assert run(["check", "--model", str(model_path), "--formula", formula]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == [True] * 11

    def check_json(self, model_path, formula, capsys):
        code = run(["check", "--model", str(model_path), "--formula", formula])
        return code, json.loads(capsys.readouterr().out)

    def test_989_arrow_chain(self, model_path, capsys):
        # "->" nests to the right, so the chain prints with 988 nested pairs
        # of parentheses, which parse again.
        code, out = self.check_json(model_path, "T -> " * 989 + "T", capsys)
        assert code == 0 and out["verdicts"] == [True] * 11
        assert out["formula"] == "~T | (" * 988 + "~T | T" + ")" * 988
        assert self.check_json(model_path, out["formula"], capsys) == (code, out)

    def test_printed_200_arrow_chain_checks_again(self, model_path, capsys):
        # The "formula" that check prints is a text that check accepts.
        code, out = self.check_json(model_path, "T -> " * 200 + "T", capsys)
        assert code == 0 and out["verdicts"] == [True] * 11
        again = self.check_json(model_path, out["formula"], capsys)
        assert again == (code, out)

    def test_1000_parentheses(self, model_path, capsys):
        code, out = self.check_json(model_path, "(" * 1000 + "T" + ")" * 1000, capsys)
        assert code == 0
        assert out == {"formula": "T", "verdicts": [True] * 11, "valid": True}

    def test_bad_formula_exit_two(self, model_path, capsys):
        code = run(
            ["check", "--model", str(model_path), "--formula", "w(H) >="]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["H", "T"\n')
        code = run(["check", "--model", str(bad), "--formula", "T"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = run(
            ["check", "--model", str(tmp_path / "nope.json"), "--formula", "T"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "formula, json_digest, table_digest",
        [
            # 165 of 231 worlds: an announcement, then sampling, then belief.
            ("[w(R) >= 1/2] [R,R] B (w(R) >= 4/5)",
             "3c9e809fdf527e9b", "d80b4b42d622f16c"),
            # 55: nested announcements, belief given observations, knowledge.
            ("[B(w(R) >= 1/3 | G,G)] [w(R) <= 1/2] ([R] K (w(B) >= 1/4))",
             "a27dbe026e9d6e79", "cbecffc2056e1cb6"),
            # 55: belief given a formula after sampling inside an announcement,
            # and knowledge of an announcement.
            ("[w(B) <= 1/2] ([G] B(w(G) >= 1/4 | w(R) >= 1/4) "
             "-> K [w(R) >= 1/5] B (w(R) <= 1/2))",
             "1806c787b4d2ba54", "bc5380b2d1b5566d"),
        ],
        ids=["announce_observe", "nested", "knowledge_of_update"],
    )
    def test_pinned_output(self, tmp_path, formula, json_digest, table_digest, capsys):
        # A conditioned N=20 urn grid: its evidence is the root of every
        # sampling update, and its verdicts are mixed.
        path = tmp_path / "urn.json"
        assert run(["grid", "--alphabet", "R,B,G", "--resolution", "20",
                    "--condition", "R R B G R", "-o", str(path)]) == 0
        capsys.readouterr()
        for fmt, digest in [("json", json_digest), ("table", table_digest)]:
            assert run(["check", "--model", str(path), "--formula", formula,
                        "--format", fmt]) == 1
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, fmt


class TestAxioms:
    def test_clean_suite_exit_zero(self, capsys):
        code = run(["axioms", "--trials", "5", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"] is True

    def test_mutated_suite_exit_one(self, capsys):
        code = run(
            ["axioms", "--trials", "5", "--seed", "3", "--skip-relativization"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["counterexamples"]

    def test_mutated_suite_same_under_every_hash_seed(self):
        # The mutant's output once depended on the hash seed, through caches
        # keyed on id() of models that could die; the checker's states are
        # keyed on their domain and evidence, and must stay so.
        src = str(Path(plausilearn.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("0", "1", "6", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", "from plausilearn.cli import main; main()",
                 "axioms", "--trials", "25", "--seed", "42",
                 "--skip-relativization"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 1, done.stderr
            assert json.loads(done.stdout)["counterexamples"]
            outputs.add(done.stdout)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "extra, code, digest",
        [
            (["--trials", "25", "--seed", "42", "--skip-relativization"], 1,
             "4ea19bde7a7f44e1"),
            (["--trials", "25", "--seed", "42"], 0, "53f2c7d7b310bfbf"),
            (["--trials", "10", "--seed", "0", "--depth", "3"], 0, "8fb736a8e8a79a3b"),
        ],
        ids=["mutated", "clean", "depth_3"],
    )
    def test_pinned_output(self, extra, code, digest, capsys):
        # The whole report, so that a change in the order of the suite's
        # random draws shows.
        assert run(["axioms"] + extra) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_byte_identical_reruns(self, capsys):
        argv = ["axioms", "--trials", "5", "--seed", "9"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first


class TestSimulate:
    def test_summary_json(self, model_path, capsys):
        code = run(
            [
                "simulate",
                "--model",
                str(model_path),
                "--truth",
                "7/10,3/10",
                "--horizon",
                "400",
                "--trials",
                "10",
                "--seed",
                "1",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["trials"] == 10
        assert out["settle_fraction"] == 1.0
        assert out["settle_time_median"] <= out["settle_time_max"]

    def test_trace_csv(self, model_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = run(
            [
                "simulate",
                "--model",
                str(model_path),
                "--truth",
                "1/2,1/2",
                "--horizon",
                "200",
                "--trials",
                "4",
                "--seed",
                "2",
                "--baseline",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "baseline" in out
        with trace.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "settled", "settle_time", "baseline_settle_time"]
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "grid, extra, stdout_digest, csv_digest",
        [
            # The README command.
            (["H,T", "10"], ["--truth", "7/10,3/10", "--eps", "0.08", "--horizon",
             "2000", "--trials", "100", "--seed", "7", "--baseline"],
             "79b5ce3d37f6758b", "6a275f928ce474aa"),
            (["R,B,G", "30"], ["--truth", "1/2,3/10,1/5", "--eps", "0.15",
             "--horizon", "2000", "--trials", "10", "--seed", "3"],
             "ab7ac0b6df7a95ca", "76f5b0b123fa24f4"),
            # The baseline on the benchmark's grid: blocks of few rows and
            # many worlds, where the coin grid has many rows and few worlds.
            (["R,B,G", "30"], ["--truth", "1/2,3/10,1/5", "--eps", "0.15",
             "--horizon", "2000", "--trials", "10", "--seed", "3", "--baseline"],
             "ff447efe665ac9a4", "15b4535bf9fb59e1"),
            # Isolation mode: no --eps.
            (["R,B,G", "12"], ["--truth", "1/2,1/4,1/4", "--horizon", "3000",
             "--trials", "10", "--seed", "5"],
             "673b8b63de26d204", "fc488078bd96831f"),
        ],
        ids=["readme_coin", "urn_30", "urn_30_baseline", "isolation"],
    )
    def test_pinned_output(
        self, tmp_path, grid, extra, stdout_digest, csv_digest, capsys
    ):
        alphabet, resolution = grid
        path, trace = tmp_path / "m.json", tmp_path / "trace.csv"
        assert run(["grid", "--alphabet", alphabet, "--resolution", resolution,
                    "--plausibility", "entropy", "-o", str(path)]) == 0
        capsys.readouterr()
        assert run(["simulate", "--model", str(path), "--trace", str(trace)]
                   + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == stdout_digest
        assert hashlib.sha256(trace.read_bytes()).hexdigest()[:16] == csv_digest

    def test_truth_not_world_exit_two(self, model_path, capsys):
        code = run(
            [
                "simulate",
                "--model",
                str(model_path),
                "--truth",
                "1/3,2/3",
                "--horizon",
                "10",
            ]
        )
        assert code == 2

    def test_conditioned_model_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        argv = ["grid", "--alphabet", "H,T", "--resolution", "10"]
        assert run(argv + ["--condition", "H H H", "-o", str(path)]) == 0
        code = run(
            ["simulate", "--model", str(path), "--truth", "7/10,3/10",
             "--horizon", "10"]
        )
        assert code == 2
        assert "conditioned_on" in capsys.readouterr().err

    def test_bad_truth_vector_exit_two(self, model_path, capsys):
        code = run(
            [
                "simulate",
                "--model",
                str(model_path),
                "--truth",
                "banana",
                "--horizon",
                "10",
            ]
        )
        assert code == 2

    def test_uses_the_file_plausibility(self, tmp_path, capsys):
        path = tmp_path / "com.json"
        argv = ["grid", "--alphabet", "H,T", "--resolution", "10"]
        assert run(argv + ["--plausibility", "centre_of_mass", "-o", str(path)]) == 0
        capsys.readouterr()
        assert run(["simulate", "--model", str(path), "--truth", "7/10,3/10",
                    "--horizon", "50", "--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        coin = plausilearn.make_alphabet(["H", "T"])
        truth = plausilearn.mass_function(coin, ["7/10", "3/10"])

        def summary(fn):
            cfg = plausilearn.TrialConfig(
                worlds=tuple(plausilearn.simplex_grid(coin, 10)), plausibility=fn,
                truth=truth, horizon=50, seed=1,
            )
            result = plausilearn.run_experiment(cfg, 10, 1).to_dict()
            return json.dumps(result, sort_keys=True, indent=1) + "\n"

        assert out == summary(plausilearn.CENTRE_OF_MASS)
        assert out != summary(plausilearn.ENTROPY)


class TestBadNumbers:
    """Out-of-range numeric options and other bad input exit 2 with a
    one-line message."""

    def assert_usage_error(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_simulate_eps_zero(self, model_path, capsys):
        self.assert_usage_error(
            ["simulate", "--model", str(model_path), "--truth", "7/10,3/10",
             "--horizon", "10", "--eps", "0"],
            capsys,
        )

    def test_simulate_negative_seed(self, model_path, capsys):
        err = self.assert_usage_error(
            ["simulate", "--model", str(model_path), "--truth", "7/10,3/10",
             "--horizon", "10", "--seed", "-1"],
            capsys,
        )
        assert "--seed" in err

    def test_simulate_trials_zero(self, model_path, capsys):
        self.assert_usage_error(
            ["simulate", "--model", str(model_path), "--truth", "7/10,3/10",
             "--horizon", "10", "--trials", "0"],
            capsys,
        )

    def test_grid_resolution_zero(self, capsys):
        self.assert_usage_error(
            ["grid", "--alphabet", "H,T", "--resolution", "0"], capsys
        )

    def test_axioms_trials_zero(self, capsys):
        self.assert_usage_error(["axioms", "--trials", "0"], capsys)

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_simulate_horizon_below_one(self, model_path, horizon, capsys):
        err = self.assert_usage_error(
            ["simulate", "--model", str(model_path), "--truth", "7/10,3/10",
             "--horizon", horizon],
            capsys,
        )
        assert "--horizon" in err

    def test_axioms_negative_depth(self, capsys):
        err = self.assert_usage_error(["axioms", "--depth", "-4"], capsys)
        assert "--depth" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--alphabet", "H"],
            ["--alphabet", "H,H"],
            ["--alphabet", "H,T", "--condition", "H X"],
            ["--alphabet", "H,T", "-o", "/nonexistent/x.json"],
        ],
        ids=["one_outcome", "duplicate_outcome", "unknown_condition", "bad_output"],
    )
    def test_grid_bad_input(self, extra, capsys):
        self.assert_usage_error(["grid", "--resolution", "2"] + extra, capsys)

    def test_simulate_unwritable_trace(self, model_path, capsys):
        self.assert_usage_error(
            ["simulate", "--model", str(model_path), "--truth", "7/10,3/10",
             "--horizon", "10", "--trials", "1", "--trace", "/nonexistent/t.csv"],
            capsys,
        )

    def test_check_zero_denominator(self, model_path, capsys):
        err = self.assert_usage_error(
            ["check", "--model", str(model_path), "--formula", "w(H) >= 1/0"],
            capsys,
        )
        assert "bad formula" in err

    def test_axioms_depth_nests_too_deeply(self, capsys):
        err = self.assert_usage_error(
            ["axioms", "--trials", "2", "--depth", "400"], capsys
        )
        assert "--depth" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"worlds": [[1, 0], [0, 1]]},
            {"worlds": [[[1, 0], [1, 1]]]},
            {"grid_resolution": 2},
            {"alphabet": "HT"},
            {"plausability": "centre_of_mass"},
            {"worlds": [[[True, 2], [1, 2]]]},
        ],
        ids=["bare_numbers", "zero_denominator", "worlds_and_grid_resolution",
             "string_alphabet", "unknown_key", "bool_numerator"],
    )
    def test_bad_model_file(self, model_path, change, capsys):
        model_path.write_text(json.dumps(json.loads(model_path.read_text()) | change))
        err = self.assert_usage_error(
            ["check", "--model", str(model_path), "--formula", "T"], capsys
        )
        assert str(model_path) in err

    @pytest.mark.parametrize(
        "world, entry",
        [([[1, 2, 3]], "[1, 2, 3]"), ([1, 2], "has 1,"), ("ab", "'ab'")],
        ids=["triple", "bare_numbers", "string"],
    )
    def test_bad_world_names_its_entry(self, model_path, world, entry, capsys):
        payload = json.loads(model_path.read_text())
        payload["worlds"] = [[[1, 2], [1, 2]], world]
        model_path.write_text(json.dumps(payload))
        err = self.assert_usage_error(
            ["check", "--model", str(model_path), "--formula", "T"], capsys
        )
        assert "world 1" in err and entry in err
        assert "_ratio" not in err and "argument" not in err

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_resolution": 2.9},
            {"grid_resolution": True},
            {"conditioned_on": [1.8, 0.5]},
            {"plausibility": {"table": {"0": 1.0, "1": 1.0, "2": 1.0, "7": 1.0}}},
            {"plausibility": {"table": {"0": 1.0, "1": 2.0, "01": 5.0, "2": True}}},
            {"plausibility": {"table": {"0": 1.0, "1": "2", "2": 1.0}}},
            {"plausibility": {"table": {"0": float("inf"), "1": 1, "2": 1}}},
            {"conditioned_on": [10**400, 0]},
        ],
        ids=["fractional_resolution", "bool_resolution", "fractional_counts",
             "table_key_beyond_worlds", "table_key_with_leading_zero",
             "table_string_value", "table_infinite_value", "counts_past_float"],
    )
    def test_misread_model_numbers(self, tmp_path, change, capsys):
        path = tmp_path / "grid.json"
        payload = {"alphabet": ["H", "T"], "grid_resolution": 2} | change
        path.write_text(json.dumps(payload))
        err = self.assert_usage_error(
            ["check", "--model", str(path), "--formula", "T"], capsys
        )
        assert str(path) in err

    def test_model_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        err = self.assert_usage_error(
            ["check", "--model", str(path), "--formula", "T"], capsys
        )
        assert str(path) in err

    def test_model_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        err = self.assert_usage_error(
            ["check", "--model", str(path), "--formula", "T"], capsys
        )
        assert str(path) in err


def test_import_leaves_scipy_out():
    src = str(Path(plausilearn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, plausilearn, plausilearn.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestUsage:
    def test_no_command_exit_two(self, capsys):
        assert run([]) == 2

    def test_unknown_command_exit_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exit_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "Formula syntax" in capsys.readouterr().out

    def test_help_grammar_is_the_logic_docstring(self, capsys):
        linsum = next(
            line.strip()
            for line in logic.__doc__.splitlines()
            if line.strip().startswith("linsum")
        )
        assert run(["--help"]) == 0
        assert linsum in capsys.readouterr().out
