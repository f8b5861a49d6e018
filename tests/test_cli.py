import gc
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from mseboot import cli, glm, load_fixture, parse_table
from mseboot.cli import EXIT_NO_MODEL, main
from mseboot.io import DataFormatError, dump_table, load_table


class TestIngestion:
    def test_aggregated_round_trip(self, tmp_path):
        table, names = load_fixture("korea")
        text = dump_table(table, names)
        again, names2 = parse_table(text)
        assert again == table and names2 == names

    def test_per_record_form(self):
        text = "X,Y\n1,0\n1,0\n1,1\n"
        table, names = parse_table(text)
        assert names == ["X", "Y"]
        assert table.counts == {0b01: 2, 0b11: 1}

    def test_all_zero_row_rejected(self):
        with pytest.raises(DataFormatError, match="all zeros"):
            parse_table("X,Y,count\n0,0,5\n")

    def test_duplicate_histories_summed_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            table, _ = parse_table("X,Y,count\n1,0,2\n1,0,3\n")
        assert table.counts == {0b01: 5}

    def test_list_count_checked_against_max_lists(self, monkeypatch):
        from mseboot import io

        header = ",".join(f"L{i}" for i in range(17)) + ",count\n"
        row = ",".join(["1"] * 17) + ",3\n"
        with pytest.raises(DataFormatError, match="need between 1 and 16 list columns, got 17"):
            parse_table(header + row)
        monkeypatch.setattr(io, "MAX_LISTS", 2)
        with pytest.raises(DataFormatError, match="need between 1 and 2 list columns, got 3"):
            parse_table("X,Y,Z,count\n1,0,1,4\n")

    def test_bad_flag_rejected(self):
        with pytest.raises(DataFormatError):
            parse_table("X,Y,count\n2,0,1\n")

    def test_fixtures_all_load(self):
        for name in ("korea", "table1_n1", "table1_n2", "table1_n3", "table1_n4"):
            table, _ = load_fixture(name)
            assert table.n_total > 0

    def test_korea_fixture_counts(self):
        table, names = load_fixture("korea")
        assert names == ["B", "C", "D"]
        assert table.n_total == 123
        assert table.count(0b111) == 12

    def test_lists_subset_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X,Y,Z,count\n1,0,1,4\n0,1,0,2\n")
        table, names = load_table(path, lists=["X", "Z"])
        assert names == ["X", "Z"]
        assert table.counts == {0b11: 4}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_enumerate_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "--max-order", "2")
        assert code == 0
        assert json.loads(out)["n_models"] == 8

    def test_enumerate_listing_uses_bracket_notation(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "3", "--max-order", "2", "--show-models"
        )
        models = json.loads(out)["models"]
        assert "[12,23]" in models and len(models) == 8

    def test_fit_best_korea(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "fixture:korea")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "[12,23]"
        assert abs(payload["population_estimate"] - 157.2) < 0.05
        assert payload["fr_failing_models"] == ["[12,13]", "[12,13,23]"]

    def test_fit_best_checks_each_model_once(self, capsys, monkeypatch):
        # the failing list and the BIC come from one check and fit per model
        from mseboot import ExistenceCache, enumerate_models

        checks = []
        check = ExistenceCache.check
        monkeypatch.setattr(ExistenceCache, "check", lambda self, model, table:
                            checks.append(model) or check(self, model, table))
        code, out, _ = run_cli(capsys, "fit", "--data", "fixture:table1_n4", "--model", "best")
        assert code == 0
        space = enumerate_models(4, 3)
        assert len(checks) == len(space) and set(checks) == set(space.models)
        golden = Path(__file__).parent / "data" / "golden" / "table1_n4_fit_best.json"
        assert out.encode("utf-8") == golden.read_bytes()

    def test_fit_fr_failing_model_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "fixture:korea", "--model", "[12,13]"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "fr_failed"
        assert payload["bic"] == "inf"
        assert payload["population_estimate"] is None

    def test_sample_size_moves_only_the_bic_penalty(self, capsys):
        # the one fit setting: the BIC's sample size is the 123 cases or
        # the 2^3 - 1 observable cells, and nothing else changes
        payloads = {}
        for size in ("capture", "case"):
            code, out, _ = run_cli(
                capsys, "fit", "--data", "fixture:korea", "--model", "[12,23]",
                "--sample-size", size,
            )
            assert code == 0
            payloads[size] = json.loads(out)
        case, capture = payloads["case"], payloads["capture"]
        for key in ("alpha", "mu", "population_estimate"):
            assert case[key] == capture[key], key
        # six parameters: the intercept, three main effects, 12 and 23
        assert case["bic"] - capture["bic"] == pytest.approx(
            6 * (math.log(123) - math.log(7)), rel=1e-12
        )
        assert case["bic"] == pytest.approx(57.1408, abs=1e-4)
        assert capture["bic"] == pytest.approx(39.9432, abs=1e-4)

    def test_fit_renders_minus_infinity(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "fixture:table1_n3", "--model", "[123,14]"
        )
        payload = json.loads(out)
        assert payload["alpha"]["14"] == "-inf"

    def test_lincoln_petersen_fixture(self, capsys, tmp_path):
        path = tmp_path / "lp.csv"
        path.write_text("L1,L2,count\n1,1,10\n1,0,20\n0,1,30\n")
        code, out, _ = run_cli(
            capsys, "fit", "--data", str(path), "--model", "[1,2]"
        )
        payload = json.loads(out)
        assert abs(payload["population_estimate"] - 120.0) < 1e-6

    def test_bootstrap_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bootstrap", "--data", "fixture:korea", "--ntop", "1",
            "--reps", "20", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        result = payload["result"]
        assert result["n_top"] == 1
        assert result["seed"] == 3
        assert set(result["intervals"]) == {"0.8", "0.95"}
        assert "z0_hat" in result and "a_hat" in result

    def test_bootstrap_seed_repetition_identical(self, capsys, tmp_path):
        args = [
            "bootstrap", "--data", "fixture:korea", "--reps", "20",
            "--seed", "4", "--ntop", "2",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_sweep_emits_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bootstrap", "--data", "fixture:korea", "--sweep",
            "--reps", "10", "--seed", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_top,estimate,level,lower,upper,excluded"
        # 8 restriction sizes x 2 levels, plus the header
        assert len(lines) == 17

    def test_diagnose_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "diagnose", "--data", "fixture:korea", "--reps", "10",
            "--seed", "6", "--ntop-grid", "1,2,8",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["containment"]) == {"1", "2", "8"}
        assert payload["containment"]["8"] == 10

    def test_missing_data_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/no/such/file.csv")
        assert code == 4
        assert json.loads(err)["error"] == 4

    @pytest.mark.parametrize("command", [
        ["fit"], ["bootstrap", "--reps", "5"], ["dump"],
    ])
    @pytest.mark.parametrize("data", ["directory", "not UTF-8"])
    def test_unreadable_data_exits_4(self, capsys, tmp_path, command, data):
        if data == "directory":
            path = tmp_path
        else:
            path = tmp_path / "d.csv"
            path.write_bytes("A,B,count\n1,0,3\n0,1,2\n1,1,1\n".encode("utf-16"))
        code, out, err = run_cli(capsys, *command, "--data", str(path))
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == 4 and str(path) in json.loads(err)["message"]

    @pytest.mark.parametrize("command", [
        ["fit"], ["bootstrap", "--reps", "5"], ["dump"],
    ])
    def test_out_into_a_missing_directory_exits_2(self, capsys, tmp_path, command):
        out_path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(
            capsys, *command, "--data", "fixture:korea", "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        error = json.loads(err.splitlines()[-1])
        assert error["error"] == 2 and str(out_path) in error["message"]
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("command", [
        ["enumerate", "3"],
        ["fit", "--data", "fixture:korea"],
        ["bootstrap", "--data", "fixture:korea", "--sweep"],
        ["diagnose", "--data", "fixture:korea"],
        ["dump", "--data", "fixture:korea"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_out_exits_2_before_any_work(
        self, capsys, tmp_path, monkeypatch, command, parent
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("data read or model fitted before --out was checked")

        monkeypatch.setattr(glm, "fit", refuse)
        monkeypatch.setattr(cli, "_load_data", refuse)
        monkeypatch.setattr(cli, "enumerate_models", refuse)
        if parent == "file":
            (tmp_path / "file").write_text("")
        out_path = tmp_path / parent / "out.txt"
        code, out, err = run_cli(capsys, *command, "--out", str(out_path))
        assert (code, out) == (2, "")
        reason = "Not a directory" if parent == "file" else "No such file or directory"
        assert json.loads(err) == {
            "error": 2, "message": f"cannot write --out {out_path}: {reason}",
        }

    def test_duplicate_list_names_exit_4(self, capsys, tmp_path):
        # two lists read from column A would record every case on both
        path = tmp_path / "d.csv"
        path.write_text("A,B,C,count\n1,0,0,3\n1,1,0,2\n0,1,1,4\n0,0,1,5\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--lists", "A,A", "--model", "best"
        )
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": 4, "message": "duplicate requested list name 'A'"
        }

    def test_duplicate_column_names_exit_4(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,A,C,count\n1,0,0,3\n1,1,0,2\n0,1,1,4\n0,0,1,5\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(path), "--model", "best")
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": 4, "message": "duplicate column name 'A'"}

    def test_bad_window_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bootstrap", "--data", "fixture:korea", "--method", "chisq",
            "--p-lo", "0.5", "--p-hi", "0.1", "--reps", "5",
        )
        assert code == 2

    def test_out_file_written(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "enumerate", "4", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n_models"] == 113

    def test_dump_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "dump", "--data", "fixture:korea")
        assert code == 0
        table, _ = parse_table(out)
        assert table == load_fixture("korea")[0]

    @pytest.mark.parametrize("option", [
        ["--format", "json"], ["--max-order", "1"], ["--sample-size", "capture"],
    ])
    def test_dump_refuses_options_it_would_ignore(self, capsys, option):
        # dump writes aggregated CSV from the data alone
        with pytest.raises(SystemExit) as exit:
            main(["dump", "--data", "fixture:korea", *option])
        assert exit.value.code == 2
        assert capsys.readouterr().out == ""

    def test_fit_csv_exits_2_before_any_fit(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        with pytest.raises(SystemExit) as exit:
            main(["fit", "--data", "fixture:korea", "--format", "csv"])
        assert exit.value.code == 2 and calls == []
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["--method", "downhill", "--sweep", "--ntop", "3"], "--ntop"),
        (["--method", "downhill", "--sweep"], "--sweep"),
        (["--method", "chisq", "--ntop", "2", "--sweep"], "--ntop"),
        (["--starts", "3"], "--starts"),
        (["--p-lo", "0.2", "--p-hi", "0.9"], "--p-lo"),
        (["--method", "degree2", "--p-hi", "0.9"], "--p-hi"),
    ])
    def test_bootstrap_refuses_options_its_method_ignores(
        self, capsys, monkeypatch, argv, option
    ):
        # refused before the data is loaded, naming the option
        loads = []
        monkeypatch.setattr(cli, "load_fixture", lambda *a: loads.append(a))
        code, out, err = run_cli(
            capsys, "bootstrap", "--data", "fixture:korea", *argv, "--reps", "5",
        )
        assert code == 2 and out == "" and loads == []
        method = argv[1] if argv[0] == "--method" else "bic"
        assert json.loads(err)["message"] == f"{option} is not used by --method {method}"

    @pytest.mark.parametrize("argv", [
        ["--ntop", "2", "--sweep", "--workers", "3"],
        ["--method", "degree2", "--ntop", "2"],
        ["--method", "downhill", "--starts", "1"],
        ["--method", "chisq", "--p-lo", "0.01", "--p-hi", "0.5"],
    ])
    def test_bootstrap_takes_the_options_its_method_reads(self, capsys, argv):
        code, out, _ = run_cli(
            capsys, "bootstrap", "--data", "fixture:korea", *argv, "--reps", "5",
        )
        assert code == 0 and json.loads(out)["result"]["B"] == 5

    def test_enumerate_too_many_lists_exits_2_within_budget(self):
        # the list count is checked before any mask is walked: 2^40 of
        # them would run for hours
        import mseboot

        env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "mseboot.cli", "enumerate", "40", "--max-order", "2"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - start < 5.0
        assert out.returncode == 2 and out.stdout == ""
        assert json.loads(out.stderr)["message"] == (
            "number of lists must be in 1..16, got 40"
        )

    @pytest.mark.parametrize("argv", [["16"], ["8", "--max-order", "2"]])
    def test_enumerate_too_large_a_space_exits_2_within_budget(self, argv):
        # refused before the walk: 2^120 and 2^28 sets of pairs are models
        import mseboot

        env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "mseboot.cli", "enumerate", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - start < 2.0
        assert out.returncode == 2 and out.stdout == ""
        assert "exceeds safety limit 40000" in json.loads(out.stderr)["message"]

    def test_enumerate_six_lists_to_order_2_counts_every_model(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "6", "--max-order", "2")
        assert code == 0
        assert json.loads(out)["n_models"] == 32_768

    @pytest.mark.parametrize("max_order", ["0", "3"])
    def test_downhill_max_order_outside_range_exits_2_up_front(
        self, capsys, tmp_path, monkeypatch, max_order
    ):
        path = tmp_path / "three.csv"
        path.write_text(
            "X,Y,Z,count\n1,0,0,300\n0,1,0,300\n0,0,1,300\n1,1,0,20\n"
            "1,0,1,20\n0,1,1,20\n1,1,1,200\n"
        )
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            capsys, "bootstrap", "--data", str(path), "--method", "downhill",
            "--max-order", max_order, "--reps", "5",
        )
        assert code == 2 and out == "" and calls == []
        assert json.loads(err)["message"] == (
            f"maximum order must be in 1..t-1, got l={max_order}"
        )

    @pytest.mark.parametrize("argv, message", [
        (["bootstrap", "--sweep"], "--seed must be a non-negative integer, got -1"),
        (["bootstrap", "--ntop", "2"], "--seed must be a non-negative integer, got -1"),
        (["bootstrap", "--method", "downhill", "--starts", "2"],
         "--seed must be a non-negative integer, got -1"),
        (["bootstrap", "--method", "chisq"], "--seed must be a non-negative integer, got -1"),
        (["diagnose"], "seed must be a non-negative integer, got -1"),
    ])
    def test_negative_seed_exits_2_before_any_fit(self, capsys, monkeypatch, argv, message):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            capsys, *argv, "--data", "fixture:korea", "--reps", "5", "--seed", "-1",
        )
        assert code == 2 and out == "" and calls == []
        assert json.loads(err)["message"] == message

    @pytest.mark.parametrize("argv, message", [
        (["diagnose", "--reps", "-3"], "need at least one bootstrap replication"),
        (["diagnose", "--reps", "0"], "need at least one bootstrap replication"),
        (["diagnose", "--ntop-grid", "0,-4"],
         "ntop_grid entries must be at least 1, got 0, -4"),
        (["bootstrap", "--method", "downhill", "--starts", "-2"],
         "--starts must be a non-negative integer, got -2"),
    ])
    def test_non_positive_counts_exit_2_before_any_fit(
        self, capsys, monkeypatch, argv, message
    ):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, *argv, "--data", "fixture:korea")
        assert code == 2 and out == "" and calls == []
        assert json.loads(err)["message"] == message

    def test_downhill_without_a_model_on_the_original_exits_3(self, capsys, tmp_path):
        # one cell seen by every list: no model has a finite BIC
        path = tmp_path / "one_cell.csv"
        path.write_text("X,Y,Z,count\n1,1,1,50\n")
        code, out, err = run_cli(
            capsys, "bootstrap", "--data", str(path), "--method", "downhill",
            "--reps", "5",
        )
        assert code == EXIT_NO_MODEL and out == ""
        assert json.loads(err) == {
            "error": EXIT_NO_MODEL,
            "message": "greedy search found no model with finite BIC",
        }

    def test_downhill_starts_on_two_lists_exits_2(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("L1,L2,count\n1,1,10\n1,0,20\n0,1,30\n")
        code, _, err = run_cli(
            capsys, "bootstrap", "--data", str(path), "--method", "downhill",
            "--starts", "2", "--reps", "5",
        )
        assert code == 2
        assert "at least 3 lists" in json.loads(err)["message"]

    def test_oversized_model_space_exits_2_within_budget(self, capsys, tmp_path):
        # six lists at the default --max-order 5 have millions of models
        path = tmp_path / "six.csv"
        path.write_text(
            "A,B,C,D,E,F,count\n1,0,0,0,0,0,5\n0,1,0,0,0,0,4\n0,0,1,0,0,0,6\n"
            "0,0,0,1,0,0,3\n0,0,0,0,1,0,7\n0,0,0,0,0,1,2\n1,1,0,0,0,0,1\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fit", "--data", str(path))
        assert time.perf_counter() - start < 20.0
        assert code == 2 and out == ""
        assert "exceeds safety limit" in json.loads(err)["message"]

    @pytest.mark.parametrize("model, failing", [
        ("[12]", ["[3,4,5,6,7,12]"]),
        ("[16]", []),
    ])
    def test_named_model_on_seven_lists_is_checked_alone(
        self, capsys, tmp_path, model, failing
    ):
        # the space of 7 lists at the default --max-order 6 is far beyond
        # the enumeration limit; a named model needs none of it
        counts = {1: 1, 35: 9, 58: 1, 78: 4, 90: 1, 93: 1, 98: 2, 99: 6, 103: 7}
        path = tmp_path / "seven.csv"
        path.write_text("A,B,C,D,E,F,G,count\n" + "".join(
            ",".join(str(cell >> i & 1) for i in range(7)) + f",{n}\n"
            for cell, n in counts.items()
        ))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "fit", "--data", str(path), "--model", model)
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert payload["fr_failing_models"] == failing
        assert payload["status"] == ("fr_failed" if failing else "converged")

    def test_named_model_reports_only_its_own_verdict(self, capsys):
        for model, failing in (("[12,13]", ["[12,13]"]), ("[12,23]", [])):
            code, out, _ = run_cli(
                capsys, "fit", "--data", "fixture:korea", "--model", model
            )
            assert code == 0
            assert json.loads(out)["fr_failing_models"] == failing

    def test_named_model_above_max_order_exits_2(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            capsys, "fit", "--data", "fixture:korea", "--model", "[12]",
            "--max-order", "1",
        )
        assert code == 2 and out == "" and calls == []
        assert json.loads(err)["message"] == (
            "model [3,12] has order 2, above the maximum order l=1"
        )

    @pytest.mark.parametrize("argv, code", [
        (["fit", "--data", "fixture:korea", "--model", "[12]"], 0),
        (["fit", "--data", "fixture:korea", "--model", "[12]", "--max-order", "1"], 2),
        (["fit", "--data", "fixture:nowhere"], 4),
        (["bootstrap", "--data", "fixture:table1_n1", "--method", "chisq",
          "--reps", "5"], 3),
    ])
    def test_no_objects_stay_frozen_after_main(self, capsys, argv, code):
        assert run_cli(capsys, *argv)[0] == code
        assert gc.get_freeze_count() == 0

    def test_lists_selects_columns_of_a_fixture_as_of_a_file(self, capsys, tmp_path):
        path = tmp_path / "korea.csv"
        path.write_text(
            resources.files("mseboot.data").joinpath("korea.csv").read_text("utf-8")
        )
        args = ["bootstrap", "--lists", "B,C", "--reps", "20", "--seed", "1"]
        # histories that differ only on list D merge
        with pytest.warns(UserWarning, match="duplicate"):
            code, from_fixture, _ = run_cli(capsys, *args, "--data", "fixture:korea")
        assert code == 0
        with pytest.warns(UserWarning, match="duplicate"):
            code, from_file, _ = run_cli(capsys, *args, "--data", str(path))
        assert code == 0
        assert from_fixture == from_file
        assert json.loads(from_fixture)["lists"] == ["B", "C"]


def test_cli_import_leaves_out_scipy_stats():
    # importing scipy.stats is a large share of every command's start-up
    # time and memory, and only ``diagnose`` needs it
    import mseboot

    code = "import sys, mseboot.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


def test_cli_runs_leave_out_the_lp_solver():
    # scipy.optimize and scipy.sparse serve only the existence program,
    # which no pair of these runs needs
    import mseboot

    code = """if True:
        import contextlib, io, json, sys
        import mseboot.cli

        def loaded():
            return [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]

        seen = {"import": loaded()}
        for argv in (
            ["bootstrap", "--data", "fixture:korea", "--sweep", "--reps", "50"],
            ["bootstrap", "--data", "fixture:table1_n1", "--ntop", "10", "--reps", "20"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert mseboot.cli.main(argv) == 0
            seen[argv[2]] = loaded()
        print(json.dumps(seen))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert json.loads(out.stdout) == {
        "import": [], "fixture:korea": [], "fixture:table1_n1": [],
    }


def test_cli_import_and_default_runs_leave_out_scipy():
    # the default path takes log n!, ndtr and ndtri from mseboot._cephes;
    # scipy serves only the existence program, ``chisq`` and ``diagnose``
    import mseboot

    code = """if True:
        import contextlib, io, json, sys
        import mseboot.cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        seen = {"import": loaded()}
        for argv in (
            ["bootstrap", "--data", "fixture:korea", "--sweep", "--reps", "50"],
            ["bootstrap", "--data", "fixture:table1_n1", "--ntop", "10", "--reps", "20"],
            ["bootstrap", "--data", "fixture:table1_n2", "--method", "downhill",
             "--reps", "20"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert mseboot.cli.main(argv) == 0
            seen[argv[2]] = loaded()
        print(json.dumps(seen))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert json.loads(out.stdout) == {
        "import": [], "fixture:korea": [], "fixture:table1_n1": [],
        "fixture:table1_n2": [],
    }
