"""End-to-end CLI runs, report schema, determinism, exit codes."""

import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from impuritypart import (
    approximation_ratio,
    entropy_spec,
    exhaustive_oracle,
    fano_bound,
    gini_spec,
    greedy_merge,
    greedy_split,
    ingest,
    iterative_refine,
    lower_bound,
    max_likelihood_partition,
    upper_bound,
)
from impuritypart import algorithms, cli
from impuritypart.cli import ALGORITHMS, RunConfig, _parse_k, build_parser, main, run

from helpers import admit, peak_bytes


def write_counts(path, matrix):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in matrix) + "\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestParseK:
    def test_forms(self):
        assert _parse_k("5") == (5, 5)
        assert _parse_k("2:9") == (2, 9)
        with pytest.raises(ValueError):
            _parse_k("a:b")


class TestRunConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(input_path="x", output_path="y", k=(0, 3))
        with pytest.raises(ValueError):
            RunConfig(input_path="x", output_path="y", k=(4, 2))
        with pytest.raises(ValueError):
            RunConfig(input_path="x", output_path="y", impurity="mse")
        for field, value, message in (
                ("input_format", "parquet", "unknown format 'parquet'"),
                ("algorithm", "kmeans", "unknown algorithm 'kmeans'"),
                ("max_iters", 0, "max_iters must be >= 1")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                RunConfig(input_path="x", output_path="y", **{field: value})
        cfg = RunConfig(input_path="x", output_path="y", k=3)
        assert cfg.k == (3, 3)

    @pytest.mark.parametrize("field, value, message", [
        ("impurity", ["entropy"], r"unknown impurity \['entropy'\]"),
        ("k", True, "k must be an int or a pair of ints, got True"),
        ("k", (2, 3.5), r"k must be an int or a pair of ints, got \(2, 3.5\)"),
        ("k", (True, 3), r"k must be an int or a pair of ints, got \(True, 3\)"),
        ("k", "2:5", "k must be an int or a pair of ints, got '2:5'"),
        ("k", [2, 3, 4], r"k must be an int or a pair of ints, got \[2, 3, 4\]"),
        ("k", np.True_, "k must be an int or a pair of ints, got np.True_"),
        ("k", (2, np.True_), r"k must be an int or a pair of ints, got \(2, np.True_\)"),
        ("max_iters", True, "max_iters must be an int, got True"),
        ("max_iters", np.True_, "max_iters must be an int, got np.True_"),
        ("max_iters", 2.5, "max_iters must be an int, got 2.5"),
        ("refine", "no", "refine must be a bool, got 'no'"),
        ("emit_assignment", 1, "emit_assignment must be a bool, got 1"),
        ("input_path", None, "input_path must be a path, got None"),
        ("output_path", 3, "output_path must be a path, got 3"),
        ("csv_path", b"t.csv", "csv_path must be a path, got b't.csv'"),
    ])
    def test_types_are_checked(self, field, value, message):
        # a library caller gets the ValueError, naming the field, that main
        # maps to exit code 2
        settings = {"input_path": "x", "output_path": "y", field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(**settings)

    def test_types_that_pass(self, tmp_path):
        # perfbench passes k as a JSON list; paths may be os.PathLike
        cfg = RunConfig(input_path=tmp_path / "x", output_path=tmp_path / "y",
                        csv_path=tmp_path / "z", k=[2, 60], refine=True,
                        max_iters=3, emit_assignment=True)
        assert cfg.k == [2, 60]

    @pytest.mark.parametrize("width", [np.int8, np.uint8, np.int64, np.uint64],
                             ids=lambda width: width.__name__)
    def test_numpy_ints_are_stored_as_python_ints(self, width):
        # the library's rule: numpy ints of every width pass, and the config
        # keeps Python ints, so its report block is JSON
        for k, stored in ((width(3), (3, 3)), ((width(2), 5), (2, 5)),
                          ((2, width(5)), (2, 5)), ([width(2), width(60)], [2, 60])):
            cfg = RunConfig(input_path="x", output_path="y", k=k, max_iters=width(7))
            assert cfg.k == stored and type(cfg.k) is type(stored)
            assert [type(value) for value in cfg.k] == [int, int]
            assert type(cfg.max_iters) is int and cfg.max_iters == 7

    def test_numpy_int_config_writes_the_python_int_report(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.random.default_rng(81).integers(1, 30, size=(12, 4)))
        out = tmp_path / "report.json"
        texts = []
        for k, max_iters in (((2, 6), 3), ((np.int16(2), np.uint8(6)), np.int64(3))):
            run(RunConfig(input_path=str(data), output_path=str(out),
                          input_format="counts", k=k, refine=True,
                          max_iters=max_iters, emit_assignment=True))
            texts.append(re.sub(r'"wall_ms": [^,\n]+', '"wall_ms": null',
                                out.read_text(encoding="utf-8")))
        assert texts[0] == texts[1]
        assert texts[0].count('"wall_ms": null') == 5

    def test_flag_dests_are_the_fields(self):
        dests = [action.dest for action in build_parser()._actions
                 if action.dest != "help"]
        assert dests == [field.name for field in fields(RunConfig)]


class TestRun:
    def test_noiseless_instance_record(self, tmp_path):
        data = tmp_path / "diag.csv"
        write_counts(data, np.eye(3, dtype=int) * 2)
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=3, algorithm="ml")
        report = run(config)
        assert report["schema"] == "impuritypart/4"
        record = report["records"][0]
        assert record["impurity"] == 0.0
        assert record["e_q"] == 1.0
        assert record["ratio_r"] == 1.0
        assert record["error"] is None
        assert read_report(out) == report

    def test_uniform_bounds_are_tight(self, tmp_path):
        data = tmp_path / "uniform.csv"
        write_counts(data, np.ones((4, 2), dtype=int))
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=2, algorithm="ml")
        record = run(config)["records"][0]
        assert abs(record["impurity"] - 1.0) <= 1e-12
        assert abs(record["e_q"] - 0.5) <= 1e-12
        assert abs(record["upper_u"] - 1.0) <= 1e-12
        assert abs(record["lower_l"] - 1.0) <= 1e-12

    def test_auto_matches_direct_calls(self, tmp_path):
        rng = np.random.default_rng(71)
        matrix = rng.integers(1, 30, size=(8, 3))
        data = tmp_path / "data.csv"
        write_counts(data, matrix)
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=(2, 5), algorithm="auto")
        report = run(config)
        from impuritypart import build_joint
        jd = build_joint(matrix)
        f = entropy_spec()
        expected = {
            2: ("greedy_merge", greedy_merge(jd, 2, f)),
            3: ("ml", max_likelihood_partition(jd, 3, f)),
            4: ("greedy_split", greedy_split(jd, 4, f)),
            5: ("greedy_split", greedy_split(jd, 5, f)),
        }
        for record in report["records"]:
            name, result = expected[record["k"]]
            assert record["algorithm_used"] == name
            assert record["impurity"] == result.stats.impurity
            assert record["e_q"] == result.stats.e_q

    # N = 6: across N, wholly below, N alone, wholly above, and a range
    # below N that holds neither 1 nor N - 1
    @pytest.mark.parametrize("sweep", [(1, 15), (1, 5), (6, 6), (7, 15), (2, 3)],
                             ids=lambda sweep: "{}-{}".format(*sweep))
    @pytest.mark.parametrize("impurity", ["entropy", "gini"])
    @pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
    def test_sweep_records_match_per_k_calls(self, tmp_path, sweep, impurity,
                                             refine):
        # one trajectory per sweep gives every k what a call for that k gives
        rng = np.random.default_rng(75)
        matrix = np.floor(60 * rng.random((300, 6)) ** 4).astype(int)
        matrix[np.arange(300), rng.integers(1, 6, size=300)] += 1
        matrix[:, 0] //= 4  # class 0 rarely wins an argmax
        data = tmp_path / "data.csv"
        write_counts(data, matrix)
        config = RunConfig(input_path=str(data),
                           output_path=str(tmp_path / "report.json"),
                           input_format="counts", impurity=impurity, k=sweep,
                           refine=refine, max_iters=20, emit_assignment=refine)
        records = run(config)["records"]
        jd = ingest(data, "counts")
        f = entropy_spec() if impurity == "entropy" else gini_spec()
        n = jd.n_cols
        calls = {"ml": max_likelihood_partition, "greedy_split": greedy_split,
                 "greedy_merge": greedy_merge}
        assert n == 6
        assert [record["k"] for record in records] == list(range(sweep[0], sweep[1] + 1))
        columns = ("k", "algorithm_used", "impurity", "e_q", "e_max_achieved",
                   "upper_u", "lower_l", "ratio_r", "fano", "masks_evaluated",
                   "n_nonempty", "error", "refine_passes", "refine_moved",
                   "converged")
        for record in records:
            del record["wall_ms"]
            k = record["k"]
            # auto serves every k on its own side of N, so none fails
            name = "ml" if k == n else "greedy_split" if k > n else "greedy_merge"
            expected = dict.fromkeys(columns, None)
            expected["k"] = k
            result = calls[name](jd, k, f)
            e_max, masks = result.e_max_achieved, result.masks_evaluated
            if refine:
                result = iterative_refine(jd, result.partition, f, 20)
                name += "+refine"
                passes = result.trace[1:]
                expected.update({"refine_passes": len(passes),
                                 "refine_moved": passes[-1]["changed"],
                                 "converged": passes[-1]["changed"] == 0})
            stats = result.stats
            expected.update({
                "algorithm_used": name, "impurity": stats.impurity,
                "e_q": stats.e_q, "e_max_achieved": e_max,
                "upper_u": upper_bound(stats.e_q, n, f),
                "lower_l": lower_bound(stats.e_q, f),
                "ratio_r": approximation_ratio(e_max, n, f),
                "fano": fano_bound(stats.e_q, n) if impurity == "entropy" else None,
                "masks_evaluated": masks, "n_nonempty": stats.n_nonempty})
            if refine:
                expected["assignment"] = result.partition.assignment.tolist()
            assert record == expected

    def test_ml_sweep_builds_one_coverage_table(self, tmp_path, monkeypatch):
        # certify's ml --k 5:7 on floor(1000 U**4) counts at 5000 x 12: the
        # first k builds the table, the later ks walk its candidates
        rng = np.random.default_rng(29)
        counts = np.floor(1000.0 * rng.random((5000, 12)) ** 4).astype(int)
        counts[counts.sum(axis=1) == 0, 0] = 1
        data = tmp_path / "counts.csv"
        write_counts(data, counts)
        build = algorithms._coverage_table
        builds = []

        def counted(p):
            builds.append(p)
            return build(p)

        monkeypatch.setattr(algorithms, "_coverage_table", counted)
        config = RunConfig(input_path=str(data), output_path=str(tmp_path / "r.json"),
                           input_format="counts", impurity="gini", k=(5, 7),
                           algorithm="ml")
        records = run(config)["records"]
        assert len(builds) == 1
        monkeypatch.undo()
        for record in records:
            res = max_likelihood_partition(ingest(str(data), "counts"), record["k"],
                                           gini_spec())
            assert record["impurity"] == res.stats.impurity
            assert record["e_q"] == res.stats.e_q

    def test_oracle_and_refine_paths(self, tmp_path):
        rng = np.random.default_rng(72)
        matrix = rng.integers(1, 30, size=(6, 3))
        data = tmp_path / "data.csv"
        write_counts(data, matrix)
        out = tmp_path / "r.json"
        oracle_cfg = RunConfig(input_path=str(data), output_path=str(out),
                               input_format="counts", k=2, algorithm="oracle")
        oracle_record = run(oracle_cfg)["records"][0]
        from impuritypart import build_joint
        jd = build_joint(matrix)
        direct = exhaustive_oracle(jd, 2, entropy_spec())
        assert oracle_record["impurity"] == direct.stats.impurity

        plain_cfg = RunConfig(input_path=str(data), output_path=str(out),
                              input_format="counts", k=2, algorithm="auto")
        plain_record = run(plain_cfg)["records"][0]
        refine_cfg = RunConfig(input_path=str(data), output_path=str(out),
                               input_format="counts", k=2, algorithm="auto",
                               refine=True)
        refined_record = run(refine_cfg)["records"][0]
        assert refined_record["algorithm_used"] == "greedy_merge+refine"
        assert refined_record["impurity"] <= plain_record["impurity"] + 1e-12
        assert refined_record["impurity"] >= oracle_record["impurity"] - 1e-9

    def test_refine_counters(self, tmp_path):
        # a refine cut off by --max-iters says so; unrefined and failed
        # records leave the counters null
        rng = np.random.default_rng(91)
        data = tmp_path / "data.csv"
        write_counts(data, rng.integers(1, 40, size=(200, 4)))
        keys = ("refine_passes", "refine_moved", "converged")

        def counters(algorithm, **settings):
            config = RunConfig(input_path=str(data),
                               output_path=str(tmp_path / "r.json"),
                               input_format="counts", k=3,
                               algorithm=algorithm, **settings)
            run(config)
            return [[record[key] for key in keys]
                    for record in read_report(tmp_path / "r.json")["records"]]

        cut = counters("auto", refine=True, max_iters=1)
        done = counters("auto", refine=True, max_iters=1000)
        assert cut[0][0] == 1 and cut[0][1] > 0 and cut[0][2] is False
        assert done[0][0] > 1 and done[0][1] == 0 and done[0][2] is True
        # 3**200 assignments exceed the oracle's cap, so k = 3 fails
        for max_iters in (1, 1000):
            assert counters("oracle", refine=True, max_iters=max_iters) == [[None] * 3]
        assert counters("auto") == [[None] * 3]

    def test_oracle_cap_recorded_per_k(self, tmp_path):
        rng = np.random.default_rng(74)
        data = tmp_path / "data.csv"
        write_counts(data, rng.integers(1, 9, size=(40, 2)))
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=2, algorithm="oracle")
        record = run(config)["records"][0]
        assert "InstanceTooLarge" in record["error"]

    def test_sweep_survives_per_k_failures(self, tmp_path):
        # 3**13 assignments are within the oracle's cap, 4**13 and 5**13 not
        data = tmp_path / "data.csv"
        write_counts(data, np.random.default_rng(79).integers(1, 9, size=(13, 3)))
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=(3, 5), algorithm="oracle")
        report = run(config)
        by_k = {r["k"]: r for r in report["records"]}
        assert by_k[3]["error"] is None
        assert "InstanceTooLarge" in by_k[4]["error"]
        assert "InstanceTooLarge" in by_k[5]["error"]

    def test_report_deterministic_modulo_wall_ms(self, tmp_path):
        rng = np.random.default_rng(73)
        matrix = rng.integers(1, 20, size=(7, 3))
        data = tmp_path / "data.csv"
        write_counts(data, matrix)
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            config = RunConfig(input_path=str(data), output_path=str(out),
                               input_format="counts", k=(1, 5),
                               algorithm="auto", emit_assignment=True)
            run(config)
            report = read_report(out)
            for record in report["records"]:
                record["wall_ms"] = None
            report["config"]["output_path"] = None
            reports.append(report)
        assert reports[0] == reports[1]

    def test_emit_assignment_flag(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=2, algorithm="ml",
                           emit_assignment=True)
        record = run(config)["records"][0]
        assert record["assignment"] == [0, 1]
        config2 = RunConfig(input_path=str(data), output_path=str(out),
                            input_format="counts", k=2, algorithm="ml")
        assert "assignment" not in run(config2)["records"][0]

    def test_csv_emission(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        table = tmp_path / "report.csv"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=(2, 3), algorithm="ml",
                           csv_path=str(table))
        run(config)
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("k,algorithm_used,impurity")
        assert len(lines) == 3

    def test_csv_cells(self, tmp_path):
        rng = np.random.default_rng(78)
        data = tmp_path / "data.csv"
        write_counts(data, rng.integers(1, 30, size=(9, 3)))
        table = tmp_path / "report.csv"
        # gini leaves fano empty; 6**9 and 7**9 assignments exceed the
        # oracle's cap, so k = 6 and 7 fail, leaving their results empty
        config = RunConfig(input_path=str(data),
                           output_path=str(tmp_path / "report.json"),
                           input_format="counts", impurity="gini", k=(5, 7),
                           algorithm="oracle", emit_assignment=True,
                           csv_path=str(table))
        records = run(config)["records"]
        with open(table, "r", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["k", "algorithm_used", "impurity", "e_q",
                          "e_max_achieved", "upper_u", "lower_l", "ratio_r",
                          "fano", "masks_evaluated", "n_nonempty", "wall_ms",
                          "error"]
        assert len(rows) == len(records) == 3
        kinds = set()
        for row, record in zip(rows, records):
            assert len(row) == len(header)
            for col, cell in zip(header, row):
                value = record[col]
                if value is None:
                    kinds.add("empty")
                    assert cell == ""
                elif isinstance(value, float):
                    kinds.add("float")
                    assert cell == repr(value)
                    assert float(cell) == value
                else:
                    assert cell == str(value)
        assert kinds == {"empty", "float"}

    def test_dropped_rows_counted(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,1\n0,0\n1,1\n")
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=1, algorithm="ml")
        report = run(config)
        assert report["input"]["dropped_rows"] == [[1, 1]]
        assert report["input"]["n_rows"] == 2

    def test_dropped_rows_written_as_runs(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0,0\n1,1\n0,0\n0,0\n2,1\n0,0\n0,0\n0,0\n")
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=1, algorithm="ml")
        report = run(config)
        assert report["input"]["dropped_rows"] == [[0, 0], [2, 3], [5, 7]]
        assert read_report(out)["input"] == report["input"]

    def test_dropped_rows_cost_the_file_not_the_rows(self, tmp_path):
        # two lines imply 2**20 rows, all but two of them zero: the report
        # and the peak grow with the file, not with the dropped indices
        data = tmp_path / "gap.txt"
        data.write_text("1048575,1,1\n0,0,1\n")
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="sparse_triplets", k=1, algorithm="ml")
        peak, report = peak_bytes(lambda: run(config))
        assert report["input"] == {"n_rows": 2, "n_cols": 2,
                                   "dropped_rows": [[1, 1048574]]}
        assert out.stat().st_size < 4096
        assert peak < 32 * 2 ** 20


class TestMainExitCodes:
    def test_success(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts",
                     "--k", "2", "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_is_2(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--k", "0", "--output", str(out)])
        assert code == 2
        code = main(["--input", str(data), "--k", "nope", "--output", str(out)])
        assert code == 2
        code = main(["--input", str(data), "--k", "2", "--refine",
                     "--max-iters", "0", "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_seed_is_not_a_setting(self, tmp_path, capsys):
        # the algorithms are deterministic, so there is nothing to seed
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--k", "2", "--seed", "1",
                     "--output", str(out)])
        assert code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()
        assert len(fields(RunConfig)) == 10

    def test_mask_budget_is_not_a_setting(self, tmp_path, capsys):
        # the mask scan's cap is a fixed amount of work, not a setting
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(2, dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--k", "2", "--mask-budget", "50",
                     "--output", str(out)])
        assert code == 2
        assert "unrecognized arguments: --mask-budget 50" in capsys.readouterr().err
        assert not out.exists()

    def test_input_error_is_3(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--input", str(tmp_path / "missing.csv"), "--k", "2",
                     "--output", str(out)])
        assert code == 3

    def test_unwritable_output_is_3(self, tmp_path, capsys):
        # not an input error: the input is readable, the write path is not
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(3, dtype=int) + 1)
        missing = tmp_path / "missing"
        code = main(["--input", str(data), "--format", "counts", "--k", "2",
                     "--output", str(missing / "report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("impuritypart: file error: ")
        assert "input" not in err and str(missing / "report.json") in err
        # the JSON report is written before the CSV: a CSV path in an
        # existing directory passes the early check and fails at its open
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "2",
                     "--output", str(out), "--emit-csv", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("impuritypart: file error: ")
        assert json.loads(out.read_text())["records"][0]["k"] == 2

    @pytest.mark.parametrize("flag", ["--output", "--emit-csv"])
    def test_missing_output_directory_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, flag):
        # ingest and the search raise Admitted if reached: the file error
        # must come first, and nothing is written
        monkeypatch.setattr(cli, "ingest", admit)
        monkeypatch.setattr(cli, "max_likelihood_partition", admit)
        target = tmp_path / "missing" / "out"
        # a later --output replaces the first
        code = main(["--input", str(tmp_path / "data.csv"), "--k", "2:2000",
                     "--algorithm", "ml", "--output", str(tmp_path / "report.json"),
                     flag, str(target)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("impuritypart: file error: ") and str(target) in err
        assert not any(tmp_path.iterdir())

    def test_non_finite_input_is_3(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,1\nnan,1\n")
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "2",
                     "--output", str(out)])
        assert code == 3
        assert not out.exists()

    def test_overflowing_total_is_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("1e308,1e308\n1,1\n")
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "2",
                     "--output", str(out)])
        assert code == 3
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_refusal_on_many_rows_is_4(self, tmp_path):
        # 3**20000 and 4**20000 are too long to format, yet every k
        # records its InstanceTooLarge and the report is written
        data = tmp_path / "data.csv"
        write_counts(data, np.ones((20000, 6), dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "3:4",
                     "--algorithm", "oracle", "--output", str(out)])
        assert code == 4
        records = read_report(out)["records"]
        assert [record["k"] for record in records] == [3, 4]
        for record in records:
            assert record["error"].startswith("InstanceTooLarge")
            assert f"{record['k']}**20000" in record["error"]

    def test_mask_scan_refusal_is_4(self, tmp_path):
        # C(40, k) * (2 + 2048) exceeds the mask budget for every k of the
        # sweep, so each record holds the refusal and the report is written
        data = tmp_path / "data.csv"
        write_counts(data, np.random.default_rng(78).integers(1, 9, size=(2, 40)))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "18:22",
                     "--algorithm", "ml", "--output", str(out)])
        assert code == 4
        records = read_report(out)["records"]
        assert [record["k"] for record in records] == [18, 19, 20, 21, 22]
        for record in records:
            assert record["error"].startswith(
                f"InstanceTooLarge: C(40, {record['k']}) masks")

    def test_greedy_names_are_not_algorithms(self, tmp_path, capsys):
        # auto is the one greedy choice: it serves each side of N, and a
        # --k range on one side restricts a sweep to that side
        assert ALGORITHMS == ("ml", "auto", "oracle")
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(3, dtype=int) + 1)
        out = tmp_path / "report.json"
        for name in ("greedy_split", "greedy_merge"):
            with pytest.raises(ValueError, match=f"^unknown algorithm '{name}'$"):
                RunConfig(input_path=str(data), output_path=str(out), algorithm=name)
            code = main(["--input", str(data), "--format", "counts", "--k", "2",
                         "--algorithm", name, "--output", str(out)])
            assert code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_all_failed_is_4(self, tmp_path):
        # 2**40 and 3**40 assignments exceed the oracle's cap
        data = tmp_path / "data.csv"
        write_counts(data, np.ones((40, 3), dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "2:3",
                     "--algorithm", "oracle", "--output", str(out)])
        assert code == 4


class TestMainFlags:
    def test_every_flag_reaches_the_report(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(3, dtype=int) + 1)
        out = tmp_path / "report.json"
        table = tmp_path / "report.csv"
        code = main(["--input", str(data), "--format", "counts",
                     "--impurity", "gini", "--k", "2:3", "--algorithm", "ml",
                     "--refine", "--max-iters", "7", "--output", str(out),
                     "--emit-assignment", "--emit-csv", str(table)])
        assert code == 0
        report = read_report(out)
        assert list(report["config"].items()) == [
            ("input_path", str(data)), ("input_format", "counts"),
            ("impurity", "gini"), ("k", [2, 3]), ("algorithm", "ml"),
            ("refine", True), ("max_iters", 7), ("output_path", str(out)),
            ("emit_assignment", True)]
        assert [record["algorithm_used"] for record in report["records"]] == [
            "ml+refine", "ml+refine"]
        assert all(len(record["assignment"]) == 3 for record in report["records"])
        assert len(table.read_text().splitlines()) == 3
