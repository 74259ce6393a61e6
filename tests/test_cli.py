"""End-to-end CLI runs, report schema, determinism, exit codes."""

import json

import numpy as np
import pytest

from impuritypart import (
    ImpurityPartError,
    RunConfig,
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
    main,
    max_likelihood_partition,
    run,
    upper_bound,
)
from impuritypart.cli import _parse_k


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
        cfg = RunConfig(input_path="x", output_path="y", k=3)
        assert cfg.k == (3, 3)


class TestRun:
    def test_noiseless_instance_record(self, tmp_path):
        data = tmp_path / "diag.csv"
        write_counts(data, np.eye(3, dtype=int) * 2)
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=3, algorithm="ml")
        report = run(config)
        assert report["schema"] == "impuritypart/1"
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

    @pytest.mark.parametrize("algorithm", ["auto", "greedy_split", "greedy_merge"])
    @pytest.mark.parametrize("impurity", ["entropy", "gini"])
    @pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
    def test_sweep_records_match_per_k_calls(self, tmp_path, algorithm,
                                             impurity, refine):
        # one trajectory per sweep gives every k what a call for that k gives
        rng = np.random.default_rng(75)
        matrix = np.floor(60 * rng.random((300, 6)) ** 4).astype(int)
        matrix[np.arange(300), rng.integers(1, 6, size=300)] += 1
        matrix[:, 0] //= 4  # class 0 rarely wins an argmax
        data = tmp_path / "data.csv"
        write_counts(data, matrix)
        config = RunConfig(input_path=str(data),
                           output_path=str(tmp_path / "report.json"),
                           input_format="counts", impurity=impurity, k=(1, 15),
                           algorithm=algorithm, refine=refine, max_iters=20,
                           emit_assignment=refine)
        records = run(config)["records"]
        jd = ingest(data, "counts")
        f = entropy_spec() if impurity == "entropy" else gini_spec()
        n = jd.n_cols
        calls = {"ml": max_likelihood_partition, "greedy_split": greedy_split,
                 "greedy_merge": greedy_merge}
        assert [record["k"] for record in records] == list(range(1, 16))
        columns = ("k", "algorithm_used", "impurity", "e_q", "e_max_achieved",
                   "upper_u", "lower_l", "ratio_r", "fano", "masks_evaluated",
                   "n_nonempty", "error")
        for record in records:
            del record["wall_ms"]
            k = record["k"]
            name = algorithm
            if name == "auto":
                name = "ml" if k == n else "greedy_split" if k > n else "greedy_merge"
            expected = dict.fromkeys(columns, None)
            expected["k"] = k
            try:
                result = calls[name](jd, k, f)
            except ImpurityPartError as exc:
                expected["error"] = f"{type(exc).__name__}: {exc}"
                assert record == expected
                continue
            e_max, masks = result.e_max_achieved, result.masks_evaluated
            if refine:
                result = iterative_refine(jd, result.partition, f, 20)
                name += "+refine"
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
                              input_format="counts", k=2,
                              algorithm="greedy_merge")
        plain_record = run(plain_cfg)["records"][0]
        refine_cfg = RunConfig(input_path=str(data), output_path=str(out),
                               input_format="counts", k=2,
                               algorithm="greedy_merge", refine=True)
        refined_record = run(refine_cfg)["records"][0]
        assert refined_record["algorithm_used"] == "greedy_merge+refine"
        assert refined_record["impurity"] <= plain_record["impurity"] + 1e-12
        assert refined_record["impurity"] >= oracle_record["impurity"] - 1e-9

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
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(3, dtype=int))
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=(2, 4),
                           algorithm="greedy_merge")
        report = run(config)
        by_k = {r["k"]: r for r in report["records"]}
        assert by_k[2]["error"] is None
        assert "KNotLessThanN" in by_k[3]["error"]
        assert "KNotLessThanN" in by_k[4]["error"]

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

    def test_dropped_rows_counted(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,1\n0,0\n1,1\n")
        out = tmp_path / "report.json"
        config = RunConfig(input_path=str(data), output_path=str(out),
                           input_format="counts", k=1, algorithm="ml")
        report = run(config)
        assert report["input"]["dropped_rows"] == [1]
        assert report["input"]["n_rows"] == 2


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

    def test_input_error_is_3(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--input", str(tmp_path / "missing.csv"), "--k", "2",
                     "--output", str(out)])
        assert code == 3

    def test_non_finite_input_is_3(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,1\nnan,1\n")
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "2",
                     "--output", str(out)])
        assert code == 3
        assert not out.exists()

    def test_all_failed_is_4(self, tmp_path):
        data = tmp_path / "data.csv"
        write_counts(data, np.eye(3, dtype=int))
        out = tmp_path / "report.json"
        code = main(["--input", str(data), "--format", "counts", "--k", "4:5",
                     "--algorithm", "greedy_merge", "--output", str(out)])
        assert code == 4
