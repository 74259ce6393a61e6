"""Command-line driver: ingest a dataset, sweep k, write a JSON/CSV report.

Example:
    impuritypart --input data.csv --format counts --impurity entropy \\
        --k 2:20 --algorithm auto --output report.json --emit-csv report.csv

Exit codes: 0 success, 2 bad configuration, 3 unreadable/invalid input or
an unwritable output, 4 every k in the sweep failed. An output path whose
directory does not exist exits 3 before the input is read. The output is
written after the sweep, and the JSON report before the CSV, so an
--emit-csv path that fails to open then (a directory, say) leaves the JSON
report written.
"""

import argparse
import csv
import errno
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    exhaustive_oracle,
    # not called here; perfbench/tracing.py patches cli.greedy_merge and
    # cli.greedy_split by name, so they stay importable from this module
    greedy_merge,  # noqa: F401
    greedy_split,  # noqa: F401
    greedy_walk,
    iterative_refine,
    max_likelihood_partition,
)
from .bounds import approximation_ratio, fano_bound, lower_bound, upper_bound
from .errors import ImpurityPartError, IngestWarning
from .impurity import entropy_spec, gini_spec
from .ingestion import FORMATS, ingest
from .prob import check_max_iters, is_int

SCHEMA = "impuritypart/4"
ALGORITHMS = ("ml", "auto", "oracle")
IMPURITIES = {"entropy": entropy_spec, "gini": gini_spec}

_CSV_COLUMNS = ("k", "algorithm_used", "impurity", "e_q", "e_max_achieved",
                "upper_u", "lower_l", "ratio_r", "fano", "masks_evaluated",
                "n_nonempty", "wall_ms", "error")
# set only on refined records; the CSV leaves them out
_REFINE_KEYS = ("refine_passes", "refine_moved", "converged")


@dataclass(kw_only=True)
class RunConfig:
    """Everything one invocation needs: one keyword-only field per CLI flag.

    The fields are in flag order, and each flag's dest is its field name.
    The parser sets no defaults, so `RunConfig(**vars(args))` builds the
    config and every default lives here. The report's "config" block lists
    every field but csv_path, in this order.

    Construction checks each field's type as well as its value, so a
    library caller gets the ValueError, naming the field, that main maps
    to exit code 2. k is an int or a pair of ints and max_iters an int, by
    the library's rule prob.is_int (numpy ints of every width pass, a bool
    does not); max_iters is checked by prob.check_max_iters. Both are stored
    as Python ints, a list k staying a list, so the report's "config" block
    is JSON. refine and emit_assignment are bools; the choice fields are
    strings in their tables; the paths are str or os.PathLike, and csv_path
    may be None.
    """

    input_path: str
    input_format: str = "dense_csv"
    impurity: str = "entropy"
    k: tuple = (2, 2)
    algorithm: str = "auto"
    refine: bool = False
    max_iters: int = 100
    output_path: str
    emit_assignment: bool = False
    csv_path: str = None

    def __post_init__(self):
        for label, value, table in (("format", self.input_format, FORMATS),
                                    ("impurity", self.impurity, IMPURITIES),
                                    ("algorithm", self.algorithm, ALGORITHMS)):
            if not isinstance(value, str) or value not in table:
                raise ValueError(f"unknown {label} {value!r}")
        if is_int(self.k):
            self.k = (self.k, self.k)
        if not (isinstance(self.k, (tuple, list)) and len(self.k) == 2
                and all(map(is_int, self.k))):
            raise ValueError(f"k must be an int or a pair of ints, got {self.k!r}")
        lo, hi = map(int, self.k)
        self.k = [lo, hi] if isinstance(self.k, list) else (lo, hi)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad k range {self.k!r}: need 1 <= start <= end")
        self.max_iters = check_max_iters(self.max_iters)
        for name in ("refine", "emit_assignment"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name in ("input_path", "output_path", "csv_path"):
            value = getattr(self, name)
            if not (isinstance(value, (str, os.PathLike))
                    or name == "csv_path" and value is None):
                raise ValueError(f"{name} must be a path, got {value!r}")


def _outcomes(config: RunConfig, jd, f):
    """Yield (k, algorithm name, AlgoResult or the ImpurityPartError raised)
    once for every k of the sweep, in the order they are computed.

    ml and oracle run their search once per k, and a refusal is yielded in
    place of the result. auto runs the likelihood step once, at k = N, where
    it refuses nothing: that result is the record at k = N when the sweep
    holds N, and the start of one greedy_merge walk down through the sweep's
    k below N and one greedy_split walk up through those above, so no
    greedy k is refused.
    """
    lo, hi = config.k
    if config.algorithm != "auto":
        for k in range(lo, hi + 1):
            try:
                # module names, looked up per call: the benchmark tracer
                # patches them on cli
                result = (max_likelihood_partition if config.algorithm == "ml"
                          else exhaustive_oracle)(jd, k, f)
            except ImpurityPartError as exc:
                result = exc
            yield k, config.algorithm, result
        return
    n = jd.n_cols
    base = max_likelihood_partition(jd, n, f)
    if lo <= n <= hi:
        yield n, "ml", base
    for name, ks in (("greedy_merge", range(min(hi, n - 1), lo - 1, -1)),
                     ("greedy_split", range(max(lo, n + 1), hi + 1))):
        if ks:
            for k, result in zip(ks, greedy_walk(jd, base, f, ks)):
                yield k, name, result


def _record(config: RunConfig, jd, f, k, name, result):
    """The report record of one k, refining the result first if asked.

    wall_ms is left for the caller to fill in.
    """
    record = dict.fromkeys(_CSV_COLUMNS + _REFINE_KEYS) | {"k": k}
    if isinstance(result, ImpurityPartError):
        record["error"] = f"{type(result).__name__}: {result}"
        return record
    e_max = result.e_max_achieved
    masks = result.masks_evaluated
    if config.refine:
        # impurity/e_q describe the refined partition; the e certificate
        # stays with the main algorithm, where the ratio is meaningful
        result = iterative_refine(jd, result.partition, f, config.max_iters)
        name += "+refine"
        passes = [event for event in result.trace if event["event"] == "iteration"]
        record.update({"refine_passes": len(passes),
                       "refine_moved": passes[-1]["changed"],
                       "converged": passes[-1]["changed"] == 0})
    stats = result.stats
    n = jd.n_cols
    record.update({
        "algorithm_used": name,
        "impurity": stats.impurity,
        "e_q": stats.e_q,
        "e_max_achieved": e_max,
        "upper_u": upper_bound(stats.e_q, n, f),
        "lower_l": lower_bound(stats.e_q, f),
        "ratio_r": approximation_ratio(e_max, n, f),
        "fano": fano_bound(stats.e_q, n) if f.kind == "entropy" else None,
        "masks_evaluated": masks,
        "n_nonempty": stats.n_nonempty,
    })
    if config.emit_assignment:
        record["assignment"] = result.partition.assignment.tolist()
    return record


def _runs(rows: np.ndarray) -> list:
    """[first, last] of each run of consecutive values in the increasing,
    nonempty int array rows, as Python ints."""
    step = np.diff(rows) != 1
    return np.column_stack((rows[np.r_[True, step]], rows[np.r_[step, True]])).tolist()


def _write_csv(records, path):
    # csv writes None as "" and a float as its repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, _CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)


def run(config: RunConfig) -> dict:
    """Execute the sweep and write the report; returns the report dict.

    Per-k failures are recorded in their record's "error" field and do not
    abort the sweep. Records are ordered by k. An output path whose directory
    does not exist raises FileNotFoundError, as its open would after the
    sweep, before the input is read.
    """
    for path in filter(None, (config.output_path, config.csv_path)):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jd = ingest(config.input_path, config.input_format)
    dropped = next((_runs(item.message.dropped_rows) for item in caught
                    if isinstance(item.message, IngestWarning)), [])
    f = IMPURITIES[config.impurity]()
    records = []
    mark = time.perf_counter()
    for k, name, result in _outcomes(config, jd, f):
        record = _record(config, jd, f, k, name, result)
        now = time.perf_counter()
        record["wall_ms"] = (now - mark) * 1000.0
        mark = now
        records.append(record)
    records.sort(key=lambda record: record["k"])
    report = {
        "schema": SCHEMA,
        "config": {name: (list(value) if name == "k"
                          else str(value) if name.endswith("_path") else value)
                   for name, value in vars(config).items()
                   if name != "csv_path"},
        "input": {
            "n_rows": jd.n_rows,
            "n_cols": jd.n_cols,
            "dropped_rows": dropped,
        },
        "records": records,
    }
    with open(config.output_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if config.csv_path:
        _write_csv(records, config.csv_path)
    return report


def _parse_k(text: str):
    lo, colon, hi = text.partition(":")
    return (int(lo), int(hi if colon else lo))


def build_parser() -> argparse.ArgumentParser:
    # no flag default: an absent flag leaves its RunConfig field's default
    parser = argparse.ArgumentParser(
        prog="impuritypart",
        description="Partition probability-weighted data points to minimize "
                    "a concave impurity, with certified bounds.",
        argument_default=argparse.SUPPRESS)
    parser.add_argument("--input", dest="input_path", metavar="INPUT",
                        required=True, help="input data file")
    parser.add_argument("--format", dest="input_format", choices=FORMATS)
    parser.add_argument("--impurity", choices=IMPURITIES)
    parser.add_argument("--k", type=_parse_k, required=True,
                        metavar="K|A:B", help="partition count or sweep range")
    parser.add_argument("--algorithm", choices=ALGORITHMS)
    parser.add_argument("--refine", action="store_true",
                        help="run iterative refinement after the algorithm")
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--output", dest="output_path", metavar="OUTPUT",
                        required=True, help="JSON report path")
    parser.add_argument("--emit-assignment", action="store_true",
                        help="include the per-point labels in each record")
    parser.add_argument("--emit-csv", dest="csv_path", metavar="PATH",
                        help="also write a flat per-k CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"impuritypart: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except (OSError, ImpurityPartError, ValueError) as exc:
        kind = "file" if isinstance(exc, OSError) else "input"
        print(f"impuritypart: {kind} error: {exc}", file=sys.stderr)
        return 3
    if all(record["error"] is not None for record in report["records"]):
        print("impuritypart: every k in the sweep failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
