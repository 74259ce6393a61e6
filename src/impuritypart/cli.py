"""Command-line driver: ingest a dataset, sweep k, write a JSON/CSV report.

Example:
    impuritypart --input data.csv --format counts --impurity entropy \\
        --k 2:20 --algorithm auto --output report.json --emit-csv report.csv

Exit codes: 0 success, 2 bad configuration, 3 unreadable/invalid input,
4 every k in the sweep failed.
"""

import argparse
import csv
import json
import sys
import time
import warnings
from dataclasses import dataclass

from .algorithms import (
    DEFAULT_MASK_BUDGET,
    check_merge_k,
    check_split_k,
    exhaustive_oracle,
    # not called here; perfbench/tracing.py patches cli.greedy_merge and
    # cli.greedy_split by name, so they stay importable from this module
    greedy_merge,  # noqa: F401
    greedy_split,  # noqa: F401
    iterative_refine,
    max_likelihood_partition,
    merge_states,
    split_states,
)
from .bounds import approximation_ratio, fano_bound, lower_bound, upper_bound
from .errors import ImpurityPartError, IngestWarning
from .impurity import entropy_spec, gini_spec
from .ingestion import FORMATS, ingest

SCHEMA = "impuritypart/1"
ALGORITHMS = ("ml", "greedy_split", "greedy_merge", "auto", "oracle")
IMPURITIES = ("entropy", "gini")

_CSV_COLUMNS = ("k", "algorithm_used", "impurity", "e_q", "e_max_achieved",
                "upper_u", "lower_l", "ratio_r", "fano", "masks_evaluated",
                "n_nonempty", "wall_ms", "error")


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrors the CLI flags."""

    input_path: str
    output_path: str
    input_format: str = "dense_csv"
    impurity: str = "entropy"
    k: tuple = (2, 2)
    algorithm: str = "auto"
    refine: bool = False
    max_iters: int = 100
    mask_budget: int = DEFAULT_MASK_BUDGET
    seed: int = 0
    emit_assignment: bool = False
    csv_path: str = None

    def __post_init__(self):
        if self.input_format not in FORMATS:
            raise ValueError(f"unknown format {self.input_format!r}")
        if self.impurity not in IMPURITIES:
            raise ValueError(f"unknown impurity {self.impurity!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if isinstance(self.k, int):
            self.k = (self.k, self.k)
        lo, hi = self.k
        if lo < 1 or hi < lo:
            raise ValueError(f"bad k range {self.k!r}: need 1 <= start <= end")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.mask_budget < 1:
            raise ValueError("mask_budget must be >= 1")


def _resolve(algorithm, k, n):
    """The algorithm that serves k: 'auto' picks by k against the n classes."""
    if algorithm != "auto":
        return algorithm
    if k > n:
        return "greedy_split"
    return "ml" if k == n else "greedy_merge"


def _walk(states, ks, reached):
    """Advance one greedy trajectory through ks in order, yielding (k, state)
    with the first state that reached(state, k), or the last state if the
    trajectory ends first."""
    state = next(states)
    for k in ks:
        while not reached(state, k):
            following = next(states, None)
            if following is None:
                break
            state = following
        yield k, state


def _outcomes(config: RunConfig, jd, f):
    """Yield (k, algorithm name, AlgoResult or the ImpurityPartError raised)
    once for every k of the sweep, in the order they are computed.

    ml and oracle run once per k. The greedy k share one trajectory per
    algorithm: merge walks down and split walks up from one likelihood run
    at k = N, which also serves an 'auto' record at k = N.
    """
    lo, hi = config.k
    n = jd.n_cols
    likelihood = {}

    def ml(k):
        if k not in likelihood:
            likelihood[k] = max_likelihood_partition(
                jd, k, f, mask_budget=config.mask_budget)
        return likelihood[k]

    merge_ks, split_ks = [], []
    for k in range(lo, hi + 1):
        name = _resolve(config.algorithm, k, n)
        try:
            if name == "ml":
                result = ml(k)
            elif name == "oracle":
                result = exhaustive_oracle(jd, k, f)
            elif name == "greedy_merge":
                check_merge_k(n, k)
                merge_ks.append(k)
                continue
            else:
                check_split_k(n, k)
                split_ks.append(k)
                continue
        except ImpurityPartError as exc:
            result = exc
        yield k, name, result
    for name, states, ks, reached in (
            ("greedy_merge", merge_states, merge_ks[::-1],
             lambda state, k: state.labels <= k),
            ("greedy_split", split_states, split_ks,
             lambda state, k: state.labels >= k)):
        if ks:
            base = ml(n)
            for k, state in _walk(states(jd, base, f), ks, reached):
                yield k, name, state.result(k, f, base.masks_evaluated)


def _empty_record(k):
    record = {col: None for col in _CSV_COLUMNS}
    record["k"] = k
    return record


def _record(config: RunConfig, jd, f, k, name, result):
    """The report record of one k, refining the result first if asked.

    wall_ms is left for the caller to fill in.
    """
    record = _empty_record(k)
    try:
        if isinstance(result, ImpurityPartError):
            raise result
        e_max = result.e_max_achieved
        masks = result.masks_evaluated
        if config.refine:
            # impurity/e_q describe the refined partition; the e certificate
            # stays with the main algorithm, where the ratio is meaningful
            result = iterative_refine(jd, result.partition, f, config.max_iters)
            name += "+refine"
    except ImpurityPartError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
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
        record["assignment"] = [int(label) for label in result.partition.assignment]
    return record


def _write_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            row = []
            for col in _CSV_COLUMNS:
                value = record.get(col)
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(repr(value))
                else:
                    row.append(str(value))
            writer.writerow(row)


def run(config: RunConfig) -> dict:
    """Execute the sweep and write the report; returns the report dict.

    Per-k failures are recorded in their record's "error" field and do not
    abort the sweep. Records are ordered by k.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jd = ingest(config.input_path, config.input_format)
    dropped = []
    for item in caught:
        if isinstance(item.message, IngestWarning):
            dropped.extend(item.message.dropped_rows)
    f = entropy_spec() if config.impurity == "entropy" else gini_spec()
    lo, hi = config.k
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
        "config": {
            "input_path": str(config.input_path),
            "input_format": config.input_format,
            "impurity": config.impurity,
            "k": [lo, hi],
            "algorithm": config.algorithm,
            "refine": config.refine,
            "max_iters": config.max_iters,
            "mask_budget": config.mask_budget,
            "seed": config.seed,
            "output_path": str(config.output_path),
            "emit_assignment": config.emit_assignment,
        },
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
    if ":" in text:
        lo, _, hi = text.partition(":")
        return (int(lo), int(hi))
    value = int(text)
    return (value, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impuritypart",
        description="Partition probability-weighted data points to minimize "
                    "a concave impurity, with certified bounds.")
    parser.add_argument("--input", required=True, help="input data file")
    parser.add_argument("--format", choices=FORMATS, default="dense_csv")
    parser.add_argument("--impurity", choices=IMPURITIES, default="entropy")
    parser.add_argument("--k", type=_parse_k, required=True,
                        metavar="K|A:B", help="partition count or sweep range")
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    parser.add_argument("--refine", action="store_true",
                        help="run iterative refinement after the algorithm")
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--mask-budget", type=int, default=DEFAULT_MASK_BUDGET)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the report; algorithms are deterministic")
    parser.add_argument("--output", required=True, help="JSON report path")
    parser.add_argument("--emit-assignment", action="store_true",
                        help="include the per-point labels in each record")
    parser.add_argument("--emit-csv", metavar="PATH", default=None,
                        help="also write a flat per-k CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(
            input_path=args.input,
            output_path=args.output,
            input_format=args.format,
            impurity=args.impurity,
            k=args.k,
            algorithm=args.algorithm,
            refine=args.refine,
            max_iters=args.max_iters,
            mask_budget=args.mask_budget,
            seed=args.seed,
            emit_assignment=args.emit_assignment,
            csv_path=args.emit_csv,
        )
    except ValueError as exc:
        print(f"impuritypart: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except (OSError, ImpurityPartError, ValueError) as exc:
        print(f"impuritypart: input error: {exc}", file=sys.stderr)
        return 3
    if all(record["error"] is not None for record in report["records"]):
        print("impuritypart: every k in the sweep failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
