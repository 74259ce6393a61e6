"""Self-test of the benchmark's output checks.

Usage, from the repository root: python3 perfbench/selftest.py

Runs a small sweep through `impuritypart.cli.run`, confirms that its report
passes every check, then injects a record whose impurity lies above its
upper bound and confirms that the check catches it and failed_frac rises.
Exits with code 0 when every assertion holds.
"""

import copy
import sys
from pathlib import Path

import numpy as np

from checks import failed_frac, op_problems
from workloads import skewed_counts


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from impuritypart import cli

    work = root / ".perfbench-work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    data = work / "counts.csv"
    np.savetxt(data, skewed_counts(np.random.default_rng(0), 300, 6),
               fmt="%d", delimiter=",")
    report = cli.run(cli.RunConfig(
        input_path=str(data), output_path=str(work / "report.json"),
        input_format="counts", impurity="entropy", k=(2, 12)))

    good = op_problems("sweep", "entropy", [report], [])
    if good:
        print(f"selftest: an unmodified report failed its checks: {good}")
        return 1
    broken = copy.deepcopy(report)
    record = broken["records"][len(broken["records"]) // 2]
    record["impurity"] = record["upper_u"] + 0.5
    bad = op_problems("sweep", "entropy", [broken], [])
    if not any("outside" in problem for problem in bad):
        print(f"selftest: the sandwich check missed an injected record: {bad}")
        return 1
    before = failed_frac([good, good])
    after = failed_frac([good, bad])
    if not after > before:
        print(f"selftest: failed_frac did not rise: {before} -> {after}")
        return 1
    print(f"selftest: ok; failed_frac {before} -> {after} after the injected record")
    return 0


if __name__ == "__main__":
    sys.exit(main())
