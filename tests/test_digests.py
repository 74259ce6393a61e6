"""The CLI's report bits on small seeded inputs, one digest per plan.

Each written report, read back without its paths and records' wall_ms and
hashed by helpers.digest, must equal the digest in report_digests.json for
every plan of cli._outcomes under entropy and Gini, and the timing driver's
walk grid on one small shape must print WALK, the digest of every greedy
state's statistics. The file records the numpy and BLAS that made it, since
refinement's GEMMs round by the BLAS; on another, both tests skip. Bits
changed on purpose are recorded with

    PYTHONPATH=src python tests/test_digests.py

and WALK with `python tests/shapes.py src walk`'s digest on that shape.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from impuritypart import algorithms, cli
from impuritypart.cli import RunConfig

import shapes
from helpers import digest

DIGESTS = Path(__file__).with_name("report_digests.json")
# shapes.walk(33, 1, ms=(1000,), ns=(20,)): the merge and split walks on
# 1000 x 20 skewed counts under entropy and Gini
WALK = "fec5c37195251dbf"
# (plan, input, RunConfig fields): at 2000 x 12, ml scans at k = 1 and 2
# and builds the coverage table from k = 3, and the refined auto plan
# merges, splits and stops both converged and at max_iters
PLANS = (("ml below N", "skewed", {"algorithm": "ml", "k": (1, 11)}),
         ("ml at and above N", "skewed", {"algorithm": "ml", "k": (12, 14)}),
         ("auto", "skewed", {"k": (2, 30)}),
         ("oracle", "small", {"algorithm": "oracle", "k": (2, 3)}),
         ("auto refined", "skewed", {"k": (10, 14), "refine": True,
                                     "max_iters": 20, "emit_assignment": True}))


def machine() -> dict:
    """numpy's version and the BLAS's name, version and configuration, each
    None where numpy does not say (its show_config took no mode before 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__,
            "blas": [blas.get(key) for key in
                     ("name", "version", "openblas configuration")]}


def report_digests(directory: Path) -> dict:
    """{"plan, impurity": digest of its report's bits} for every plan, the
    inputs written to `directory`."""
    rng = np.random.default_rng(31)
    for name, counts in (("skewed", np.floor(1000 * rng.random((2000, 12)) ** 4) + 1),
                         ("small", rng.integers(1, 50, size=(9, 4)))):
        np.savetxt(directory / f"{name}.csv", counts, fmt="%d", delimiter=",")
    digests = {}
    for impurity in cli.IMPURITIES:
        for plan, data, fields in PLANS:
            cli.run(RunConfig(
                input_path=str(directory / f"{data}.csv"), input_format="counts",
                impurity=impurity, output_path=str(directory / "report.json"),
                **fields))
            report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
            del report["config"]["input_path"], report["config"]["output_path"]
            for record in report["records"]:
                del record["wall_ms"]
            digests[f"{plan}, {impurity}"] = digest(report)
    return digests


def recorded_here() -> dict:
    """report_digests.json's digests, skipping the test on a numpy or BLAS
    other than the one that made them."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if machine() != recorded["machine"]:
        pytest.skip(f"digests made on {recorded['machine']}, this is {machine()}")
    return recorded["digests"]


def test_every_plan_gives_the_recorded_bits(tmp_path, monkeypatch):
    recorded = recorded_here()
    # the k < N plan must walk every mask and a table's candidates, so a
    # change to _best_mask's rule cannot drop a search from the digests
    walks = []
    scan_mask = algorithms._scan_mask

    def spy(p, k, candidates=None):
        walks.append("every mask" if candidates is None else "candidates")
        return scan_mask(p, k, candidates)

    monkeypatch.setattr(algorithms, "_scan_mask", spy)
    assert report_digests(tmp_path) == recorded
    assert len(walks) == 2 * 11
    assert set(walks) == {"every mask", "candidates"}


def test_the_walk_grid_gives_the_recorded_bits():
    recorded_here()
    assert shapes.walk(33, 1, ms=(1000,), ns=(20,)) == WALK


@pytest.mark.parametrize("show_config", [lambda: None, lambda mode: {}],
                         ids=["numpy 1.24", "no BLAS entry"])
def test_another_numpy_skips(tmp_path, monkeypatch, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    with pytest.raises(pytest.skip.Exception, match="this is"):
        test_every_plan_gives_the_recorded_bits(tmp_path, monkeypatch)
    with pytest.raises(pytest.skip.Exception, match="this is"):
        test_the_walk_grid_gives_the_recorded_bits()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = report_digests(Path(directory))
    DIGESTS.write_text(json.dumps({"machine": machine(), "digests": digests},
                                  indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
