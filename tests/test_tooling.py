"""The benchmark tracer (perfbench/tracing.py) patches program names by string.

A refactor that drops or renames one of them makes a traced benchmark run
crash, so every name the tracer lists must keep resolving.
"""

import importlib.util
from pathlib import Path

import numpy as np

from impuritypart import ImpuritySpec, RunConfig, algorithms, cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = {"cli": cli, "algorithms": algorithms, "ImpuritySpec": ImpuritySpec}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [(owner, attr) for _, names, _, _ in tracing.LAYERS
               for owner, attr in names]
    assert targets
    missing = [(owner, attr) for owner, attr in targets
               if not callable(getattr(OWNERS[owner], attr, None))]
    assert missing == []


def test_traced_sweep_runs_one_likelihood_step(tmp_path):
    tracing = load_tracing()
    rng = np.random.default_rng(76)
    data = tmp_path / "data.csv"
    np.savetxt(data, rng.integers(1, 50, size=(40, 4)), fmt="%d", delimiter=",")
    config = RunConfig(input_path=str(data), output_path=str(tmp_path / "r.json"),
                       input_format="counts", k=(1, 9))
    originals = {(owner, attr): getattr(OWNERS[owner], attr)
                 for _, names, _, _ in tracing.LAYERS for owner, attr in names}
    tracer = tracing.Tracer(OWNERS)
    with tracer.installed():
        report = cli.run(config)
    assert all(record["error"] is None for record in report["records"])
    layers = tracer.op_layers(0, 1.0)
    assert layers["cli.run.calls"] == 1
    assert layers["algorithms.max_likelihood_partition.calls"] == 1
    assert layers["prob.compute_stats.calls"] == 1
    assert all(getattr(OWNERS[owner], attr) is original
               for (owner, attr), original in originals.items())
