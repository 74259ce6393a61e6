"""Write BENCHMARK.json from the workload and metric definitions.

Usage, from the repository root: python3 perfbench/describe.py
"""

import json

import metrics
from workloads import WORKLOADS


def benchmark():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": metrics.RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in metrics.END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in metrics.per_layer()],
    }


if __name__ == "__main__":
    with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(benchmark(), fh, indent=2)
        fh.write("\n")
