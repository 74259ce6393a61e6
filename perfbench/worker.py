"""Runs one workload's ops in a fresh process and prints what it measured.

Usage: python3 perfbench/worker.py PLAN.json [--setup-only]

`run.py` writes the plan and starts this script with `src` on PYTHONPATH.
Nothing from impuritypart or numpy is imported before the set-up timer
starts. The last line of standard output is one JSON object.
"""

import contextlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback


def _run_op(cli, configs):
    """One op: every invocation in turn. Returns (wall_s, reports, error)."""
    start = time.perf_counter()
    try:
        reports = [cli.run(config) for config in configs]
    except Exception:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, reports, None


def measure(plan, impuritypart):
    """Run ops for plan["seconds"], then check every op's output.

    With tracing on, untraced and traced ops alternate, starting untraced, so
    the run yields both the per-layer numbers and the tracing overhead.
    """
    from impuritypart import algorithms, cli

    import checks
    import tracing

    configs = [cli.RunConfig(**kw) for kw in plan["op"]]
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer({"cli": cli, "algorithms": algorithms,
                                 "ImpuritySpec": impuritypart.ImpuritySpec})
    ops = []
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < plan["seconds"] \
            or (tracer is not None and len(ops) < 2):
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
        with tracer.installed() if traced else contextlib.nullcontext():
            wall_s, reports, error = _run_op(cli, configs)
        ops.append({"wall_s": wall_s, "traced": traced, "reports": reports,
                    "error": error})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = []
    reference_error = None
    try:
        references = [cli.run(cli.RunConfig(**kw)) for kw in plan["reference"]]
    except Exception:  # without references no op can be checked
        reference_error = traceback.format_exc()
    for op in ops:
        if op["error"] is not None or reference_error is not None:
            op["problems"] = [op["error"] or f"reference failed: {reference_error}"]
        else:
            op["problems"] = checks.op_problems(
                plan["workload"], plan["impurity"], op["reports"], references)

    passed = [op for op in ops if not op["problems"]]
    impurity_mean = None
    if passed:
        impurities = [record["impurity"] for report in passed[0]["reports"]
                      for record in report["records"]]
        impurity_mean = sum(impurities) / len(impurities)

    layers = []
    if tracer is not None:
        layers = [tracer.op_layers(index, op["wall_s"])
                  for index, op in enumerate(ops) if op["traced"]]
        tracer.dump(plan["spans_path"])
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    traced = [op["wall_s"] for op in ops if op["traced"]]
    return {
        "ops": [{"wall_s": op["wall_s"], "traced": op["traced"],
                 "problems": op["problems"]} for op in ops],
        "wall_s": statistics.median(untraced),
        "traced_wall_s": statistics.median(traced) if traced else None,
        "peak_rss_mib": peak_rss_mib,
        "impurity_mean": impurity_mean,
        "layers": layers,
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import impuritypart
    getattr(impuritypart, f"{plan['impurity']}_spec")()
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if "--setup-only" not in argv:
        import numpy
        result.update(measure(plan, impuritypart))
        result["machine"] = {"python": platform.python_version(),
                             "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
