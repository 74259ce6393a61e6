"""Benchmark of the impuritypart CLI: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,refine,certify} --seed N \\
        --seconds S --trace {0,1}

The run writes the workload's inputs from the seed under .perfbench-work/,
times set-up in fresh processes, then starts one worker process that runs
the workload's ops in a closed loop for S seconds through
`impuritypart.cli.run` and checks every op's output. It prints each metric
by name with its unit, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of metrics.END_TO_END; with --trace 1 they are the
per-layer ones of metrics.per_layer(), from alternating traced and untraced
ops, and the spans are written next to the inputs.

The program is used from source (src/ on PYTHONPATH); nothing is installed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from workloads import WORKLOADS, write_inputs

SETUP_PROBES = 6  # fresh processes that only time set-up, besides the worker
DEADLINE_S = 170  # the whole run must end within 180 s


def _l3_size():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                  encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _worker(plan_path, env, deadline, *extra):
    """Run the worker to completion and return its JSON result."""
    worker = Path(__file__).with_name("worker.py")
    proc = subprocess.run(
        [sys.executable, str(worker), str(plan_path), *extra], env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _plan(workload, seed, seconds, trace, work):
    spec = WORKLOADS[workload]
    inputs = write_inputs(workload, seed, work)

    def configs(role):
        out = []
        for index, entry in enumerate(spec[role]):
            kw = {key: value for key, value in entry.items() if key != "input"}
            out.append({"input_path": inputs[entry["input"]],
                        "input_format": "counts", "impurity": spec["impurity"],
                        "output_path": str(work / f"{role}-{index}.json"), **kw})
        return out

    return {"workload": workload, "impurity": spec["impurity"],
            "seconds": seconds, "trace": trace,
            "op": configs("op"), "reference": configs("reference"),
            "spans_path": str(work / "spans.json")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "impuritypart" / "__init__.py").is_file():
        print("perfbench: src/impuritypart not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(
        _plan(args.workload, args.seed, args.seconds, args.trace, work)))

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    def probe():
        return _worker(plan_path, env, deadline, "--setup-only")["setup_s"]

    # Half the set-up probes run before the ops and half after, so that one
    # burst of load from other tenants of the machine cannot set the median.
    try:
        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        result = _worker(plan_path, env, deadline)
        setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(result["setup_s"])

    ops = result["ops"]
    failed_frac = checks.failed_frac([op["problems"] for op in ops])
    failed = round(failed_frac * len(ops))
    machine = dict(result["machine"], nproc=nproc, blas_threads=nproc, l3=_l3_size())
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} closed loop, 1 client")
    print("machine: " + " ".join(f"{k}={v}" for k, v in sorted(machine.items())))
    print(f"ops: {len(ops)} attempted, {failed} failed; untraced op wall_s over "
          f"{len(walls)}: median {statistics.median(walls):.4f} "
          f"min {min(walls):.4f} max {max(walls):.4f}")
    for op in ops:
        for problem in op["problems"][:3]:
            print(f"check failed: {problem}")

    end_to_end = {
        "wall_s": result["wall_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "setup_s": statistics.median(setup),
        "impurity_mean": result["impurity_mean"],
        "ok_frac": 1.0 - failed_frac,
    }
    units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    for name, value in end_to_end.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {failed_frac} fraction")

    if args.trace:
        reported = {}
        for name, unit, _ in metrics.per_layer():
            if name == "trace.overhead_frac":
                value = result["traced_wall_s"] / result["wall_s"] - 1.0
            else:
                values = [layers[name] for layers in result["layers"] if name in layers]
                if len(values) < len(result["layers"]):  # a count ops lack is absent
                    continue
                value = statistics.median(values)
            reported[name] = {"value": value, "unit": unit}
            print(f"{name} = {value} {unit}")
    else:
        reported = {name: {"value": end_to_end[name], "unit": units[name]}
                    for name in units}

    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
               "metrics": reported}
    (work / "summary.json").write_text(json.dumps(
        dict(summary, machine=machine, setup_s=setup, ops=ops), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
