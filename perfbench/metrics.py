"""Names, units and bounds of every metric the benchmark reports.

`bound` is the share of the parent commit's median by which an end-to-end
metric may get worse before a change counts as a regression. The wall and
set-up times carry the widest bound allowed because the machine the
benchmark was tuned on (2 vCPUs shared with other tenants) ran the same
single-threaded code up to 1.8x slower for minutes at a time.
"""

from tracing import LAYERS

RUN_SECONDS = 30

# name, unit, better, bound
END_TO_END = [
    # median seconds for one op, ingestion and report write included
    ("wall_s", "s", "lower", 0.25),
    # peak resident memory of the process that runs the ops
    ("peak_rss_mib", "MiB", "lower", 0.15),
    # median seconds to import impuritypart and build the spec in a fresh process
    ("setup_s", "s", "lower", 0.25),
    # mean reported impurity over one op's records
    ("impurity_mean", "impurity", "lower", 0.05),
    # share of attempted ops that passed every check, 1 - failed_frac
    ("ok_frac", "fraction", "higher", 0.01),
]


def per_layer():
    """(name, unit, better) of every per-layer metric, in report order.

    Less work, time and memory is better; only converging more often is not.
    """
    out = []
    for name, _, _, units in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.share", "fraction")]
        out += [(f"{name}.{key}", unit) for key, unit in units.items()]
    out.append(("trace.overhead_frac", "fraction"))
    return [(name, unit, "higher" if name.endswith(".converged_frac") else "lower")
            for name, unit in out]
