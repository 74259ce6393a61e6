"""Spans around the public functions of each impuritypart module.

The traced run replaces the names that `cli` and `algorithms` look up (and
`ImpuritySpec.f_values`) with wrappers that record a span per call, then puts
the originals back; no program code changes. A span is
[name, start, end, parent index, op id, counts]. Spans stay in memory and are
written out when the run ends.

Work counts come from public return values only: `masks_evaluated` and the
`trace` events of split, merge and refinement. A count the return value no
longer carries is reported as absent.
"""

import contextlib
import json
import os
import time
import tracemalloc


def _ingest_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _stats_counts(args, kwargs, result):
    jd = args[0]
    return {"bytes_computed": jd.n_rows * jd.n_cols * 8}


def _mask_counts(args, kwargs, result):
    return {"masks": result.masks_evaluated}


def _oracle_counts(args, kwargs, result):
    return {"assignments": result.masks_evaluated}


def _events(result, kind):
    if getattr(result, "trace", None) is None:
        return None
    return [event for event in result.trace if event.get("event") == kind]


def _split_counts(args, kwargs, result):
    splits = _events(result, "split")
    if splits is None:
        return {"rounds": None, "fallbacks": None}
    return {"rounds": len(splits),
            "fallbacks": sum(1 for e in splits if e.get("fallback"))}


def _merge_counts(args, kwargs, result):
    merges = _events(result, "merge")
    if merges is None:
        return {"merges": None, "pairs_scored": None}
    pairs = (None if any("evaluated" not in e for e in merges)
             else sum(len(e["evaluated"]) for e in merges))
    return {"merges": len(merges), "pairs_scored": pairs}


def _refine_counts(args, kwargs, result):
    passes = _events(result, "iteration")
    if passes is None:
        return {"passes": None, "moved": None, "converged_frac": None}
    return {"passes": len(passes),
            "moved": sum(e["changed"] for e in passes),
            "converged_frac": int(bool(passes) and passes[-1]["changed"] == 0)}


# name, the (owner, attribute) names it covers, counts from one call, and the
# unit of each count. Owners are "cli", "algorithms" and "ImpuritySpec".
LAYERS = [
    ("cli.run", [("cli", "run")], None, {}),
    ("ingestion.ingest", [("cli", "ingest")], _ingest_counts, {"bytes": "bytes"}),
    ("prob.compute_stats", [("algorithms", "compute_stats")], _stats_counts,
     {"bytes_computed": "bytes"}),
    ("impurity.f_values", [("ImpuritySpec", "f_values")], None, {}),
    ("algorithms.max_likelihood_partition",
     [("cli", "max_likelihood_partition"), ("algorithms", "max_likelihood_partition")],
     _mask_counts, {"masks": "count"}),
    ("algorithms.greedy_split", [("cli", "greedy_split")], _split_counts,
     {"rounds": "count", "fallbacks": "count"}),
    ("algorithms.greedy_merge", [("cli", "greedy_merge")], _merge_counts,
     {"merges": "count", "pairs_scored": "count"}),
    ("algorithms.iterative_refine", [("cli", "iterative_refine")], _refine_counts,
     {"passes": "count", "moved": "count", "converged_frac": "fraction",
      "peak_mib": "MiB"}),
    ("algorithms.exhaustive_oracle", [("cli", "exhaustive_oracle")], _oracle_counts,
     {"assignments": "count"}),
    ("bounds", [("cli", "upper_bound"), ("cli", "lower_bound"),
                ("cli", "approximation_ratio"), ("cli", "fano_bound")], None, {}),
]


# Layers whose tracemalloc peak inside the span is reported as .peak_mib.
MALLOC_LAYERS = ("algorithms.iterative_refine",)


class Tracer:
    """Records spans for the calls made while its wrappers are installed.

    `owners` maps the owner names in LAYERS to the objects to patch.
    """

    def __init__(self, owners):
        self.owners = owners
        self.spans = []
        self.op = 0
        self._stack = []

    def _wrap(self, name, fn, counts):
        malloc = name in MALLOC_LAYERS

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if malloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            found = counts(args, kwargs, result) if counts else {}
            if malloc:
                found["peak_mib"] = peak / 2**20
            span[5] = found
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer's names for the duration of the block."""
        saved = []
        try:
            for name, targets, counts, _ in LAYERS:
                wrappers = {}
                for owner_name, attr in targets:
                    owner = self.owners[owner_name]
                    original = getattr(owner, attr)
                    if id(original) not in wrappers:  # one wrapper per function
                        wrappers[id(original)] = self._wrap(name, original, counts)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op_layers(self, op, wall_s):
        """Per-layer metrics of one op, keyed "<layer>.<metric>".

        Self time is a span's duration minus the time its child spans cover;
        calls in one thread nest, so children never overlap. Counts are summed
        over calls, except that a `_frac` count is averaged and `peak_mib` is
        the largest. A count some call could not derive is absent.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name, _, _, units in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out.update({f"{name}.{key}": 0 for key in units})
        absent = set()
        for index, (name, start, end, _, span_op, counts) in enumerate(self.spans):
            if span_op != op:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[index]
            for key, value in counts.items():
                metric = f"{name}.{key}"
                if value is None:
                    absent.add(metric)
                elif key == "peak_mib":
                    out[metric] = max(out[metric], value)
                else:
                    out[metric] += value
        for name, _, _, units in LAYERS:
            calls = out[f"{name}.calls"]
            out[f"{name}.share"] = out[f"{name}.self_s"] / wall_s
            for key in units:
                if key.endswith("_frac") and calls:
                    out[f"{name}.{key}"] /= calls
        for metric in absent:
            del out[metric]
        return out

    def dump(self, path):
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, fh)
