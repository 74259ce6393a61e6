"""Output checks. An op fails when any of its records carries an error or any
check below finds a problem; `failed_frac` is the share of ops that failed.

Every check reads only the JSON reports that `cli.run` returns. References
are reports of extra invocations run once, outside the timed region, to
compare the op's output against.
"""

# Float slack for comparing values the program computes along different paths.
TOL = 1e-9


def record_problems(record, impurity):
    """Checks every record must pass: no error, the bound sandwich, Fano."""
    k = record["k"]
    if record["error"] is not None:
        return [f"k={k}: {record['error']}"]
    problems = []
    if not (record["lower_l"] - TOL <= record["impurity"] <= record["upper_u"] + TOL):
        problems.append(f"k={k}: impurity {record['impurity']!r} outside "
                        f"[{record['lower_l']!r}, {record['upper_u']!r}]")
    if impurity == "entropy" and not abs(record["fano"] - record["upper_u"]) <= TOL:
        problems.append(f"k={k}: fano {record['fano']!r} != upper_u {record['upper_u']!r}")
    return problems


def _sweep(reports, references):
    records = reports[0]["records"]
    return [f"k={b['k']}: impurity rose from {a['impurity']!r} to {b['impurity']!r}"
            for a, b in zip(records, records[1:])
            if b["impurity"] > a["impurity"] + TOL]


def _refine(reports, references):
    refined = reports[0]["records"][0]["impurity"]
    unrefined = references[0]["records"][0]["impurity"]
    if refined > unrefined + TOL:
        return [f"refined impurity {refined!r} > unrefined {unrefined!r}"]
    return []


def _certify(reports, references):
    oracle = reports[1]["records"][0]
    ml = references[0]["records"][0]
    problems = []
    if oracle["impurity"] > ml["impurity"] + TOL:
        problems.append(f"oracle impurity {oracle['impurity']!r} > "
                        f"ml impurity {ml['impurity']!r} at k=3")
    if oracle["e_max_achieved"] != ml["e_max_achieved"]:
        problems.append(f"oracle e_max {oracle['e_max_achieved']!r} != "
                        f"ml e_max {ml['e_max_achieved']!r} on the dyadic input")
    return problems


WORKLOAD_CHECKS = {"sweep": _sweep, "refine": _refine, "certify": _certify}


def op_problems(workload, impurity, reports, references):
    """Every problem found in one op's reports; empty when the op passed."""
    problems = [p for report in reports + references
                for record in report["records"]
                for p in record_problems(record, impurity)]
    if problems:  # the workload checks read fields an errored record lacks
        return problems
    return WORKLOAD_CHECKS[workload](reports, references)


def failed_frac(per_op_problems):
    """Share of ops with at least one problem, out of all ops attempted."""
    return sum(1 for problems in per_op_problems if problems) / len(per_op_problems)
