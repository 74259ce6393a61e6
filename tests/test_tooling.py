"""Checks on the program's surface rather than its results.

The benchmark tracer (perfbench/tracing.py) patches program names by string.
A refactor that drops or renames one of them makes a traced benchmark run
crash, so every name the tracer lists must keep resolving. Every exported
error must also be one some test expects to be raised, every export must be
used by the package or named in the README, no source module may import a
name it never uses or define a private module-level name that nothing in
the package loads, the README's report schema must name the config fields,
input keys and record keys the CLI writes, the README's `--format`,
`--impurity` and `--algorithm` bullets must name exactly the choices the
CLI accepts, the README's work caps must give the values the code uses,
and `python -m impuritypart` must run the CLI. Frozen objects must be
complete at construction: no function other than a __post_init__ may call
object.__setattr__, and no exported dataclass (nor cli.RunConfig) may take a
private field as a constructor argument. A partition count k is checked in
one place: no function other than prob.check_k may build a KTooSmall. Every
count argument follows one integer type rule: no function other than
prob.is_int may name np.integer, and no function other than
prob.check_max_iters may build a `max_iters must be ...` message. Label
sums become statistics in one place: no function other than
prob.stats_from_pxz may build a PartitionStats, and only it,
algorithms._merge_losses and algorithms._subset_tables may call
`.weighted(`. No function other than algorithms._result may build an
AlgoResult. Only algorithms._best_mask may write into a module-level name,
and only into _COVER_TABLES. Under tests/, only helpers.py may call hashlib,
so every digest of result bits is helpers.digest's, and each grid of the
timing driver tests/shapes.py runs on one small shape, so renaming a
private name it reads breaks tier-1, and its --against mode runs on
canned runs.
"""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

import impuritypart
from impuritypart import ImpuritySpec, algorithms, cli, ingestion
from impuritypart.cli import RunConfig

import shapes

TESTS = Path(__file__).resolve().parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"
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
    # N = 4: an auto sweep below, at, above and across N, one tracer op each
    sweeps = [(1, 3), (4, 4), (5, 9), (1, 9)]
    originals = {(owner, attr): getattr(OWNERS[owner], attr)
                 for _, names, _, _ in tracing.LAYERS for owner, attr in names}
    tracer = tracing.Tracer(OWNERS)
    with tracer.installed():
        for op, k in enumerate(sweeps):
            tracer.op = op
            config = RunConfig(input_path=str(data), input_format="counts", k=k,
                               output_path=str(tmp_path / f"r{op}.json"))
            report = cli.run(config)
            assert len(report["records"]) == k[1] - k[0] + 1
            assert all(record["error"] is None for record in report["records"])
    for op, k in enumerate(sweeps):
        layers = tracer.op_layers(op, 1.0)
        assert layers["cli.run.calls"] == 1, k
        assert layers["algorithms.max_likelihood_partition.calls"] == 1, k
        assert layers["prob.compute_stats.calls"] == 1, k
    assert all(getattr(OWNERS[owner], attr) is original
               for (owner, attr), original in originals.items())


def test_traced_exact_search_counts_candidates(tmp_path):
    tracing = load_tracing()
    rng = np.random.default_rng(77)
    data = tmp_path / "data.csv"
    np.savetxt(data, rng.integers(1, 50, size=(7, 5)), fmt="%d", delimiter=",")
    runs = [("ml", (2, 3)), ("oracle", (2, 2))]
    tracer = tracing.Tracer(OWNERS)
    with tracer.installed():
        for op, (algorithm, k) in enumerate(runs):
            tracer.op = op
            config = RunConfig(input_path=str(data),
                               output_path=str(tmp_path / f"{algorithm}.json"),
                               input_format="counts", k=k, algorithm=algorithm)
            report = cli.run(config)
            assert all(record["error"] is None for record in report["records"])
    ml = tracer.op_layers(0, 1.0)
    assert ml["algorithms.max_likelihood_partition.calls"] == 2
    assert ml["algorithms.max_likelihood_partition.masks"] == math.comb(5, 2) + math.comb(5, 3)
    oracle = tracer.op_layers(1, 1.0)
    assert oracle["algorithms.exhaustive_oracle.calls"] == 1
    assert oracle["algorithms.exhaustive_oracle.assignments"] == 2 ** 7


def test_package_import_loads_no_cli_modules():
    # the benchmark's set-up time includes `import impuritypart`; the CLI's
    # argparse, csv and json load only with impuritypart.cli
    src = str(Path(impuritypart.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, impuritypart; "
            "print(sorted({'argparse', 'csv', 'json', 'impuritypart.cli'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_module_entry_point_writes_a_report(tmp_path):
    # `python -m impuritypart` runs cli.main and exits with its code
    src = str(Path(impuritypart.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = tmp_path / "data.csv"
    data.write_text("3,1\n1,3\n2,2\n", encoding="utf-8")
    report = tmp_path / "r.json"
    done = subprocess.run([sys.executable, "-m", "impuritypart", "--input", str(data),
                           "--format", "counts", "--k", "2", "--output", str(report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(report.read_text(encoding="utf-8"))["schema"] == cli.SCHEMA


def test_every_exported_error_is_raised_in_some_test():
    # the names inside the first argument of every pytest.raises(...) call
    expected = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "raises"):
                expected.update(name.id for name in ast.walk(node.args[0])
                                if isinstance(name, ast.Name))
    errors = [name for name in impuritypart.__all__
              if isinstance(getattr(impuritypart, name), type)
              and issubclass(getattr(impuritypart, name), impuritypart.ImpurityPartError)
              and name != "ImpurityPartError"]
    assert len(errors) >= 15
    assert sorted(set(errors) - expected) == []


def test_no_source_module_imports_a_name_it_never_uses():
    # no linter runs here, so a stale import would go unnoticed; the
    # exceptions are the names the tracer patches on cli without cli
    # calling them
    patched = {("cli", attr) for _, names, _, _ in load_tracing().LAYERS
               for owner, attr in names if owner == "cli"}
    unused = []
    for path in sorted(Path(impuritypart.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            # a package re-exports what it lists in __all__
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(name.value for name in node.value.elts)
        unused += [(path.stem, name) for name in sorted(imported - used)
                   if (path.stem, name) not in patched]
    assert unused == []


def test_every_private_module_name_is_used():
    # a module-level `_name` that nothing in the package loads, outside its
    # own definition, is a leftover helper
    statements = [(path.stem, node)
                  for path in sorted(Path(impuritypart.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    loads = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(statement)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
             for _, statement in statements]
    private = []
    for index, (module, statement) in enumerate(statements):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(statement.name)]
        else:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
        private += [(index, module, target.id) for target in targets
                    if isinstance(target, ast.Name) and target.id.startswith("_")
                    and not target.id.startswith("__")]
    assert len(private) >= 20
    unused = [(module, name) for index, module, name in private
              if not any(name in used for other, used in enumerate(loads)
                         if other != index)]
    assert unused == []


def node_owners(is_target):
    """(module, innermost function around it, or None) for each syntax node
    in the package's source for which is_target(node) holds."""
    def owners(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from owners(child, child.name)
                continue
            if is_target(child):
                yield owner
            yield from owners(child, owner)

    return [(path.stem, owner)
            for path in sorted(Path(impuritypart.__file__).parent.glob("*.py"))
            for owner in owners(ast.parse(path.read_text(encoding="utf-8")), None)]


def call_owners(is_target):
    """node_owners of the calls for which is_target(call) holds."""
    return node_owners(lambda node: isinstance(node, ast.Call) and is_target(node))


def calls_named(name):
    """call_owners of the calls of `name`, bare or as an attribute."""
    return call_owners(lambda call: getattr(call.func, "id", None) == name
                       or getattr(call.func, "attr", None) == name)


# the method calls that change a list, dict or set in place
MUTATORS = {"setdefault", "update", "clear", "pop", "append", "add"}


def module_writes():
    """(module, function, name) for each write, inside a function, into a
    name assigned at the top level of its module (a subscript store or
    del, or a MUTATORS call), and for each name of a `global` statement,
    which makes a module-level name of its own."""
    def root(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return getattr(node, "id", None)

    def written(node):
        if isinstance(node, ast.Global):
            return node.names
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            return [root(node)]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            return [root(node.func.value)]
        return []

    def writes(node, owner, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from writes(child, child.name, names)
                continue
            if owner is not None:
                yield from ((owner, name) for name in written(child)
                            if name in names or isinstance(child, ast.Global))
            yield from writes(child, owner, names)

    found = []
    for path in sorted(Path(impuritypart.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {target.id for node in tree.body
                 for target in getattr(node, "targets", [getattr(node, "target", None)])
                 if isinstance(target, ast.Name)}
        found += [(path.stem, *write) for write in writes(tree, None, names)]
    return found


def test_one_function_writes_module_state():
    # state that a call leaves in a module makes the next call's cost
    # depend on the calls before it; the one such state left is each
    # joint's kept coverage table, which only _best_mask writes
    assert module_writes() == [("algorithms", "_best_mask", "_COVER_TABLES")]


def test_only_post_init_sets_frozen_attributes():
    # a frozen object set up later (on first use, say) can be seen half
    # built; object.__setattr__ belongs in __post_init__ alone
    owners = call_owners(lambda call: isinstance(call.func, ast.Attribute)
                         and call.func.attr == "__setattr__"
                         and getattr(call.func.value, "id", None) == "object")
    assert len(owners) >= 4
    assert [entry for entry in owners if entry[1] != "__post_init__"] == []


def test_no_private_field_is_a_constructor_argument():
    # a `_name` field that __init__ takes only looks internal: any caller
    # can pass it and bypass what __post_init__ derives or checks
    classes = [RunConfig] + [value for value in map(vars(impuritypart).get,
                                                    impuritypart.__all__)
                             if isinstance(value, type) and is_dataclass(value)]
    assert len(classes) >= 4
    exposed = [(cls.__name__, field.name) for cls in classes
               for field in fields(cls)
               if field.init and field.name.startswith("_")]
    assert exposed == []


def test_only_check_k_raises_k_too_small():
    # one check of k: a second copy of the k < 1 test would drift from it
    # (the float k that check_k refuses, say)
    assert calls_named("KTooSmall") == [("prob", "check_k")]


def test_one_function_spells_the_integer_type_rule():
    # every count (k, n, max_iters) takes prob.is_int's rule; a copy of it
    # drifts (a numpy int refused by one caller and passed by another)
    owners = node_owners(lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "integer")
    assert owners == [("prob", "is_int")]


def test_one_function_builds_the_max_iters_messages():
    # the messages in f-strings are constants inside the JoinedStr
    owners = node_owners(lambda node: isinstance(node, ast.Constant)
                         and isinstance(node.value, str)
                         and node.value.startswith("max_iters must be"))
    assert owners == [("prob", "check_max_iters")] * 2


def test_one_function_builds_every_result():
    # the e_max default (the result's own e_q) and the trace are set in
    # one place, not once per algorithm
    assert calls_named("AlgoResult") == [("algorithms", "_result")]


def test_one_loop_computes_the_coverage():
    # the k < N searches' float F comes from one walk; a second loop that
    # recomputes it (a re-check of candidates, say) can drift from its bits
    owners = {owner for module, owner in calls_named("maximum")
              if module == "algorithms"}
    assert owners == {"_fold", "_scan_mask"}


def test_one_budget_sizes_every_blocked_loop():
    # the coverage table's row blocks, refinement's row blocks, and the
    # oracle's labelling blocks and subset-sum chunks read one budget of
    # bytes; a block size counted in rows lets a loop's memory grow with K
    owners = node_owners(lambda node: isinstance(node, ast.Name)
                         and node.id == "_BLOCK_BYTES"
                         and isinstance(node.ctx, ast.Load))
    assert owners == [("algorithms", "_coverage_table"),
                      ("algorithms", "_row_blocks"),
                      ("algorithms", "exhaustive_oracle"),
                      ("algorithms", "_subset_tables")]


def test_one_function_turns_label_sums_into_statistics():
    # a second copy of the nonempty-total or conditional-row rules would
    # drift from stats_from_pxz's bits; the greedy states keep its stats
    assert calls_named("PartitionStats") == [("prob", "stats_from_pxz")]
    assert calls_named("weighted") == [("algorithms", "_merge_losses"),
                                       ("algorithms", "_subset_tables"),
                                       ("prob", "stats_from_pxz")]


def test_every_export_is_used_or_documented():
    # an export no module uses and the README does not name is surface that
    # does nothing; a word inside a flag (emit in `--emit-csv`) names nothing
    package = Path(impuritypart.__file__).parent
    used = {node.id for path in package.glob("*.py") if path.stem != "__init__"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name)}
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S)
    named = {word for span in spans
             for word in re.findall(r"(?<![\w-])\w+(?![\w-])", span)}
    assert sorted(set(impuritypart.__all__) - used - named) == []


def test_readme_documents_the_report(tmp_path):
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    # the `config` bullet names each field as `name` (type), in order
    config = readme.split("\n- `config`:", 1)[1].split("\n- `input`:", 1)[0]
    assert re.findall(r"`(\w+)`\s+\(", config) == [
        field.name for field in fields(RunConfig) if field.name != "csv_path"]
    # the record table has one `key` row per key a record can hold
    keys = list(cli._CSV_COLUMNS + cli._REFINE_KEYS + ("assignment",))
    assert re.findall(r"^\| `(\w+)` \|", readme, flags=re.M) == keys
    data = tmp_path / "data.csv"
    np.savetxt(data, np.eye(3) + 1, fmt="%d", delimiter=",")
    report = cli.run(RunConfig(input_path=str(data), input_format="counts",
                               output_path=str(tmp_path / "r.json"), k=(2, 4),
                               refine=True, emit_assignment=True))
    assert [list(record) for record in report["records"]] == [keys] * 3
    # the `input` bullet names each key as `name` (type), in written order
    inputs = readme.split("\n- `input`:", 1)[1].split("\n- `records`:", 1)[0]
    assert re.findall(r"`(\w+)`\s+\(", inputs) == list(report["input"])
    assert list(report["input"]) == ["n_rows", "n_cols", "dropped_rows"]


def test_readme_caps_match_the_code():
    # every `NAME = value` in "Work caps", value an integer (thousands
    # separated by commas) or a power 2^x, is the module constant NAME, and
    # every cap or budget constant of the code is given there
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    caps = readme.split("\n## Work caps\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for name, text in re.findall(r"(?:\w+\.)?([A-Z][A-Z_]+) = (\d[\d,]*(?:\^\d+)?)",
                                 caps):
        base, _, power = text.replace(",", "").partition("^")
        documented.add((name, int(base) ** int(power or 1)))
    code = {(name, value) for module in (algorithms, ingestion)
            for name, value in vars(module).items()
            if name.endswith(("_CAP", "_BUDGET"))}
    assert len(code) == 4
    assert documented == code


def test_readme_choice_lists_match_the_code():
    # the first sentence of each choice flag's bullet, parentheses left
    # out, names every choice in the code's order and nothing else
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    for flag, choices in (("--format", ingestion.FORMATS),
                          ("--impurity", cli.IMPURITIES),
                          ("--algorithm", cli.ALGORITHMS)):
        bullet = readme.split(f"\n- `{flag}`:", 1)[1].split("\n- ", 1)[0]
        count = 1
        while count:
            bullet, count = re.subn(r"\([^()]*\)", "", bullet)
        sentence = re.split(r"\.\s", bullet, maxsplit=1)[0]
        assert re.findall(r"`(\w+)`", sentence) == list(choices), flag


def test_one_function_builds_every_digest():
    # a second digest recipe (any hashlib name, import or from-import)
    # would give two trees that agree different digests, and the ones
    # CHANGES.md records would stop matching
    callers = [path.name for path in sorted(TESTS.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if "hashlib" in (getattr(node, "id", None),
                                getattr(node, "module", None),
                                getattr(node, "name", None))]
    assert set(callers) == {"helpers.py"}


def test_every_timing_grid_runs_on_a_small_shape(capsys):
    # the driver reads _scan_mask, _coverage_table, _coverage_candidates,
    # _best_mask and _COVER_TABLES by name
    agree, *digests = shapes.mask(25, 1, ns=(6,), ms=(300,), named=())
    digests += [shapes.oracle(29, 1, ks=(7,), ns=(2,), below=0),
                shapes.refine(30, 1, ms=(2000,), ns=(2,), ks=(30,)),
                shapes.walk(33, 1, ms=(1000,), ns=(20,)),
                shapes.read(36, 1, ms=(1000,), ns=(4,))]
    assert agree
    assert all(re.fullmatch("[0-9a-f]{16}", text) for text in digests)
    out = capsys.readouterr().out
    assert out.count("digest of") == 6
    # every grid prints a total that --against can read
    assert len(re.findall(r"^total (.+): ([0-9.]+) s$", out, re.M)) == 10


def test_against_alternates_trees_and_counts_rounds(capsys):
    # canned runs: tree "b" is faster in every round but the third, and
    # its third run prints another digest
    calls = []
    times = {"a": iter([1.0, 1.2, 0.9, 1.1]), "b": iter([0.8, 1.0, 1.5, 1.0])}

    def run(tree):
        calls.append(tree)
        bits = "0123456789abcdef" if len(calls) != 6 else "fedcba9876543210"
        return (f"total of 3 shapes: {next(times[tree]):.3f} s\n"
                f"digest of the bits: {bits}\n")

    medians, wins, agree = shapes.against(run, ("a", "b"), 4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert medians == {"of 3 shapes": (1.05, 1.0)}
    assert wins == {"of 3 shapes": (1, 3)} and not agree
    assert "rounds won 1 / 3" in capsys.readouterr().out
