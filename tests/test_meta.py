"""Meta-tests: documentation and harness completeness.

These enforce the repository's own standards: every public item is
documented and the docs index matches the code.
"""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

#: Reference or checker modules that only tests drive, with the reason
#: each stays although no program file imports it.
TEST_DRIVEN_MODULES = {
    "repro.cluster.chaos": "node-kill/partition campaigns the cluster tests run",
    "repro.online.bound": "the 2x miss-bound checker the property tests use",
    "repro.oracle.columnar": "the columnar kernel's differential lane",
    "repro.policies.belady": "Belady OPT, the floor tests hold policies to",
}


#: Modules no end-to-end benchmark workload runs, so none may load
#: when a process imports what ``benchmarks/e2e/workloads.py`` imports.
COLD_START_ABSENT = (
    "asyncio",
    "multiprocessing",
    "repro.serve.harness",
    "repro.serve.stack",
    "repro.cluster.chaos",
    "repro.oracle",
    "repro.faults",
    "repro.perf.parallel",
    "repro.experiments.runner",
)

#: Run after the e2e workloads' ``repro`` imports: one request of each
#: serving stack those workloads build, then the absent modules found.
COLD_START_SCRIPT = """
import sys
from repro.cluster.cache import ClusterKVCache
from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.resilience import (
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from repro.tiers.kv import client_local_topology


def failing(key):
    raise IOError("down")


resilient = ResilientKVCache(AdaptiveKVCache(capacity_entries=64),
                             retry=RetryPolicy(backoff=0))
assert resilient.get_or_compute("a", str.upper) == "A"
assert resilient.get_or_compute("a", failing) == "A"
try:
    resilient.get_or_compute("b", failing)
except LoaderUnavailable:
    pass
else:
    raise AssertionError("a failed load with nothing stale must raise")

with PersistentKVCache(AdaptiveKVCache(capacity_entries=64),
                       sys.argv[1]) as durable:
    durable.put("k", 1)
    assert durable.get("k") == 1

cluster = ClusterKVCache(num_nodes=3, replication=2, capacity_per_node=64)
tiered = client_local_topology(cluster, local_capacity=8,
                               cluster_capacity=64)
assert tiered.get_or_compute("c", str.upper) == "C"
tiered.put("d", "D")
assert tiered.get("d") == "D"
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


#: Why a defaulted option may stay although no program sets it:
#: asyncio itself passes the event-loop protocol's; reference code
#: mirrors an implementation's signature or states a definition; a test
#: seam lets a test inject what no program ever varies; a test-driven
#: module's harness sizes are the tests' to choose.
OPTION_REASONS = ("asyncio protocol", "reference code", "test seam",
                  "test-driven module")

_ORACLE_SIZES = {
    f"repro.oracle.{name}({option})": "test-driven module"
    for name, options in {
        "harness.build_hardware_pair": ("num_sets", "ways", "components"),
        "harness.build_shard_pair": ("partial_bits",),
        "harness.check_cross_engine": ("capacity", "length", "seed"),
        "harness.differential_campaign": (
            "policies", "engines", "streams_per_combo", "stream_length"),
        "harness.placement_campaign": (
            "placements", "streams_per_combo", "stream_length"),
        "columnar.columnar_campaign": (
            "pairs", "streams_per_combo", "stream_length", "num_sets",
            "ways", "base_seed"),
    }.items()
    for option in options
}

#: Defaulted options no program call sets, each with its reason.
UNCALLED_OPTIONS = {
    "repro.serve.vloop.VirtualTimeEventLoop.call_soon(context)":
        "asyncio protocol",
    "repro.serve.vloop.VirtualTimeEventLoop.call_later(context)":
        "asyncio protocol",
    "repro.serve.vloop.VirtualTimeEventLoop.create_task(name)":
        "asyncio protocol",
    "repro.serve.vloop.VirtualTimeEventLoop.create_task(context)":
        "asyncio protocol",
    "repro.oracle.spec.make_adaptive_spec(window)": "reference code",
    "repro.oracle.spec.make_adaptive_spec(fallback)": "reference code",
    "repro.utils.bitops.xor_fold(width)": "reference code",
    "repro.core.theory.check_miss_bound(component_names)": "reference code",
    "repro.cluster.node.ClusterNode.__init__(fault)": "test seam",
    "repro.faults.plan.FaultSpec(start)": "test seam",
    "repro.faults.plan.FaultSpec(stop)": "test seam",
    "repro.faults.plan.FaultSpec(bits)": "test seam",
    "repro.faults.plan.FaultSpec(mode)": "test seam",
    "repro.online.bound.check_online_miss_bound(num_shards)":
        "test-driven module",
    "repro.online.bound.check_online_miss_bound(component_names)":
        "test-driven module",
    "repro.cluster.chaos.cluster_chaos_campaign(directory)":
        "test-driven module",
    "repro.cluster.chaos.ClusterChaosPlan.seeded(num_kills)":
        "test-driven module",
    # The online chaos campaign's plans, like the cluster's, are built
    # by the tests that run it.
    "repro.faults.online.ChaosPlan.seeded(num_crashes)":
        "test-driven module",
    # The console scripts call main() on sys.argv; tests pass argv.
    "repro.experiments.cli.main(argv)": "test seam",
    "repro.replay.main(argv)": "test seam",
    **_ORACLE_SIZES,
}


#: Public names no program file refers to, each with its reason.
UNCALLED_NAMES = {
    **{
        f"repro.serve.vloop.VirtualTimeEventLoop.{method}": "asyncio protocol"
        for method in ("call_later", "create_future", "get_debug",
                       "is_running", "is_closed", "call_exception_handler",
                       "default_exception_handler")
    },
    "repro.online.bound.check_online_miss_bound": "test-driven module",
    "repro.cluster.chaos.cluster_chaos_campaign": "test-driven module",
    "repro.utils.bitops.xor_fold": "reference code",
    "repro.oracle.stack.StackDistanceEngine.misses_for_ways":
        "reference code",
    "repro.online.contract.KVStore": "reference code",
    "repro.workloads.trace.Trace.from_records": "test seam",
}


def _public_definitions(trees):
    """Yield (qualified name, name, path, node) for each public
    function and class of ``trees`` and each public method of a public
    class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, (path, tree) in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, kinds)
                            and not item.name.startswith("_")):
                        yield (f"{module}.{node.name}.{item.name}",
                               item.name, path, item)


def _references(paths):
    """Map each name the files at ``paths`` refer to (as a name, an
    attribute, an import, or a string equal to it) to where: (path,
    line)."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                name = node.value
            else:
                continue
            found.setdefault(name, []).append(
                (path, getattr(node, "lineno", 0)))
    return found


def _uncalled_names(trees, program_paths):
    """Every public name of ``trees`` that no file at ``program_paths``
    refers to outside the name's own definition."""
    references = _references(program_paths)
    return [
        qualname
        for qualname, name, path, node in _public_definitions(trees)
        if not any(where != path
                   or not node.lineno <= line <= node.end_lineno
                   for where, line in references.get(name, ()))
    ]


def _is_setting(field):
    """Whether a record field is a constructor argument: a field built
    with ``field(..., init=False)`` is state, not a setting."""
    value = field.value
    return not (isinstance(value, ast.Call)
                and ast.unparse(value.func).endswith("field")
                and any(kw.arg == "init" and ast.unparse(kw.value) == "False"
                        for kw in value.keywords))


def _is_record(node):
    """Whether a class holds settings as fields: a frozen dataclass or a
    NamedTuple. A mutable dataclass is a record the code fills in."""
    if any(ast.unparse(base).endswith("NamedTuple") for base in node.bases):
        return True
    return any(
        isinstance(deco, ast.Call)
        and ast.unparse(deco.func).endswith("dataclass")
        and any(kw.arg == "frozen" and ast.unparse(kw.value) == "True"
                for kw in deco.keywords)
        for deco in node.decorator_list
    )


def _options(trees):
    """Map each callable name to where it is defined: (qualified name,
    positional parameters, {defaulted parameter: its default}). A
    class's name stands for its ``__init__`` or, for a record, its
    fields."""
    defined = {}

    def visit(module, body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_record(node):
                    fields = [
                        item for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)
                        and _is_setting(item)
                    ]
                    defined.setdefault(node.name, []).append((
                        f"{module}.{node.name}",
                        [item.target.id for item in fields],
                        {item.target.id: item.value for item in fields
                         if item.value is not None},
                    ))
                visit(module, node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = {
                    arg.arg: value for arg, value in zip(
                        positional[len(positional) - len(args.defaults):],
                        args.defaults,
                    )
                }
                defaulted.update(
                    (arg.arg, value) for arg, value
                    in zip(args.kwonlyargs, args.kw_defaults)
                    if value is not None
                )
                names = [arg.arg for arg in positional]
                if owner is not None and not any(
                    ast.unparse(deco) == "staticmethod"
                    for deco in node.decorator_list
                ):
                    names = names[1:]
                qualname = (f"{owner.name}.{node.name}" if owner is not None
                            else node.name)
                name = node.name
                if owner is not None and name == "__init__":
                    name = owner.name
                defined.setdefault(name, []).append(
                    (f"{module}.{qualname}", names, defaulted))
                visit(module, node.body, None)

    for module, (_path, tree) in trees.items():
        visit(module, tree.body, None)
    return defined


#: Name-keyed class tables whose classes are constructed with
#: ``**kwargs`` no call site names, so every parameter of those classes
#: counts as passed: the values of a dict literal bound to one of these
#: names, or the class a call to one of these functions registers.
KWARGS_REGISTRIES = {
    "_SPEC_FACTORIES": "oracle.spec.make_spec calls them with **kwargs",
    "kinds": "core.history.make_history_factory forwards **kwargs",
    "register_policy": "policies.registry.make_policy forwards **kwargs",
}

#: Stands for a call that passes every parameter.
EVERYTHING = ([], {}, True)


def _program_files():
    """The files whose calls count as callers: ``src/`` and the
    non-test files of ``benchmarks/``. Tests, examples and docs are
    not programs that turn a setting."""
    paths = sorted((REPO_ROOT / "src").rglob("*.py"))
    return paths + [
        path for path in sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]


def _calls(paths):
    """Map each called name to its calls, each as (positional argument
    nodes, {keyword: value node}, whether a ``*``/``**`` expansion
    passes everything). A name imported under another name
    (``from m import f as _f``) is called by its own."""
    calls = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}

        def enclosing_class(node):
            while node in parents and not isinstance(node, ast.ClassDef):
                node = parents[node]
            return node if isinstance(node, ast.ClassDef) else None

        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and any(getattr(target, "id", None) in KWARGS_REGISTRIES
                            for target in node.targets)):
                for value in node.value.values:
                    calls.setdefault(
                        ast.unparse(value).rpartition(".")[2], []
                    ).append(EVERYTHING)
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, list(node.args)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            name = aliases.get(name, name)
            if name in KWARGS_REGISTRIES and len(args) == 2:
                calls.setdefault(
                    ast.unparse(args[1]).rpartition(".")[2], []
                ).append(EVERYTHING)
            owner = enclosing_class(node)
            if (name == "__init__" and owner is not None and owner.bases
                    and ast.unparse(func.value) == "super()"):
                name = ast.unparse(owner.bases[0]).rpartition(".")[2]
            elif name in ("cls", "replace") and owner is not None:
                args = args[1:] if name == "replace" else args
                name = owner.name
            elif name == "partial" and args:
                name = ast.unparse(args[0]).rpartition(".")[2]
                name, args = aliases.get(name, name), args[1:]
            everything = any(
                isinstance(arg, ast.Starred) for arg in args
            ) or any(kw.arg is None for kw in node.keywords)
            calls.setdefault(name, []).append((
                args, {kw.arg: kw.value for kw in node.keywords if kw.arg},
                everything,
            ))
    return calls


def _constants(trees):
    """Map each module constant (an upper-case module-level name) that
    the parsed ``trees`` bind to a literal to that literal; a name two
    modules bind to different literals is left out."""
    values = {}
    for tree in trees:
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            if (len(targets) != 1 or not isinstance(targets[0], ast.Name)
                    or not targets[0].id.isupper() or node.value is None):
                continue
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                continue
            values.setdefault(targets[0].id, []).append(
                (type(value) is bool, value))
    return {name: found[0] for name, found in values.items()
            if all(value == found[0] for value in found)}


def _literal(node, constants):
    """A node's literal value (booleans kept apart from numbers), also
    through a name or attribute that ``constants`` binds; else its
    source text."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if name in constants:
        return constants[name]
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return ast.unparse(node)
    return (type(value) is bool, value)


def _sets(call, option, positional, default, constants):
    """Whether ``call`` passes ``option`` a value other than its own
    default: passing the default, as a literal or as a module constant
    bound to it, leaves the option unset."""
    args, keywords, everything = call
    if everything:
        return True
    if option in keywords:
        value = keywords[option]
    elif option in positional and positional.index(option) < len(args):
        value = args[positional.index(option)]
    else:
        return False
    return _literal(value, constants) != _literal(default, constants)


def _unset_options(trees, program_paths):
    """Every defaulted option defined in ``trees`` that no call in
    ``program_paths`` sets to anything but its default. Calls match
    definitions by name, so a call of a name several modules define
    counts for each of them."""
    calls = _calls(program_paths)
    constants = _constants(
        [tree for _path, tree in trees.values()]
        + [ast.parse(path.read_text()) for path in program_paths]
    )
    unset = []
    for name, definitions in sorted(_options(trees).items()):
        for qualname, positional, defaults in definitions:
            unset += [
                f"{qualname}({option})"
                for option, default in defaults.items()
                if not any(_sets(call, option, positional, default, constants)
                           for call in calls.get(name, ()))
            ]
    return unset


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def _module_sources():
    """Map each ``repro`` module name to its parsed source."""
    src = REPO_ROOT / "src"
    trees = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        trees[".".join(parts)] = (path, ast.parse(path.read_text()))
    return trees


def _defining_module(trees, module, name):
    """The module ``from module import name`` ends up reading: the
    submodule ``module.name``, or the module a package ``__init__``
    re-exports ``name`` from."""
    if f"{module}.{name}" in trees:
        return f"{module}.{name}"
    path, tree = trees[module]
    if path.name != "__init__.py":
        return module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in trees:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(trees, node.module, alias.name)
    return module


def _imported_modules(trees, tree):
    """Every ``repro`` module a parsed file imports, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in trees:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in trees:
            for alias in node.names:
                yield _defining_module(trees, node.module, alias.name)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if inspect.isclass(obj) and defined_here:
            yield f"{module.__name__}.{name}", obj
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr):
                    yield f"{module.__name__}.{name}.{attr_name}", attr
        elif inspect.isfunction(obj) and defined_here:
            yield f"{module.__name__}.{name}", obj


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in _walk_modules() if not (m.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_every_public_item_documented(self):
        undocumented = []
        for module in _walk_modules():
            for qualname, obj in _public_members(module):
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(qualname)
        assert not undocumented, undocumented

    def test_package_docstring_mentions_paper(self):
        assert "Adaptive Caches" in repro.__doc__


class TestHarnessCompleteness:
    # Every registered experiment's shape check is enforced by
    # tests/experiments/test_paper_shapes.py, parametrized over the
    # registry.

    def test_design_doc_lists_every_figure(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for figure in ["Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                       "Fig 8", "Fig 9", "Fig 10", "§4.4", "§4.6", "§4.7"]:
            assert figure in design, f"DESIGN.md does not index {figure}"

    def test_readme_documents_cli(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in ["fig3", "fig7", "storage", "theory", "ext-shared",
                     "ext-prefetch", "ext-dip", "ablations"]:
            assert f"repro-experiments {name}" in readme, name

    def test_experiments_doc_exists_at_release(self):
        # EXPERIMENTS.md records paper-vs-measured for every experiment.
        assert (REPO_ROOT / "EXPERIMENTS.md").exists()


class TestSuiteShape:
    def test_no_module_exceeds_size_budget(self):
        """Many small modules, not one giant file."""
        for module in _walk_modules():
            source = pathlib.Path(module.__file__)
            lines = len(source.read_text().splitlines())
            assert lines < 700, f"{module.__name__} has {lines} lines"

    def test_shard_routing_has_one_home(self):
        """Only the engine maps keys to shards; every other layer asks
        ``AdaptiveKVCache.shard_index`` rather than copying the rule
        (``shard_of``, or the ``shard_routing`` shift and mask)."""
        src = REPO_ROOT / "src" / "repro"
        callers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "shard_of(" in path.read_text()
            or "shard_routing(" in path.read_text()
        )
        assert callers == ["online/engine.py", "online/keyspace.py"]

    def test_one_async_ladder(self):
        """Every serving front serves through the one resilient ladder:
        ``aget_or_compute`` is defined by ``ResilientKVCache`` and
        declared by the ``AsyncKVStore`` Protocol, nowhere else."""
        owners, defined = [], 0
        for name, (_path, tree) in _module_sources().items():
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name == "aget_or_compute"):
                    defined += 1
                elif isinstance(node, ast.ClassDef) and any(
                    getattr(item, "name", None) == "aget_or_compute"
                    for item in node.body
                ):
                    owners.append(f"{name}.{node.name}")
        assert defined == len(owners), "aget_or_compute outside a class"
        assert sorted(owners) == [
            "repro.online.contract.AsyncKVStore",
            "repro.online.resilience.ResilientKVCache",
        ]

    def test_one_algorithm_1_under_sbar(self):
        """SBAR is composed, not re-implemented: its leader sets run
        ``AdaptivePolicy``, so ``core.sbar`` makes no Algorithm 1
        decision of its own, and the follower policy the simulator and
        the online engine share is defined once."""
        sources = _module_sources()
        owners = [
            f"{name}.{node.name}"
            for name, (_path, tree) in sources.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and node.name == "DuelingResidentPolicy"
        ]
        assert owners == ["repro.core.sbar.DuelingResidentPolicy"]
        _path, tree = sources["repro.core.sbar"]
        attributes = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
        assert not attributes & {"best_component", "_stamp", "_clock",
                                 "contains_stored", "lookup_update"}

    def test_every_module_has_a_caller(self):
        """Every module is imported by program code (``src/repro``,
        ``benchmarks/``, ``examples/``; tests excluded) or is an entry
        point, so no subsystem survives on its own tests alone. A
        package ``__init__`` re-export is not a caller: names imported
        through a package resolve to the module that defines them."""
        trees = _module_sources()
        callers = [path for path, _ in trees.values()
                   if path.name != "__init__.py"]
        for folder in ("benchmarks", "examples"):
            callers += [
                path for path in sorted((REPO_ROOT / folder).rglob("*.py"))
                if not path.name.startswith("test_")
                and path.name != "conftest.py"
            ]
        called = set()
        for path in callers:
            called.update(_imported_modules(trees, ast.parse(path.read_text())))
        # [project.scripts] entries, read without tomllib (Python 3.11+).
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
        called.update(re.findall(r'^[\w-]+\s*=\s*"([\w.]+):', scripts, re.M))
        orphans = sorted(
            name for name, (path, _) in trees.items()
            if path.name != "__init__.py"
            and name not in called
            and name not in TEST_DRIVEN_MODULES
        )
        assert not orphans, orphans

    def test_every_option_has_a_caller(self):
        """Every setting has a program that turns it: each defaulted
        parameter, and each defaulted field of a frozen dataclass or
        NamedTuple, of a name defined once in ``src/repro`` is set by
        some call in program code (``src/``, the non-test files of
        ``benchmarks/``) to something other than its own default
        literal, by keyword or by position (a ``*``/``**`` expansion
        passes every parameter). Tests are not callers: an option only
        tests set, or that every program sets to its default, is a
        constant; fold it in."""
        unset = _unset_options(_module_sources(), _program_files())
        assert sorted(set(unset) - set(UNCALLED_OPTIONS)) == []
        assert set(UNCALLED_OPTIONS) <= set(unset), "allowlist is stale"
        assert set(UNCALLED_OPTIONS.values()) <= set(OPTION_REASONS)

    def test_every_public_name_has_a_caller(self):
        """Every public function, method and class of ``src/repro`` is
        referred to by program code (``src/``, the non-test files of
        ``benchmarks/``) outside its own definition: by name, as an
        attribute, in an import, or as a string equal to it (how
        ``getattr(policy, "set_selector")`` reaches a method). A name
        only tests reach is deleted, or moved into ``tests/`` when a
        test still needs it."""
        uncalled = _uncalled_names(_module_sources(), _program_files())
        assert sorted(set(uncalled) - set(UNCALLED_NAMES)) == []
        assert set(UNCALLED_NAMES) <= set(uncalled), "allowlist is stale"
        assert set(UNCALLED_NAMES.values()) <= set(OPTION_REASONS)

    def test_experiments_take_only_what_the_cli_passes(self):
        """Each registered experiment's ``run``, ``cells`` and
        ``render`` take only arguments ``cli.run_experiment`` passes,
        and every one of them as required: an option the CLI never sets
        is a module constant (which a test may monkeypatch)."""
        from repro.experiments.cli import EXPERIMENTS

        passed = {"setup", "sweep", "workloads", "seed", "quick",
                  "checkpoint"}
        stray = [
            f"{name}.{function}({parameter.name})"
            for name, module in sorted(EXPERIMENTS.items())
            for function in ("run", "cells", "render")
            if hasattr(module, function)
            for parameter in inspect.signature(
                getattr(module, function)).parameters.values()
            if parameter.name not in passed
            or parameter.default is not parameter.empty
        ]
        assert stray == []

    def test_e2e_cold_start_loads_only_what_it_runs(self, tmp_path):
        """A process that imports what the e2e workloads import and
        serves through their stacks loads no campaign, harness, oracle
        or process-pool module, and neither ``asyncio`` nor
        ``multiprocessing``: package ``__init__`` files re-export
        nothing that would drag them in."""
        workloads = REPO_ROOT / "benchmarks" / "e2e" / "workloads.py"
        imports = [
            ast.unparse(node)
            for node in ast.parse(workloads.read_text()).body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").partition(".")[0] == "repro"
        ]
        assert imports, "workloads.py imports nothing from repro"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        script = "\n".join(imports) + COLD_START_SCRIPT
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *COLD_START_ABSENT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    def test_no_generated_code(self):
        """Every code path is source that linters, coverage and tracebacks
        see: no module builds code at run time with the ``exec``, ``eval``
        or ``compile`` builtins (``re.compile`` and friends are fine)."""
        src = REPO_ROOT / "src" / "repro"
        calls = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")
                ):
                    calls.append(f"{path.relative_to(src)}:{node.lineno}")
        assert not calls, calls


#: One-module trees for the option guard: (case, definition, program
#: call site, what the guard lists).
GUARD_CASES = [
    ("no program call", "def f(x, flag=False): pass", "", ["mod.f(flag)"]),
    ("default literal by keyword", "def f(x, flag=False): pass",
     "f(1, flag=False)", ["mod.f(flag)"]),
    ("default literal by position", "def f(x, flag=False): pass",
     "f(1, False)", ["mod.f(flag)"]),
    ("other literal by keyword", "def f(x, flag=False): pass",
     "f(1, flag=True)", []),
    ("other literal by position", "def f(x, flag=False): pass",
     "f(1, True)", []),
    ("a variable", "def f(x, flag=False): pass", "f(1, flag=x)", []),
    ("a ** expansion", "def f(x, flag=False): pass", "f(1, **kw)", []),
    ("a bool is not a number", "def f(n=1): pass", "f(n=True)", []),
    ("the default's own name", "def f(n=LIMIT): pass", "f(n=LIMIT)",
     ["mod.f(n)"]),
    ("a module constant bound to the default", "def f(n=1): pass",
     "LIMIT = 1\nf(n=LIMIT)", ["mod.f(n)"]),
    ("a module constant bound to another value", "def f(n=1): pass",
     "LIMIT = 2\nf(n=LIMIT)", []),
    ("an attribute naming a constant", "def f(n=1): pass",
     "f(n=config.LIMIT)\nLIMIT = 1", ["mod.f(n)"]),
    ("a callable imported under another name", "def f(x, flag=False): pass",
     "from mod import f as _f\n_f(1, flag=True)", []),
    ("one program call of several sets it", "def f(n=1): pass",
     "f(n=1)\nf(n=2)", []),
    ("a method", "class C:\n    def m(self, n=2): pass", "C().m(2)",
     ["mod.C.m(n)"]),
    ("a constructor", "class C:\n    def __init__(self, n=2): pass",
     "C(n=3)", []),
    ("a frozen record field",
     "@dataclass(frozen=True)\nclass R:\n    a: int = 1", "R(a=1)",
     ["mod.R(a)"]),
    ("an init=False field",
     "@dataclass(frozen=True)\nclass R:\n"
     "    a: int = field(default=0, init=False)", "R()", []),
    ("a ClassVar", "@dataclass(frozen=True)\nclass R:\n"
     "    a: ClassVar[int] = 1", "R()", []),
    ("a registered policy class",
     "class P:\n    def __init__(self, bits=1): pass",
     "register_policy('p', P)", []),
    ("a history kinds table",
     "class H:\n    def __init__(self, bits=1): pass",
     "kinds = {'h': H}", []),
]


class TestOptionGuard:
    """The rules of ``test_every_option_has_a_caller``, on one-module
    trees written to a temporary directory."""

    @pytest.mark.parametrize(
        "definition, program, listed",
        [case[1:] for case in GUARD_CASES],
        ids=[case[0] for case in GUARD_CASES],
    )
    def test_rule(self, tmp_path, definition, program, listed):
        module = tmp_path / "mod.py"
        module.write_text(definition + "\n")
        caller = tmp_path / "caller.py"
        caller.write_text(program + "\n")
        trees = {"mod": (module, ast.parse(module.read_text()))}
        assert _unset_options(trees, [caller]) == listed

    def test_a_name_several_modules_define(self, tmp_path):
        """Each definition of a shared name is checked, and a call of
        that name that sets the option counts for all of them."""
        trees = {}
        for name in ("one", "two"):
            module = tmp_path / f"{name}.py"
            module.write_text("def run(setup, seed=0): pass\n")
            trees[name] = (module, ast.parse(module.read_text()))
        caller = tmp_path / "caller.py"
        caller.write_text("run(setup)\n")
        assert _unset_options(trees, [caller]) == ["one.run(seed)",
                                                   "two.run(seed)"]
        caller.write_text("run(setup, seed=3)\n")
        assert _unset_options(trees, [caller]) == []

    def test_tests_examples_and_docs_are_not_programs(self):
        programs = {path.relative_to(REPO_ROOT).as_posix()
                    for path in _program_files()}
        assert "src/repro/cpu/store_buffer.py" in programs
        assert "benchmarks/e2e/workloads.py" in programs
        assert not [path for path in programs
                    if not path.startswith(("src/", "benchmarks/"))]
        assert not [path for path in programs
                    if path.rpartition("/")[2].startswith("test_")]

    def test_an_option_only_a_test_sets_is_listed(self, tmp_path):
        """A default that only a test file turns still reads as unset:
        the guard parses program files alone."""
        module = tmp_path / "mod.py"
        module.write_text(
            "class StoreBuffer:\n"
            "    def __init__(self, capacity, serialize_drains=False):\n"
            "        pass\n"
        )
        program = tmp_path / "timing.py"
        program.write_text("StoreBuffer(8)\n")
        test = tmp_path / "test_store_buffer.py"
        test.write_text("StoreBuffer(2, serialize_drains=True)\n")
        trees = {"mod": (module, ast.parse(module.read_text()))}
        assert _unset_options(trees, [program]) == [
            "mod.StoreBuffer.__init__(serialize_drains)"
        ]
        assert _unset_options(trees, [program, test]) == []


#: One-module trees for the public-name guard: (case, definition,
#: program file, what the guard lists).
NAME_CASES = [
    ("no reference", "def f(): pass", "", ["mod.f"]),
    ("a call", "def f(): pass", "f()", []),
    ("an import", "def f(): pass", "from mod import f", []),
    ("a getattr string", "class C:\n    def m(self): pass",
     "getattr(C(), 'm')", []),
    ("its own recursion", "def f(n):\n    return f(n - 1)", "", ["mod.f"]),
    ("a private name", "def _f(): pass", "", []),
    ("a method", "class C:\n    def m(self): pass", "C()", ["mod.C.m"]),
]


class TestPublicNameGuard:
    """The rules of ``test_every_public_name_has_a_caller``."""

    @pytest.mark.parametrize(
        "definition, program, listed",
        [case[1:] for case in NAME_CASES],
        ids=[case[0] for case in NAME_CASES],
    )
    def test_rule(self, tmp_path, definition, program, listed):
        module = tmp_path / "mod.py"
        module.write_text(definition + "\n")
        caller = tmp_path / "caller.py"
        caller.write_text(program + "\n")
        trees = {"mod": (module, ast.parse(module.read_text()))}
        assert _uncalled_names(trees, [module, caller]) == listed
