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
                             retry=RetryPolicy(attempts=1))
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


#: Defaulted parameters no call in this repository passes, with the
#: reason each stays: asyncio itself passes the event-loop protocol's,
#: and the Algorithm 1 spec mirrors its implementation's signature.
UNCALLED_OPTIONS = {
    "repro.serve.vloop.VirtualTimeEventLoop.call_soon(context)": "asyncio",
    "repro.serve.vloop.VirtualTimeEventLoop.call_later(context)": "asyncio",
    "repro.serve.vloop.VirtualTimeEventLoop.create_task(name)": "asyncio",
    "repro.serve.vloop.VirtualTimeEventLoop.create_task(context)": "asyncio",
    "repro.oracle.spec.make_adaptive_spec(window)": "reference code",
    "repro.oracle.spec.make_adaptive_spec(fallback)": "reference code",
}


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
    positional parameters, defaulted parameters). A class's name stands
    for its ``__init__`` or, for a record, its fields."""
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
                    ]
                    defined.setdefault(node.name, []).append((
                        f"{module}.{node.name}",
                        [item.target.id for item in fields],
                        [item.target.id for item in fields
                         if item.value is not None],
                    ))
                visit(module, node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted = [arg.arg for arg in defaulted] + [
                    arg.arg for arg, value
                    in zip(args.kwonlyargs, args.kw_defaults)
                    if value is not None
                ]
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


#: Registries whose values are called with ``**kwargs`` no call site
#: names, so every parameter of those values counts as passed.
KWARGS_REGISTRIES = {
    "_SPEC_FACTORIES": "oracle.spec.make_spec calls them with **kwargs",
}


def _passed(paths):
    """Map each called name to (keywords passed, most positional
    arguments, whether a ``*``/``**`` expansion passes everything)."""
    passed = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}

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
                    passed[ast.unparse(value).rpartition(".")[2]] = (
                        set(), 0, True)
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, list(node.args)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            owner = enclosing_class(node)
            if (name == "__init__" and owner is not None and owner.bases
                    and ast.unparse(func.value) == "super()"):
                name = ast.unparse(owner.bases[0]).rpartition(".")[2]
            elif name in ("cls", "replace") and owner is not None:
                args = args[1:] if name == "replace" else args
                name = owner.name
            elif name == "partial" and args:
                name = ast.unparse(args[0]).rpartition(".")[2]
                args = args[1:]
            keywords, most, everything = passed.get(name, (set(), 0, False))
            keywords = keywords | {kw.arg for kw in node.keywords if kw.arg}
            everything = everything or any(
                isinstance(arg, ast.Starred) for arg in args
            ) or any(kw.arg is None for kw in node.keywords)
            passed[name] = (keywords, max(most, len(args)), everything)
    return passed


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
        """Every setting has a way in: each defaulted parameter, and each
        defaulted field of a frozen dataclass or NamedTuple, of a name
        defined once in ``src/repro`` is passed by some call in ``src/``,
        ``tests/``, ``benchmarks/`` or ``examples/``, by keyword or by
        position (a ``*``/``**`` expansion passes every parameter). An
        option no call sets is a constant: fold it in."""
        trees = _module_sources()
        paths = [path for folder in ("src", "tests", "benchmarks", "examples")
                 for path in sorted((REPO_ROOT / folder).rglob("*.py"))]
        passed = _passed(paths)
        uncalled = []
        for name, definitions in sorted(_options(trees).items()):
            if len(definitions) != 1:
                continue
            qualname, positional, defaulted = definitions[0]
            keywords, most, everything = passed.get(name, (set(), 0, False))
            uncalled += [
                f"{qualname}({option})" for option in defaulted
                if not everything and option not in keywords
                and not (option in positional
                         and positional.index(option) < most)
            ]
        assert sorted(set(uncalled) - set(UNCALLED_OPTIONS)) == []
        assert set(UNCALLED_OPTIONS) <= set(uncalled), "allowlist is stale"

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
