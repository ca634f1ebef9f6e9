"""Meta-tests: documentation and harness completeness.

These enforce the repository's own standards: every public item is
documented and the docs index matches the code.
"""

import ast
import functools
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
from tests.reference_graph import Graph

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


#: The names README, docs and examples import from ``repro`` itself;
#: the root ``__init__`` imports each from the module that defines it.
QUICKSTART_NAMES = {"CacheConfig", "SetAssociativeCache", "TagArray",
                    "make_adaptive", "make_policy"}


#: Modules no end-to-end benchmark workload runs, so none may load
#: when a process imports what ``benchmarks/e2e/workloads.py`` imports.
COLD_START_ABSENT = (
    "asyncio",
    "multiprocessing",
    "repro.serve.harness",
    "repro.serve.stack",
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

#: Modules no program file imports, each with its reason.
TEST_DRIVEN_MODULES = {
    # The columnar kernel's differential lane.
    "repro.oracle.columnar": "test-driven module",
    # Belady OPT, the floor tests hold policies to.
    "repro.policies.belady": "reference code",
}

_ORACLE_SIZES = {
    f"repro.oracle.{name}({option})": "test-driven module"
    for name, options in {
        "harness.build_hardware_pair": ("num_sets", "ways", "components"),
        "harness.build_shard_pair": ("capacity", "components",
                                     "partial_bits"),
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
    # Tests count the ladder's backoff pauses instead of sleeping them.
    "repro.online.resilience.ResilientKVCache.__init__(sleep)":
        "test seam",
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
    # The campaigns and checks the oracle tests run.
    "repro.oracle.columnar.columnar_campaign": "test-driven module",
    "repro.oracle.harness.check_cross_engine": "test-driven module",
    "repro.oracle.harness.placement_campaign": "test-driven module",
    "repro.policies.belady.belady_misses": "reference code",
    "repro.utils.bitops.xor_fold": "reference code",
    "repro.oracle.stack.StackDistanceEngine.misses_for_ways":
        "reference code",
    "repro.online.contract.KVStore": "reference code",
    "repro.workloads.trace.Trace.from_records": "test seam",
}


def _program_files():
    """The files whose calls count as callers: ``src/`` and the
    non-test files of ``benchmarks/``. Tests, examples and docs are
    not programs that turn a setting, and a package ``__init__`` is
    not one either: it holds a docstring (the root also its
    quickstart imports), so a name it imports is not called."""
    paths = [path for path in sorted((REPO_ROOT / "src").rglob("*.py"))
             if path.name != "__init__.py"]
    return paths + [
        path for path in sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]


@functools.lru_cache(maxsize=None)
def _graph():
    """The program's reference graph, parsed once per session."""
    return Graph(_module_sources(), _program_files())


def _assert_allowlisted(listed, allowlist):
    """What a caller guard lists is exactly its allowlist, and each
    allowlisted entry gives one of ``OPTION_REASONS``."""
    assert sorted(set(listed) - set(allowlist)) == []
    assert set(allowlist) <= set(listed), "allowlist is stale"
    assert set(allowlist.values()) <= set(OPTION_REASONS)


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


@functools.lru_cache(maxsize=None)
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


def _init_statements(trees):
    """Sort the statements of every package ``__init__`` after its
    docstring: the root's plain imports from a defining module give its
    quickstart names; every other statement is ``"module:line"`` in
    the stray list."""
    stray, quickstart = [], set()
    for name, (path, tree) in trees.items():
        if path.name != "__init__.py":
            continue
        for node in tree.body[1 if ast.get_docstring(tree) else 0:]:
            if (name == "repro" and isinstance(node, ast.ImportFrom)
                    and node.module in trees
                    and trees[node.module][0].name != "__init__.py"
                    and not any(alias.asname for alias in node.names)):
                quickstart.update(alias.name for alias in node.names)
            else:
                stray.append(f"{name}:{node.lineno}")
    return stray, quickstart


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
        ``AdaptiveKVCache.shard_index`` rather than calling
        ``shard_routing`` itself."""
        callers = _graph().callers("repro.online.keyspace.shard_routing")
        assert sorted(path.relative_to(REPO_ROOT).as_posix()
                      for path in callers) == ["src/repro/online/engine.py"]

    def test_one_async_ladder(self):
        """Every serving front serves through the one resilient ladder:
        ``aget_or_compute`` is defined by ``ResilientKVCache`` and
        declared by the ``AsyncKVStore`` Protocol, nowhere else."""
        assert sorted(_graph().by_name["aget_or_compute"]) == [
            "repro.online.contract.AsyncKVStore.aget_or_compute",
            "repro.online.resilience.ResilientKVCache.aget_or_compute",
        ]

    def test_one_algorithm_1_under_sbar(self):
        """SBAR is composed, not re-implemented: its leader sets run
        ``AdaptivePolicy``, so ``core.sbar`` makes no Algorithm 1
        decision of its own, and the follower policy the simulator and
        the online engine share is defined once."""
        assert _graph().by_name["DuelingResidentPolicy"] == [
            "repro.core.sbar.DuelingResidentPolicy"]
        _path, tree = _module_sources()["repro.core.sbar"]
        attributes = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
        assert not attributes & {"best_component", "_stamp", "_clock",
                                 "contains_stored", "lookup_stored"}

    def test_every_module_has_a_caller(self):
        """Every module is imported by program code (``src/``, the
        non-test files of ``benchmarks/``) or is a ``[project.scripts]``
        entry point, so no subsystem survives on its own tests alone.
        A name imported through a package counts for the module that
        defines it."""
        called = set(_graph().imported)
        # [project.scripts] entries, read without tomllib (Python 3.11+).
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
        called.update(re.findall(r'^[\w-]+\s*=\s*"([\w.]+):', scripts, re.M))
        _assert_allowlisted(
            [name for name, (path, _) in _module_sources().items()
             if path.name != "__init__.py" and name not in called],
            TEST_DRIVEN_MODULES)

    def test_packages_hold_only_docstrings(self):
        """A package ``__init__`` holds its docstring and nothing else,
        so every name has one import path, the module that defines it,
        and importing a submodule runs no sibling. The root may also
        import its quickstart names, each from its defining module."""
        stray, quickstart = _init_statements(_module_sources())
        assert stray == []
        assert quickstart == QUICKSTART_NAMES

    def test_every_option_has_a_caller(self):
        """Every setting has a program that turns it: each defaulted
        parameter, and each defaulted field of a frozen dataclass or
        NamedTuple, of a name defined once in ``src/repro`` is set by
        some call in program code (``src/``, the non-test files of
        ``benchmarks/``) to something other than its own default
        literal, by keyword or by position (a ``*``/``**`` expansion
        passes every parameter). Tests are not callers: an option only
        tests set, or that every program sets to its default, is a
        constant; fold it in. Calls resolve as references do (see
        ``tests/reference_graph.py``)."""
        _assert_allowlisted(_graph().unset_options(), UNCALLED_OPTIONS)

    def test_every_public_name_has_a_caller(self):
        """Every public function, method and class of ``src/repro`` is
        referred to by program code (``src/``, the non-test files of
        ``benchmarks/``) outside its own definition: by name, in an
        import, as an attribute of a receiver whose class has or
        inherits it (or of one whose class is unknown), or as a string
        equal to it (how ``getattr(policy, "set_selector")`` reaches a
        method). A name only tests reach is deleted, or moved into
        ``tests/`` when a test still needs it."""
        _assert_allowlisted(_graph().uncalled_names(), UNCALLED_NAMES)

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
        calls = [
            f"{name}:{node.lineno}"
            for name, (_path, tree) in _module_sources().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")
        ]
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
    ("a method of an annotated parameter",
     "class A:\n    def m(self, n=1): pass\nclass B:\n    def m(self, n=1): pass",
     "from mod import A\ndef run(a: A):\n    a.m(n=2)", ["mod.B.m(n)"]),
    ("an inherited constructor",
     "class A:\n    def __init__(self, n=1): pass\nclass Sub(A): pass",
     "from mod import Sub\nSub(n=2)", []),
    ("a classmethod's cls", "class A:\n    def __init__(self, n=1): pass",
     "from mod import A\nclass D(A):\n    @classmethod\n    def make(cls):\n"
     "        return cls(n=2)", []),
    ("super() as the first base",
     "class A:\n    def __init__(self, n=1): pass\nclass B(A): pass\n"
     "class C:\n    def __init__(self, n=1): pass",
     "from mod import B\nclass D(B):\n    def __init__(self):\n"
     "        super().__init__(n=2)", ["mod.C.__init__(n)"]),
]


def _one_module(tmp_path, definition, program):
    """The trees of ``mod.py`` holding ``definition``, its path, and
    the path of ``caller.py`` holding ``program``."""
    module, caller = tmp_path / "mod.py", tmp_path / "caller.py"
    module.write_text(definition + "\n")
    caller.write_text(program + "\n")
    return {"mod": (module, ast.parse(module.read_text()))}, module, caller


class TestOptionGuard:
    """The rules of ``test_every_option_has_a_caller``, on one-module
    trees written to a temporary directory."""

    @pytest.mark.parametrize(
        "definition, program, listed",
        [case[1:] for case in GUARD_CASES],
        ids=[case[0] for case in GUARD_CASES],
    )
    def test_rule(self, tmp_path, definition, program, listed):
        trees, _module, caller = _one_module(tmp_path, definition, program)
        assert Graph(trees, [caller]).unset_options() == listed

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
        assert Graph(trees, [caller]).unset_options() == ["one.run(seed)",
                                                          "two.run(seed)"]
        caller.write_text("run(setup, seed=3)\n")
        assert Graph(trees, [caller]).unset_options() == []

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
        trees, _module, program = _one_module(
            tmp_path, "class StoreBuffer:\n"
            "    def __init__(self, capacity, serialize_drains=False):\n"
            "        pass", "StoreBuffer(8)")
        test = tmp_path / "test_store_buffer.py"
        test.write_text("StoreBuffer(2, serialize_drains=True)\n")
        assert Graph(trees, [program]).unset_options() == [
            "mod.StoreBuffer.__init__(serialize_drains)"
        ]
        assert Graph(trees, [program, test]).unset_options() == []


#: Two classes that define the same method; with a factory and a holder
#: of an ``A``, the module the receiver cases resolve against; and the
#: program prefix that imports what those cases use.
TWO_MS = "class A:\n    def m(self): pass\nclass B:\n    def m(self): pass"
TYPED = (TWO_MS + "\ndef make() -> A:\n    return A()\nclass Box:\n"
         "    def __init__(self):\n        self.a = A()")
USES = "from typing import List\nfrom mod import A, B, Box, Sub, make\n"

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
    ("a variable of the same name", "def f(): pass", "f = 1\nprint(f)",
     ["mod.f"]),
    # Receivers of a known class: each reaches A.m or B.m, not both.
    ("self", TWO_MS + "\n    def run(self):\n        self.m()",
     USES + "B().run()", ["mod.A.m"]),
    ("self.x assigned a constructor", TYPED, USES + "class H:\n"
     "    def __init__(self):\n        self.a = A()\n"
     "    def run(self):\n        self.a.m()", ["mod.B.m"]),
    ("self.x annotated", TYPED, USES + "class H:\n"
     "    def __init__(self, a):\n        self.a: A = a\n"
     "    def run(self):\n        self.a.m()", ["mod.B.m"]),
    ("a loop over an annotated container", TYPED, USES + "class H:\n"
     "    def __init__(self, items):\n        self.items: List[A] = items\n"
     "    def run(self):\n        for item in self.items:\n"
     "            item.m()", ["mod.B.m"]),
    ("an index into an annotated container", TYPED,
     USES + "def run(items: List[A]):\n    items[0].m()", ["mod.B.m"]),
    ("an annotated parameter", TYPED, USES + "def run(a: A):\n    a.m()",
     ["mod.B.m"]),
    ("an annotated return", TYPED, USES + "make().m()", ["mod.B.m"]),
    ("a local bound to a constructor", TYPED, USES + "a = A()\na.m()",
     ["mod.B.m"]),
    ("a local bound to an annotated return", TYPED,
     USES + "a = make()\na.m()", ["mod.B.m"]),
    ("a local bound to an attribute", TYPED, USES + "a = Box().a\na.m()",
     ["mod.B.m"]),
    ("a tuple-unpacked local", TYPED, USES + "a, b = A(), 1\na.m()",
     ["mod.B.m"]),
    ("an inherited method", TYPED + "\nclass Sub(A): pass",
     USES + "Sub().m()", ["mod.B.m"]),
    ("an override in a subclass", TYPED + "\nclass Sub(A):\n"
     "    def m(self): pass", USES + "def run(a: A):\n    a.m()",
     ["mod.B.m"]),
    # What bare-name matching gave: the name counts for every definition.
    ("an unresolved receiver", TYPED, USES + "def run(a):\n    a.m()", []),
    ("a hook name a tracer patches", TYPED,
     USES + "tracer.patch_methods(A(), 'a', ('m',))", []),
    # A dict key and an index are data, not names.
    ("a dict key", TYPED, USES + "row = {'m': 1}\nrow['m']",
     ["mod.A.m", "mod.B.m"]),
]


class TestPublicNameGuard:
    """The rules of ``test_every_public_name_has_a_caller``."""

    @pytest.mark.parametrize(
        "definition, program, listed",
        [case[1:] for case in NAME_CASES],
        ids=[case[0] for case in NAME_CASES],
    )
    def test_rule(self, tmp_path, definition, program, listed):
        trees, module, caller = _one_module(tmp_path, definition, program)
        assert Graph(trees, [module, caller]).uncalled_names() == listed

    def test_a_package_init_is_not_a_reference(self):
        """A name a package ``__init__`` imports is not thereby called:
        the guard reads no ``__init__.py``."""
        programs = [path.relative_to(REPO_ROOT).as_posix()
                    for path in _program_files()]
        assert "src/repro/cache/tag_array.py" in programs
        assert not [path for path in programs
                    if path.endswith("/__init__.py")]


#: Package ``__init__`` sources for the docstring-only rule: (case,
#: the package it belongs to, its source, the stray statements, the
#: quickstart names). ``repro.pkg`` is a package and ``repro.pkg.mod``
#: the module that defines ``f``.
INIT_CASES = [
    ("a docstring only", "repro.pkg", '"""Doc."""', [], set()),
    ("a package re-export", "repro.pkg",
     '"""Doc."""\nfrom repro.pkg.mod import f', ["repro.pkg:2"], set()),
    ("a package __all__", "repro.pkg",
     '"""Doc."""\n__all__ = ["f"]', ["repro.pkg:2"], set()),
    ("a root quickstart import", "repro",
     '"""Doc."""\nfrom repro.pkg.mod import f', [], {"f"}),
    ("a root import through a package", "repro",
     '"""Doc."""\nfrom repro.pkg import f', ["repro:2"], set()),
    ("a root alias", "repro",
     '"""Doc."""\nfrom repro.pkg.mod import f as g', ["repro:2"], set()),
    ("a root module import", "repro",
     '"""Doc."""\nimport repro.pkg.mod', ["repro:2"], set()),
]


class TestInitGuard:
    """The rules of ``test_packages_hold_only_docstrings``."""

    @pytest.mark.parametrize(
        "package, source, stray, quickstart",
        [case[1:] for case in INIT_CASES],
        ids=[case[0] for case in INIT_CASES],
    )
    def test_rule(self, package, source, stray, quickstart):
        files = {
            "repro": ("repro/__init__.py", '"""Doc."""'),
            "repro.pkg": ("repro/pkg/__init__.py", '"""Doc."""'),
            "repro.pkg.mod": ("repro/pkg/mod.py", "def f(): pass"),
        }
        files[package] = (files[package][0], source)
        trees = {name: (pathlib.PurePath(path), ast.parse(text))
                 for name, (path, text) in files.items()}
        assert _init_statements(trees) == (stray, quickstart)
