"""The program's reference graph, which the caller guards of ``tests/test_meta.py`` query.

Each file is parsed once, and each definition is keyed by its owner: ``module.Class.method``.
Names and attributes resolve to the definitions they reach by the rules docs/testing.md
("Caller guards") states. A value the walk tracks is None (unknown) or a tuple:
``("instance" | "class", class)``, ``("module", name)``, ``("defs", names)``,
``("items", element)`` for a container, ``("tuple", values)``, or ``("import", module,
name)`` until resolved.
"""

import ast
import builtins

#: Name-keyed class tables whose classes are constructed with ``**kwargs`` no call site
#: names, so every parameter of those classes counts as passed: the values of a dict literal
#: bound to one of these names, or the class a call to one of these functions registers.
KWARGS_REGISTRIES = {
    "_SPEC_FACTORIES": "oracle.spec.make_spec calls them with **kwargs",
    "kinds": "core.history.make_history_factory forwards **kwargs",
    "register_policy": "policies.registry.make_policy forwards **kwargs",
}

#: Stands for a call that passes every parameter.
EVERYTHING = ([], {}, True)

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Annotation heads whose subscript or loop yields an element.
SEQUENCES = {"List", "Sequence", "Iterable", "Iterator", "Tuple", "Set", "FrozenSet"}
#: A name bound to two different known values; a name bound nowhere.
MIXED, FREE = ("mixed",), object()


def is_setting(field):
    """Whether a record field is a constructor argument: a field built
    with ``field(..., init=False)`` is state, not a setting."""
    value = field.value
    return not (isinstance(value, ast.Call)
                and ast.unparse(value.func).endswith("field")
                and any(kw.arg == "init" and ast.unparse(kw.value) == "False"
                        for kw in value.keywords))


def is_record(node):
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


def public_definitions(trees):
    """Yield (qualified name, path, node) for each public function and
    class of ``trees`` and each public method of a public class."""
    kinds = FUNCTIONS + (ast.ClassDef,)
    for module, (path, tree) in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", path, node
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", path, item


def constants(trees):
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


def literal(node, bound):
    """A node's literal value (booleans kept apart from numbers), also
    through a name or attribute that ``bound`` maps; else its source."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if name in bound:
        return bound[name]
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return ast.unparse(node)
    return (type(value) is bool, value)


def parameters(node, owner):
    """A function's positional parameter names (a method's without its
    first) and {defaulted parameter: its default}."""
    args = node.args
    names = [arg.arg for arg in args.posonlyargs + args.args]
    defaulted = dict(zip(names[len(names) - len(args.defaults):], args.defaults))
    defaulted.update((arg.arg, value) for arg, value
                     in zip(args.kwonlyargs, args.kw_defaults) if value)
    if owner and "staticmethod" not in map(ast.unparse, node.decorator_list):
        names = names[1:]
    return names, defaulted


def _bind(scope, name, value):
    """An unknown value never replaces a known one; two known ones mix."""
    old = scope.setdefault(name, value)
    if old is None or (value is not None and old != value):
        scope[name] = value if old is None else MIXED


def _element(value):
    return value[1] if value and value[0] == "items" else None


def _targets(value):
    """The definitions a value names: functions, or a class."""
    if isinstance(value, tuple) and value[0] == "defs":
        return value[1]
    return (value[1],) if isinstance(value, tuple) and value[0] == "class" else ()


class _Class:
    def __init__(self, name, node):
        self.name, self.node, self.record = name, node, is_record(node)
        self.protocol = any("Protocol" in ast.unparse(base) for base in node.bases)
        self.bases, self.subclasses, self.members, self.fields = [], [], {}, {}


class Graph:
    """The definitions of ``trees`` ({module: (path, tree)}) and what the
    files at ``program_paths`` refer to, call and import."""

    def __init__(self, trees, program_paths):
        self.trees, self.modules = trees, dict(trees)
        known = {path for path, _tree in trees.values()}
        for path in program_paths:  # named as a sibling script imports it
            if path not in known:
                name = path.stem if path.stem not in self.modules else str(path)
                self.modules[name] = (path, ast.parse(path.read_text()))
        self.classes, self.by_name, self.defined_in = {}, {}, {}
        self.options, self.scopes, returns = [], {}, []
        for module, (_path, tree) in self.modules.items():
            self._index(module, tree.body, None, returns)
            self.scopes[module] = scope = {}
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    scope.update((name, value) for name, value, _ in self._imports(node))
                elif isinstance(node, FUNCTIONS):
                    scope[node.name] = ("defs", (f"{module}.{node.name}",))
                elif isinstance(node, ast.ClassDef):
                    scope[node.name] = ("class", f"{module}.{node.name}")
        for name, cls in self.classes.items():
            for base in cls.node.bases:
                value = self._expr(base, [self.scopes[self.defined_in[name]]])[1]
                if value and value[0] == "class":
                    cls.bases.append(self.classes[value[1]])
                    self.classes[value[1]].subclasses.append(cls)
        for cls in self.classes.values():
            cls.mro = self._closure(cls, "bases")
            cls.descendants = self._closure(cls, "subclasses")[1:]
        self.returns = {name: self._annotation(node, [self.scopes[module]])
                        for name, module, node in returns}
        self.constants = constants([tree for _path, tree in self.modules.values()])
        self.refs, self.calls, self.imported = {}, {}, set()
        for emit in (False, True):  # the first pass types the attributes
            for self._module, (self._path, tree) in self.modules.items():
                if not emit or self._path in program_paths:
                    self._block(tree.body, [self.scopes[self._module]], emit)

    def uncalled_names(self):
        """Every public name of the trees that no program file refers to
        outside the name's own definition."""
        return [name for name, path, node in public_definitions(self.trees)
                if not any(where != path or not node.lineno <= line <= node.end_lineno
                           for where, line in self.refs.get(name, ()))]

    def unset_options(self):
        """Every defaulted option of the trees that no program call sets
        to anything but its default: passing the default, as a literal
        or as a module constant bound to it, leaves the option unset."""
        return [f"{name}({option})"
                for name, positional, defaults in sorted(self.options, key=lambda o: o[0])
                for option, default in defaults.items()
                if not any(self._sets(call, option, positional, default)
                           for call in self.calls.get(name, ()))]

    def _sets(self, call, option, positional, default):
        _path, args, keywords, everything = call
        if everything:
            return True
        if option in keywords:
            value = keywords[option]
        elif option in positional and positional.index(option) < len(args):
            value = args[positional.index(option)]
        else:
            return False
        return literal(value, self.constants) != literal(default, self.constants)

    def callers(self, name):
        """The program files that call the definition ``name``."""
        return {call[0] for call in self.calls.get(name, ())}

    def _index(self, module, body, owner, returns):
        """Index ``body``'s classes and functions: a method under its
        class, any other under its module."""
        for node in body:
            if isinstance(node, ast.ClassDef):
                name = f"{module}.{node.name}"
                cls = self.classes[name] = _Class(name, node)
                if cls.record and module in self.trees:
                    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name) and is_setting(item)
                              and "ClassVar" not in ast.unparse(item.annotation)]
                    self.options.append((name, [item.target.id for item in fields], {
                        item.target.id: item.value for item in fields if item.value}))
                self._index(module, node.body, name, returns)
            elif isinstance(node, FUNCTIONS):
                name = f"{owner or module}.{node.name}"
                if owner:
                    self.classes[owner].members[node.name] = name
                if node.returns:
                    returns.append((name, module, node.returns))
                if module in self.trees:
                    self.options.append((name, *parameters(node, owner)))
                self._index(module, node.body, None, returns)
            else:
                for field in ("body", "orelse", "handlers", "finalbody"):
                    self._index(module, getattr(node, field, ()), owner, returns)
                continue
            self.by_name.setdefault(node.name, []).append(name)
            self.defined_in[name] = module

    @staticmethod
    def _closure(cls, link):
        """``cls`` and every class its ``link`` reaches, nearest first."""
        order = [cls]
        for item in order:
            order += [other for other in getattr(item, link) if other not in order]
        return order

    def _resolve(self, value):
        """Follow an import to the value the imported module binds."""
        for _ in range(10):
            if not (isinstance(value, tuple) and value[0] == "import"):
                break
            value = self.scopes.get(value[1], {}).get(value[2])
        return value

    def _imports(self, node):
        """(bound name, value, module read) of each alias of an import."""
        for alias in node.names:
            if isinstance(node, ast.Import):
                bound = alias.asname or alias.name.partition(".")[0]
                yield bound, ("module", alias.name if alias.asname else bound), alias.name
            elif f"{node.module}.{alias.name}" in self.modules:
                module = f"{node.module}.{alias.name}"
                yield alias.asname or alias.name, ("module", module), module
            else:
                value = ("import", node.module, alias.name)
                yield alias.asname or alias.name, value, node.module

    def _annotation(self, node, env):
        """The value an annotation declares: an instance of its class, through
        ``Optional`` and a one-class ``Union``, or a sequence of those."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a forward reference, or a Literal's string
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            head = ast.unparse(node.value).rpartition(".")[2]
            items = getattr(node.slice, "elts", [node.slice])
            values = {self._annotation(item, env) for item in items} - {None}
            if head in ("Optional", "Union") and len(values) == 1:
                return values.pop()
            return ("items", self._annotation(items[0], env)) if head in SEQUENCES else None
        value = node and self._expr(node, env)[1]
        return ("instance", value[1]) if value and value[0] == "class" else None

    def _assign(self, target, value, env, owner=None, declared=False):
        """Bind a target: a name in ``env[-1]`` (in class ``owner``'s body,
        also as its attribute), or ``obj.attr`` as an attribute of obj's class."""
        if isinstance(target, ast.Attribute):
            base = self._expr(target.value, env)[1]
            if base and base[0] == "instance":
                owner, target, env = base[1], ast.Name(target.attr), [{}]
        if isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            items = [target.value] if isinstance(target, ast.Starred) else target.elts
            values = (value[1] if value and value[0] == "tuple" and len(value[1]) == len(items)
                      else [None] * len(items))
            for item, item_value in zip(items, values):
                self._assign(item, item_value, env)
        elif isinstance(target, ast.Name):
            for scope in [env[-1]] + ([self.classes[owner].fields] if owner else []):
                if declared:
                    scope[target.id] = value
                else:
                    _bind(scope, target.id, value)

    def _block(self, body, env, emit, owner=None):
        for node in body:
            self._statement(node, env, emit, owner)

    def _statement(self, node, env, emit, owner):
        """Walk a statement in order, binding what it assigns into ``env[-1]``;
        ``owner`` is the class whose body holds it."""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name, value, module in self._imports(node):
                env[-1][name] = value
                targets = _targets(self._resolve(value))
                if emit:
                    self._refer(targets, node)
                    self.imported.update([module] + [self.defined_in[t] for t in targets])
            return
        if (emit and isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and {getattr(target, "id", None) for target in node.targets}
                & set(KWARGS_REGISTRIES)):
            for value in node.value.values:
                for target in self._expr(value, env)[0]:
                    self._record(target, EVERYTHING)
        main = getattr(node, "iter", getattr(node, "value", None))
        value = main and self._expr(main, env, emit)[1]
        for child in ast.iter_child_nodes(node):
            if child is not main and not isinstance(child, (ast.stmt, ast.ExceptHandler)):
                self._expr(child, env, emit)
        if isinstance(node, FUNCTIONS):
            env[-1][node.name] = ("defs", (f"{owner or self._module}.{node.name}",))
            self._function(node, env[:-1] if owner else env, owner, emit)
        elif isinstance(node, ast.ClassDef):
            env[-1][node.name] = ("class", f"{self._module}.{node.name}")
            self._block(node.body, env + [{}], emit, f"{self._module}.{node.name}")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._assign(target, value, env, owner)
        elif isinstance(node, ast.AnnAssign):
            annotation = self._annotation(node.annotation, env)
            self._assign(node.target, annotation or value, env, owner, True)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._assign(node.target, _element(value), env)
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                self._block(getattr(node, field, ()), env, emit, owner)

    def _function(self, node, env, owner, emit):
        args = node.args
        local = {arg.arg: self._annotation(arg.annotation, env)
                 for arg in args.posonlyargs + args.args + args.kwonlyargs}
        local.update((arg.arg, None) for arg in (args.vararg, args.kwarg) if arg)
        first = (args.posonlyargs + args.args)[:1]
        decorators = set(map(ast.unparse, node.decorator_list))
        if owner:
            local["__class__"] = ("class", owner)
            if first and "staticmethod" not in decorators:
                kind = "class" if "classmethod" in decorators else "instance"
                local[first[0].arg] = (kind, owner)
        self._block(node.body, env + [local], emit)

    def _refer(self, targets, node):
        for name in targets:
            self.refs.setdefault(name, []).append((self._path, node.lineno))

    def _record(self, name, call):
        """Record a call of ``name`` (of a class: of the constructor it has or inherits)."""
        if name in self.classes:
            name = self._constructor(self.classes[name].mro)
        if name:
            self.calls.setdefault(name, []).append((self._path, *call))

    @staticmethod
    def _constructor(mro):
        for cls in mro:
            if cls.record or "__init__" in cls.members:
                return cls.name if cls.record else cls.members["__init__"]
        return None

    def _member(self, base, attr):
        """(definitions, value) of attribute ``attr`` of ``base``."""
        kind = base and base[0]
        if kind == "module":
            if f"{base[1]}.{attr}" in self.modules:
                return (), ("module", f"{base[1]}.{attr}")
            value = self._resolve(self.scopes.get(base[1], {}).get(attr))
            return _targets(value), value
        cls = kind in ("instance", "class") and self.classes[base[1]]
        if cls and not cls.protocol:
            if attr == "__init__":
                return tuple(filter(None, [self._constructor(cls.mro)])), None
            found = [item.members[attr] for item in cls.mro if attr in item.members][:1]
            targets = tuple(found + [item.members[attr] for item in cls.descendants
                                     if attr in item.members])
            if targets:
                return targets, ("defs", targets)
            for item in cls.mro:
                if attr in item.fields:
                    return (), item.fields[attr]
        return tuple(self.by_name.get(attr, ())), None

    def _call(self, node, env, emit):
        targets, callee = self._expr(node.func, env, emit)
        args = [self._expr(arg, env, emit)[1] for arg in node.args]
        for keyword in node.keywords:
            self._expr(keyword.value, env, emit)
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        positional = list(node.args)
        if name == "partial" and positional:
            targets, callee = self._expr(positional.pop(0), env)
        elif (name == "replace" and not targets and args and args[0]
              and args[0][0] == "instance"):  # dataclasses.replace
            targets, positional = (args[0][1],), positional[1:]
        elif name in KWARGS_REGISTRIES and len(positional) == 2 and emit:
            for target in self._expr(positional[1], env)[0]:
                self._record(target, EVERYTHING)
        elif name == "super" and "__class__" in env[-1]:  # as an instance of the first base
            bases = self.classes[env[-1]["__class__"][1]].bases
            return ("instance", bases[0].name) if bases else None
        if emit:
            everything = any(isinstance(arg, ast.Starred) for arg in positional) or any(
                keyword.arg is None for keyword in node.keywords)
            keywords = {keyword.arg: keyword.value for keyword in node.keywords if keyword.arg}
            for target in targets:
                self._record(target, (positional, keywords, everything))
        kind = callee and callee[0]
        if kind == "class":
            return ("instance", callee[1])
        return self.returns.get(callee[1][0]) if kind == "defs" else None

    def _expr(self, node, env, emit=False):
        """(definitions, value) of expression ``node``, and the values of any other node's
        expressions walked; with ``emit``, record what it refers to and calls. A name bound
        nowhere counts for every definition of that name, and so does a string, unless it is
        a dict key or an index: those are data."""
        targets, value = (), None
        if isinstance(node, ast.Name):
            value = self._resolve(next(
                (scope[node.id] for scope in reversed(env) if node.id in scope), FREE))
            targets = _targets(value) if value is not FREE else (
                () if hasattr(builtins, node.id) else self.by_name.get(node.id, ()))
            value = None if value is FREE else value
            targets = targets if isinstance(node.ctx, ast.Load) else ()
        elif isinstance(node, ast.Attribute):
            targets, value = self._member(self._expr(node.value, env, emit)[1], node.attr)
        elif isinstance(node, ast.Call):
            value = self._call(node, env, emit)
        elif isinstance(node, ast.Constant):
            targets = self.by_name.get(node.value, ()) if isinstance(node.value, str) else ()
        else:
            data = list(getattr(node, "keys", ())) + [getattr(node, "slice", None)]
            values = [self._expr(child, env, emit)[1] for child in ast.iter_child_nodes(node)
                      if not (isinstance(child, ast.Constant) and child in data)]
            if isinstance(node, ast.Subscript):
                value = values[0] if isinstance(node.slice, ast.Slice) else _element(values[0])
            elif isinstance(node, ast.Tuple):
                value = ("tuple", tuple(values[:len(node.elts)]))  # then its ctx
        if emit:
            self._refer(targets, node)
        return tuple(targets), value
