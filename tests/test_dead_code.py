"""Dead code in the package, found with the standard library's ast.

No linter ships with the package's dependencies, so this checks the two
kinds of dead code a linter would: a module-level import nothing uses,
and a private module-level function, class or constant nothing
references.  A third check finds options nobody sets: a parameter or a
record field with a default that no call in the package passes.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bogodamp"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree):
    """The names listed in the module's __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _names(node):
    """Every name read or written under node, and every attribute name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _imported_from(modules):
    """module -> names other package modules import from it by name."""
    out = {name: set() for name in modules}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                target = node.module or "__init__"
                out.setdefault(target, set()).update(
                    alias.name for alias in node.names)
    return out


def _unused_imports(modules):
    found = []
    reexported = _imported_from(modules)
    for mod, tree in modules.items():
        used = _names(tree) | _exported(tree) | reexported[mod]
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append(f"{mod}.py:{node.lineno} {bound}")
    return found


def _defined(node):
    """The name a module-level def, class or single-name assignment
    binds, or None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        node = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        node = node.target
    else:
        return None
    return node.id if isinstance(node, ast.Name) else None


def _unreferenced_private(modules):
    found = []
    reexported = set().union(*_imported_from(modules).values())
    tops = [(top, _names(top)) for tree in modules.values()
            for top in tree.body]
    for mod, tree in modules.items():
        for node in tree.body:
            name = _defined(node)
            if not (name and name.startswith("_")
                    and not name.startswith("__")):
                continue
            # a definition's own body is not a reference to it
            if not (name in reexported
                    or any(name in names
                           for top, names in tops if top is not node)):
                found.append(f"{mod}.py:{node.lineno} {name}")
    return found


# options set only from outside the package: the tests and the benchmark
# run the command line through main(argv)
_SET_OUTSIDE = {("cli", "main", "argv")}


def _callee(node):
    """The name a call or a base class refers to, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_record(cls):
    """A dataclass or a NamedTuple: its annotated attributes are fields."""
    return (any(_callee(d.func if isinstance(d, ast.Call) else d)
                == "dataclass" for d in cls.decorator_list)
            or any(_callee(b) == "NamedTuple" for b in cls.bases))


def _options(modules):
    """(module, line, callee, name, position) of every parameter and record
    field with a default.  callee is the name a call uses (the class's
    for __init__ and for fields); position is the index of the positional
    argument that fills it, None for a keyword-only parameter."""
    out = []
    for mod, tree in modules.items():
        methods = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods.update((id(f), cls.name) for f in cls.body
                           if isinstance(f, ast.FunctionDef))
            if _is_record(cls):
                fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
                out.extend((mod, f.lineno, cls.name, f.target.id, i)
                           for i, f in enumerate(fields) if f.value)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            callee, skip = fn.name, 0
            if id(fn) in methods and not any(
                    _callee(d) == "staticmethod" for d in fn.decorator_list):
                skip = 1
                if fn.name == "__init__":
                    callee = methods[id(fn)]
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            out.extend((mod, fn.lineno, callee, a.arg, i - skip)
                       for i, a in enumerate(args) if i >= first)
            out.extend((mod, fn.lineno, callee, a.arg, None)
                       for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None)
    return out


def _choices(node):
    """The names a conditional expression of names chooses from, or None."""
    if isinstance(node, ast.IfExp):
        body, orelse = _choices(node.body), _choices(node.orelse)
        return body | orelse if body and orelse else None
    name = _callee(node)
    return {name} if name else None


def _calls(modules):
    """(callee, call) of every call; a name bound to a conditional
    expression of names calls each of them."""
    out = []
    for tree in modules.values():
        chosen = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.IfExp)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    chosen.setdefault(target.id, set()).update(
                        _choices(node.value) or ())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node.func)
                out.extend((c, node) for c in {name} | chosen.get(name, set()))
    return out


def _keys(node):
    """The keys of a dict display or of a comprehension over a literal
    tuple of strings, or None when they are not known."""
    if isinstance(node, ast.DictComp) and len(node.generators) == 1:
        gen = node.generators[0]
        if (isinstance(node.key, ast.Name) and isinstance(gen.target, ast.Name)
                and node.key.id == gen.target.id):
            node = ast.Dict(keys=getattr(gen.iter, "elts", [None]), values=[])
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in node.keys):
        return {k.value for k in node.keys}
    return None


def _sets(call, name, position):
    """Whether the call passes the parameter: by keyword, by position, or
    possibly through *args or **mapping."""
    for kw in call.keywords:
        keys = _keys(kw.value) if kw.arg is None else {kw.arg}
        if keys is None or name in keys:
            return True
    return position is not None and (
        position < len(call.args)
        or any(isinstance(a, ast.Starred) for a in call.args))


def _unset_options(modules):
    calls = _calls(modules)
    return [f"{mod}.py:{line} {callee}.{name}"
            for mod, line, callee, name, position in sorted(
                _options(modules), key=lambda option: option[:2])
            if (mod, callee, name) not in _SET_OUTSIDE
            and not any(_sets(call, name, position)
                        for c, call in calls if c == callee)]


def test_no_unused_module_level_import():
    assert _unused_imports(_modules()) == []


def test_no_unreferenced_private_function_or_class():
    assert _unreferenced_private(_modules()) == []


def test_every_option_is_set_by_some_call():
    assert _unset_options(_modules()) == []


def test_checks_find_planted_dead_code():
    planted = ast.parse("import os\nfrom math import sqrt, pi\n"
                        "__all__ = ['pi']\n"
                        "def _dead():\n    return _dead()\n"
                        "def _live():\n    return 1\n"
                        "class _Unused:\n    pass\n"
                        "x = _live()\n"
                        "_LEFT = 1\n_KEPT: int = 2\n__version__ = '1'\n"
                        "y = _KEPT\n")
    modules = {"planted": planted}
    assert _unused_imports(modules) == ["planted.py:1 os",
                                        "planted.py:2 sqrt"]
    assert _unreferenced_private(modules) == ["planted.py:4 _dead",
                                              "planted.py:8 _Unused",
                                              "planted.py:11 _LEFT"]


def test_options_check_finds_planted_unset_options():
    planted = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Spec:\n"
        "    tol: float = 1.0\n"
        "    budget: int = 10\n"
        "    kind = 'fixed'\n"
        "class Model:\n"
        "    def __init__(self, a, b=2):\n"
        "        self.a = a\n"
        "    def eval(self, x, fast=False, *, slow=False):\n"
        "        return x\n"
        "def one(x, n=1):\n"
        "    return x\n"
        "def two(x, n=2):\n"
        "    return x\n"
        "def spread(x, y=0, z=0):\n"
        "    return x\n"
        "def keyed(x, y=0, z=0):\n"
        "    return x\n"
        "def loose(x, y=0):\n"
        "    return x\n"
        "def main(argv=None):\n"
        "    fn = one if argv else two\n"
        "    fn(1, 3)\n"
        "    Model(1).eval(2, True)\n"
        "    spread(*argv)\n"
        "    keyed(1, **{k: 0 for k in ('y',)})\n"
        "    loose(1, **argv)\n"
        "    return Spec(0.5)\n")
    modules = {"cli": planted}
    assert _unset_options(modules) == ["cli.py:5 Spec.budget",
                                       "cli.py:8 Model.b",
                                       "cli.py:10 eval.slow",
                                       "cli.py:18 keyed.z"]
