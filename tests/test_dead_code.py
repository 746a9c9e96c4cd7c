"""Dead code in the package, found with the standard library's ast.

No linter ships with the package's dependencies, so this checks the two
kinds of dead code a linter would: a module-level import nothing uses,
and a private module-level function, class or constant nothing
references.
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


def test_no_unused_module_level_import():
    assert _unused_imports(_modules()) == []


def test_no_unreferenced_private_function_or_class():
    assert _unreferenced_private(_modules()) == []


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
