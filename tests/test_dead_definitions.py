"""Dead-definition guard: every module-level function and class of the
package is named somewhere in the package or in perfbench outside its own
definition. A name counts when it is a ``Name`` in its own module, an import
of it, or an attribute on a name that an import bound to its module; tests
do not count, so a helper that only tests reach fails here."""

import ast
import pathlib

import wavetrain

SRC = pathlib.Path(wavetrain.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _module_name(path):
    return "wavetrain" if path.stem == "__init__" else f"wavetrain.{path.stem}"


def _imports(tree, module):
    """(aliases, imported): local name -> dotted module of each module an
    import binds, and the (module, name) pairs that ``from`` imports name."""
    package = module if module == "wavetrain" else module.rpartition(".")[0]
    aliases, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    root = a.name.partition(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            source = ".".join(p for p in (base, node.module or "") if p)
            for a in node.names:
                imported.add((source, a.name))
                aliases[a.asname or a.name] = f"{source}.{a.name}"
    return aliases, imported


def _dotted(node):
    """``a.b.c`` of an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _uses(tree, module):
    """Every (module, name) pair that ``tree`` names through an import or an
    attribute on an imported module."""
    aliases, used = _imports(tree, module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            if root in aliases:
                owner, _, name = f"{aliases[root]}.{rest}".rpartition(".")
                used.add((owner, name))
    return used


def _local_names(tree, skip):
    """Every ``Name`` in ``tree`` outside the top-level statement ``skip``."""
    return {node.id for stmt in tree.body if stmt is not skip
            for node in ast.walk(stmt) if isinstance(node, ast.Name)}


def dead_definitions(src=SRC, others=(PERFBENCH,)):
    """``module.name`` of each top-level def or class under ``src`` that
    nothing under ``src`` or ``others`` names outside its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    used = set()
    for path, tree in trees.items():
        used |= _uses(tree, _module_name(path))
    for root in others:
        for path in sorted(root.glob("*.py")):
            used |= _uses(ast.parse(path.read_text(encoding="utf-8")), "")
    dead = []
    for path, tree in trees.items():
        module = _module_name(path)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if (module, stmt.name) not in used and stmt.name not in _local_names(tree, stmt):
                    dead.append(f"{module}.{stmt.name}")
    return dead


def test_every_definition_has_a_reader():
    assert dead_definitions() == []


def test_guard_sees_a_definition_that_only_shares_a_method_name(tmp_path):
    # numpy's ``.reshape`` is called all over the package; a module-level
    # ``reshape`` that nothing imports is still dead
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "autodiff.py":
            text += "\n\ndef reshape(x, shape):\n    return x.data.reshape(shape)\n"
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    assert dead_definitions(tmp_path) == ["wavetrain.autodiff.reshape"]
