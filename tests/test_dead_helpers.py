"""Every module-level private name of the package is used by the package itself.

A private helper that only tests still call is dead code kept alive: the
package should compute each quantity in one place, and a test should check
that place.  A name counts as used where the package loads it, reads it as
an attribute or imports it, outside its own definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "polyrep"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _module_level(nodes):
    """The nodes that run when a module is imported: function and class bodies are skipped."""
    for node in nodes:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _module_level(ast.iter_child_nodes(node))


def _definitions(tree):
    """(name, node) of each private name a module binds at its top level."""
    for node in _module_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if _private(name):
            yield name, node


def _references(tree):
    """(name, node) of each name a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def dead_names(sources):
    """``module: name`` of each private module-level name that no module refers to.

    ``sources`` maps each module's file name to its text.
    """
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    references = {}
    for tree in trees.values():
        for name, node in _references(tree):
            references.setdefault(name, []).append(node)
    dead = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            if all(id(node) in inside for node in references.get(name, ())):
                dead.append(f"{module}: {name}")
    return dead


def test_every_private_module_name_is_used_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []


def test_a_name_used_only_in_its_own_body_or_in_another_module_is_told_apart():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "_TABLE = {}\n\n"
                "def public():\n    return _used(), _TABLE\n",
        "b.py": "from .a import _shared\n\n_unused = 1\n",
        "c.py": "def _shared():\n    pass\n",
    }
    assert dead_names(sources) == ["a.py: _recursive", "b.py: _unused"]
