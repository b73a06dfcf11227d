"""Every public module-level name in `src/`, and every public method and
property of a module-level class there, must be used by `src/`.

A function, class, constant, method or property that only the tests call
belongs in `tests/`. A module-level name counts as used when some module
loads it, as a name or as an attribute, outside its own definition;
importing it, re-exporting it from an `__init__` and listing it in
`__all__` do not count. A method or property counts as used when some
module loads it as an attribute outside its own definition. Dunder
methods are called by the language, not by name, and are not checked.

Likewise every config key must be read: each field of a section class
that a config key sets must be loaded as an attribute somewhere in `src/`,
outside its own declaration.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from quantrange import config

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> why it stays although nothing in src/ uses it
ALLOWED = {
    "cli.train_linear":
        "perfbench/tracing.py wraps it; goes with the tracer's target list",
    "indicators.shape_from_quantiles":
        "ROADMAP item 4 gives it a caller (eval's implied sigma) or moves it",
    "synthetic.oracle_forecast":
        "ROADMAP items 2 and 4 vectorise it and give it a caller in eval",
}


def _definitions(tree):
    """(name, node) for each public function, class and assigned constant
    at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _methods(tree):
    """(qualified name, name, node) for each public method and property of
    each class at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(node, attributes_only=False):
    """Names loaded under node, as attributes, and as names too unless
    attributes_only."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds) and isinstance(sub.ctx, ast.Load))


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unused_public_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    # loads per top-level statement; __all__ lists are not uses
    loads = {node: _loads(node) for tree in trees.values()
             for node in tree.body if not _is_all(node)}
    total = sum(loads.values(), Counter())
    attributes = sum((_loads(tree, attributes_only=True)
                      for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":      # re-exports only
            continue
        for name, definition in _definitions(tree):
            inside = loads[definition][name]
            if not name.startswith("_") and total[name] == inside:
                unused.append(f"{path.stem}.{name}")
        for qualified, name, definition in _methods(tree):
            inside = _loads(definition, attributes_only=True)[name]
            if attributes[name] == inside:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_in_src_is_used_in_src():
    assert sorted(unused_public_names()) == sorted(ALLOWED)


def unread_config_keys():
    """`Class.field` for each config key's field that no module of `src/`
    loads as an attribute, outside the field's own declaration."""
    attributes = sum((_loads(ast.parse(path.read_text(encoding="utf-8")),
                             attributes_only=True)
                      for path in SRC.rglob("*.py")), Counter())
    tree = ast.parse((SRC / "quantrange" / "config.py").read_text(
        encoding="utf-8"))
    declarations = {(node.name, item.target.id): item
                    for node in tree.body if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.AnnAssign)}
    return [f"{cls.__name__}.{f.name}"
            for cls in config.Section.__subclasses__() for f in fields(cls)
            if f.metadata.get("key", True) and attributes[f.name] == _loads(
                declarations[cls.__name__, f.name],
                attributes_only=True)[f.name]]


def test_every_config_key_is_read_in_src():
    assert unread_config_keys() == []
