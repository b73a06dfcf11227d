"""Every public module-level name in `src/` must be used by `src/`.

A function, class or constant that only the tests call belongs in
`tests/`. A name counts as used when some module loads it, as a name or
as an attribute, outside its own definition; importing it, re-exporting
it from an `__init__` and listing it in `__all__` do not count.
"""

import ast
from collections import Counter
from pathlib import Path

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


def _loads(node):
    """Names loaded under node, as names or attributes."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
        and isinstance(sub.ctx, ast.Load))


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
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":      # re-exports only
            continue
        for name, definition in _definitions(tree):
            inside = loads[definition][name]
            if not name.startswith("_") and total[name] == inside:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_in_src_is_used_in_src():
    assert sorted(unused_public_names()) == sorted(ALLOWED)
