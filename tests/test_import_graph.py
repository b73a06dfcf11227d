"""Each module is imported from where it is defined, so importing one
module loads only what that module uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def loaded_package_modules(module: str, package: str = "quantrange"
                           ) -> list[str]:
    """The `package`.* modules a fresh interpreter holds after importing
    `module`."""
    code = (f"import sys\nimport {module}\n"
            "print(*sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.stdout.split()


def test_package_import_loads_no_module():
    assert loaded_package_modules("quantrange") == ["quantrange"]


@pytest.mark.parametrize("module", [
    "quantrange.errors", "quantrange.synthetic", "quantrange.market_data",
    "quantrange.text"])
def test_leaf_module_loads_no_model_module(module):
    loaded = loaded_package_modules(module)
    assert module in loaded
    assert [m for m in loaded if m.startswith("quantrange.models")] == []


def test_objective_is_a_leaf():
    """The pinball loss needs only the workspace, and the metrics that
    score it load no model or training code."""
    assert loaded_package_modules("quantrange.models.losses") == [
        "quantrange", "quantrange.errors", "quantrange.models",
        "quantrange.models.layers", "quantrange.models.losses"]
    loaded = loaded_package_modules("quantrange.interval_metrics")
    assert "quantrange.interval_metrics" in loaded
    assert "quantrange.models.network" not in loaded
    assert "quantrange.models.training" not in loaded


def test_config_loads_only_errors_and_no_numpy():
    """The config schema is read without numpy or any model module."""
    assert loaded_package_modules("quantrange.config") == [
        "quantrange", "quantrange.config", "quantrange.errors"]
    assert loaded_package_modules("quantrange.config", "numpy") == []


def test_package_inits_import_nothing():
    for init in (SRC / "quantrange" / "__init__.py",
                 SRC / "quantrange" / "models" / "__init__.py"):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.Import, ast.ImportFrom)), init
            if isinstance(node, ast.FunctionDef):
                assert node.name != "__getattr__", init
            if isinstance(node, ast.Name):
                assert node.id != "__all__", init


def _absolute(path: Path, node: ast.ImportFrom) -> str:
    """The module an ImportFrom in `path` imports from."""
    if not node.level:
        return node.module
    package = path.parent.relative_to(SRC).parts
    return ".".join([*package[:len(package) - node.level + 1],
                     *filter(None, [node.module])])


def test_names_come_from_their_defining_module():
    """A package is imported from only for its submodules."""
    submodules = {
        package: {p.stem for p in (SRC / package.replace(".", "/")).glob("*")
                  if p.suffix == ".py" or (p / "__init__.py").is_file()}
        for package in ("quantrange", "quantrange.models")}
    for path in [*SRC.rglob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                allowed = submodules.get(_absolute(path, node))
                for alias in node.names:
                    assert allowed is None or alias.name in allowed, (
                        f"{path.name}:{node.lineno} imports {alias.name} "
                        "from a package __init__")
