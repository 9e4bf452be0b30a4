"""The package's import graph: each module imports from inside the package only
the modules listed here, so a new dependency between layers is a visible edit."""

import ast
from pathlib import Path

import noisecomb

ALLOWED = {
    "rng": set(),
    "combination": set(),
    "quantizer": set(),
    "diffusion": {"rng"},
    "operators": {"rng"},
    "solvers": {"combination", "diffusion", "operators", "rng"},
    "codec": {"combination", "diffusion", "quantizer", "rng"},
    "cli": {"codec", "diffusion", "operators", "quantizer", "rng", "solvers"},
    "__init__": {"codec", "combination", "diffusion", "operators", "quantizer", "rng", "solvers"},
}


def _package_imports(path: Path) -> set:
    """The package modules that the module at ``path`` imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("noisecomb."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("noisecomb.")}
    return found


def test_each_module_imports_only_its_lower_layers():
    paths = sorted(Path(noisecomb.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(ALLOWED)
    for path in paths:
        assert _package_imports(path) <= ALLOWED[path.stem], path.stem
