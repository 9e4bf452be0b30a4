"""The package's import graph: each module imports from inside the package only
the modules listed here, so a new dependency between layers is a visible edit.
The same holds for the third-party libraries each module loads at import, and
every name a module lists in ``__all__`` is one that it defines."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_every_name_a_module_exports_is_defined():
    # so a removal cannot leave a stale name in an ``__all__``
    for path in sorted(Path(noisecomb.__file__).parent.glob("*.py")):
        module = importlib.import_module("noisecomb" if path.stem == "__init__" else f"noisecomb.{path.stem}")
        assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == [], path.stem


# third-party libraries each module imports at module level; every other module: numpy only
THIRD_PARTY = {"rng": {"numpy", "numpy.random", "scipy.special"}}


def _top_level_third_party_imports(path: Path) -> set:
    """The modules outside the standard library and the package that ``path`` imports at
    module level; imports inside functions are loaded only when they are called."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return {name for name in found
            if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "noisecomb"}


def test_each_module_imports_only_its_third_party_libraries():
    for path in sorted(Path(noisecomb.__file__).parent.glob("*.py")):
        assert _top_level_third_party_imports(path) <= THIRD_PARTY.get(path.stem, {"numpy"}), path.stem


_RUNS = """
import json, sys
import noisecomb, noisecomb.cli
import numpy as np
from noisecomb.cli import main
from noisecomb.diffusion import (
    GaussianMixturePrior, Schedule, step_at, tweedie_jacobian, tweedie_jacobian_apply, unconditional_sample,
)
from noisecomb.rng import Domain, StreamKey, derive_stream

def config(name, payload):
    path = out + "/" + name + ".json"
    with open(path, "w") as f:
        json.dump(payload, f)
    return path

out = sys.argv[1]
solve = {"prior": {"preset_id": 4, "d": 8},
         "task": {"operator": {"kind": "mask", "indices": [0, 1, 2, 3]}, "sigma_obs": 0.05},
         "solvers": ["DPS", "NCS-DPS", "MPGD", "NCS-MPGD", "DDCM"], "T": [4], "K": 8, "seeds": [0]}
assert main(["solve", "--config", config("solve", solve), "--out", out + "/solve.csv"]) == 0
sample = {"prior": {"preset_id": 2, "d": 4}, "T": 4, "seeds": [0, 1]}
assert main(["sample", "--config", config("sample", sample), "--out", out + "/sample.json"]) == 0
np.save(out + "/x0.npy", np.linspace(-1.0, 1.0, 8))
codec = {"prior_id": 2, "T": 6, "K": 8, "m": 2, "C": 2, "seed": 0}
assert main(["compress", "--config", config("codec", codec), "--input", out + "/x0.npy",
             "--out", out + "/x0.ncsb"]) == 0
assert main(["decompress", "--input", out + "/x0.ncsb", "--out", out + "/x0.dec.npy"]) == 0

full = {"weights": [0.4, 0.6], "means": [[0.0, 0.5, 0.0], [1.0, -1.0, 0.2]],
        "covariances": [[[1.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 0.7]], np.eye(3).tolist()]}
assert main(["sample", "--config", config("full-sample", {"prior": full, "T": 4, "seeds": [0, 1]}),
             "--out", out + "/full-sample.json"]) == 0
assert main(["solve", "--config", config("full-solve", {**solve, "prior": full, "task": {
    "operator": {"kind": "mask", "indices": [0, 1]}, "sigma_obs": 0.05}}),
             "--out", out + "/full-solve.csv"]) == 0
prior = GaussianMixturePrior(**{key: np.array(value) for key, value in full.items()})
schedule = Schedule(6)
step = step_at(prior, schedule, np.zeros((2, 3)), 3)
tweedie_jacobian_apply(step, np.ones((2, 3)))
tweedie_jacobian(prior, schedule, np.zeros(3), 3)
prior.sample(derive_stream(StreamKey(0, Domain.PRIOR_SAMPLE, 0, 0)))
unconditional_sample(prior, schedule, 0)
assert "scipy.linalg" not in sys.modules, "the package loaded scipy.linalg"
"""


def test_scipy_linalg_is_never_loaded(tmp_path):
    # diagonal and full-covariance priors alike score through NumPy alone; a fresh
    # interpreter, because pytest itself loads scipy.stats, and with it scipy.linalg
    src = Path(noisecomb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _RUNS, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
