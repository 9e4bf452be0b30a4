"""The names the benchmark reaches into the package for still exist.

``benchmarks/tracer.py`` wraps a fixed list of functions by name (``score``,
``mpgd_direction``, ``ncs_solve``, ``baseline_solve`` and more), and
``benchmarks/worker.py`` imports ``build_schedule``. A change that drops one
of them would only show when the benchmark runs; these tests show it here.
"""

import importlib.util
import sys
from pathlib import Path

import noisecomb.cli  # noqa: F401  (loads every module the tracer wraps)
import noisecomb.codec
import noisecomb.rng

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # only a traced benchmark run (--trace 1) installs the tracer; this resolves
    # and wraps every target it names, and the aliases other modules import
    # (the codec's build_codebook), so a rename in src fails here, and runs nothing
    spec = importlib.util.spec_from_file_location("noisecomb_benchmark_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # its dataclasses look it up
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    functions = {t: getattr(sys.modules[t.owner], t.attr) for t in tracer.targets if "." not in t.attr}
    for target in set(tracer.targets) - set(functions):
        assert tracer_module._class_slots(sys.modules[target.owner], target.attr), target.name
    original = noisecomb.codec.build_codebook
    tracer.install()  # AttributeError if a target is gone
    try:
        assert all(getattr(sys.modules[t.owner], t.attr) is not fn for t, fn in functions.items())
        assert noisecomb.codec.build_codebook is not original
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[t.owner], t.attr) is fn for t, fn in functions.items())
    assert noisecomb.codec.build_codebook is original is noisecomb.rng.build_codebook
    assert not any(stat.calls for stat in tracer.stats.values())


def test_worker_imports_build_schedule():
    from noisecomb.diffusion import build_schedule

    assert build_schedule(4).T == 4
