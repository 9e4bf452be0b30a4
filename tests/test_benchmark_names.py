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


def test_tracer_installs_on_every_target_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("noisecomb_benchmark_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # its dataclasses look it up
    spec.loader.exec_module(tracer_module)
    original = noisecomb.codec.build_codebook
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # AttributeError if a target is gone
        assert noisecomb.codec.build_codebook is not original
    finally:
        tracer.uninstall()
    assert noisecomb.codec.build_codebook is original is noisecomb.rng.build_codebook


def test_worker_imports_build_schedule():
    from noisecomb.diffusion import build_schedule

    assert build_schedule(4).T == 4
