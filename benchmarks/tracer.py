"""Span tracer that wraps noisecomb's public functions from outside the package.

Each target is one function or method of a layer (a ``noisecomb`` module).
Installing the tracer replaces the target in every ``noisecomb`` module that
holds it: several are bound elsewhere by ``from ... import`` (``build_codebook``
lives in ``rng``, ``codec`` and ``solvers``), and replacing only the defining
module would miss those callers. Uninstalling restores every original object.

A span's self time is its duration minus the durations of the wrapped calls
made inside it. Spans are kept on one stack, so the tracer assumes that one
thread at a time runs traced code. ``noisecomb.cli`` runs solve jobs in a
one-worker pool by default, with the calling thread blocked until the jobs
finish, so that assumption holds for the benchmark's workloads.

Every span also carries a group: the solver name of the enclosing
``ncs_solve`` / ``baseline_solve`` call, or ``""`` outside any solve. Per-group
totals attribute a solver's time to the layers below it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    raised: int = 0  # calls that ended in an exception
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0  # target-specific work count (words, values)


@dataclass(frozen=True)
class Target:
    """One traced name: ``owner`` is a module path, ``attr`` a dotted name in it."""

    name: str
    owner: str
    attr: str
    work: Callable | None = None  # (args, kwargs) -> int
    key: Callable | None = None  # (args, kwargs) -> hashable, for distinct counts
    group: Callable | None = None  # (args, kwargs) -> group label for the subtree


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solver_name(args, kwargs):
    return _arg(args, kwargs, 3, "config").solver


TARGETS = (
    Target("rng.derive_stream", "noisecomb.rng", "derive_stream"),
    Target(
        "rng.NoiseStream.raw",
        "noisecomb.rng",
        "NoiseStream.raw",
        work=lambda a, k: int(_arg(a, k, 1, "n")),
    ),
    Target("rng.ndtri", "noisecomb.rng", "ndtri", work=lambda a, k: int(np.size(a[0]))),
    Target(
        "rng.build_codebook",
        "noisecomb.rng",
        "build_codebook",
        key=lambda a, k: tuple(
            int(_arg(a, k, i, n)) for i, n in enumerate(("seed", "t", "K", "d"))
        ),
    ),
    Target("diffusion.score", "noisecomb.diffusion", "score"),
    Target("diffusion.logsumexp", "noisecomb.diffusion", "logsumexp"),
    Target("diffusion.tweedie_jacobian_apply", "noisecomb.diffusion", "tweedie_jacobian_apply"),
    Target("diffusion.ddpm_step", "noisecomb.diffusion", "ddpm_step"),
    Target("operators.apply", "noisecomb.operators", "*.apply"),
    Target("operators.adjoint", "noisecomb.operators", "*.adjoint"),
    Target("operators.mpgd_direction", "noisecomb.operators", "mpgd_direction"),
    Target("combination.optimal_weights", "noisecomb.combination", "optimal_weights"),
    Target("combination.top_m_weights", "noisecomb.combination", "top_m_weights"),
    Target("combination.synthesize_noise", "noisecomb.combination", "synthesize_noise"),
    Target("solvers.ncs_solve", "noisecomb.solvers", "ncs_solve", group=_solver_name),
    Target("solvers.baseline_solve", "noisecomb.solvers", "baseline_solve", group=_solver_name),
    Target("quantizer.quantize_dp", "noisecomb.quantizer", "quantize_dp"),
    Target("quantizer.decode_weights", "noisecomb.quantizer", "decode_weights"),
    Target("codec.compress", "noisecomb.codec", "compress"),
    Target("codec.decompress", "noisecomb.codec", "decompress"),
    Target("codec.Bitstream.from_bytes", "noisecomb.codec", "Bitstream.from_bytes"),
    Target("cli.cmd_solve", "noisecomb.cli", "cmd_solve"),
)

SOLVER_TARGETS = tuple(t for t in TARGETS if t.group is not None)


def _class_slots(module, attr: str):
    """``(class, method name)`` pairs for ``Class.method`` or ``*.method``.

    ``*.method`` names every class defined in ``module`` that defines
    ``method`` itself, such as each operator's own ``apply``.
    """
    cls_name, meth = attr.split(".")
    if cls_name != "*":
        return [(getattr(module, cls_name), meth)]
    return [
        (obj, meth)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and meth in vars(obj)
    ]


class Tracer:
    """Wraps ``targets`` while installed and accumulates per-(group, name) stats."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats: dict = defaultdict(Stat)  # (group, name) -> Stat
        self.keys: dict = defaultdict(list)  # name -> keys in call order
        self._stack: list = []  # open spans: [child seconds, group]
        self._restore: list = []  # (holder, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "noisecomb" or name.startswith("noisecomb."))
        ]
        for target in self.targets:
            owner = sys.modules[target.owner]
            if "." in target.attr:
                for cls, meth in _class_slots(owner, target.attr):
                    raw = vars(cls)[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(target, raw.__func__))
                    else:
                        wrapped = self._wrap(target, raw)
                    self._set(cls, meth, wrapped)
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        return self

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn):
        stats, stack, keys = self.stats, self._stack, self.keys
        name, work, key, group = target.name, target.work, target.key, target.group
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if group is not None:
                label = group(args, kwargs)
            else:
                label = stack[-1][1] if stack else ""
            stat = stats[(label, name)]
            if work is not None:
                stat.work += work(args, kwargs)
            if key is not None:
                keys[name].append(key(args, kwargs))
            frame = [0.0, label]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict:
        """Stats summed over groups, keyed by target name."""
        out = {t.name: Stat() for t in self.targets}
        for (_, name), s in self.stats.items():
            agg = out[name]
            agg.calls += s.calls
            agg.raised += s.raised
            agg.total_s += s.total_s
            agg.self_s += s.self_s
            agg.work += s.work
        return out

    def group_self_s(self, group: str, layer: str) -> float:
        """Self seconds of one layer's targets inside one solver group."""
        return sum(
            s.self_s
            for (g, name), s in self.stats.items()
            if g == group and name.split(".", 1)[0] == layer
        )

    def group_solve_s(self, group: str) -> float:
        """Wall seconds of the solves of one solver group."""
        return sum(
            s.total_s
            for (g, name), s in self.stats.items()
            if g == group and name in ("solvers.ncs_solve", "solvers.baseline_solve")
        )
