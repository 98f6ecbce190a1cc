"""Per-layer counters and busy times, taken from outside the program.

``Tracer`` replaces module functions and methods of schwarznorm with timing
wrappers while it is installed, and puts the originals back on removal.
A function is patched in every schwarznorm module namespace that holds it,
because modules import each other's functions by name.  Calls made inside
the defining module (``jets`` calling itself, for instance) are left alone
unless the probe says otherwise, so a layer's time is the time spent in
calls made into it from outside.

Each probe adds its wall time to a ``*_s`` key.  A key that is already
running further up the stack is not timed again, so recursion never counts
twice.  Probes with a ``self_key`` also record their time minus the time of
the probed calls they made.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

THEOREM_IDS = (
    "thm2.1.ii", "thm2.1.iii", "thm2.2", "thm2.3", "thm2.4", "thm2.5",
    "lemmaA", "psi", "nehari", "becker", "ahlfors-weill",
)

JET_OPS = (
    "jet_add", "jet_compose", "jet_constant", "jet_differentiate", "jet_div",
    "jet_exp", "jet_identity", "jet_integrate", "jet_linear", "jet_log",
    "jet_mul", "jet_pow", "jet_scale",
)

# Per-layer metric names with their units, in report order.  Every traced
# run reports all of them; a layer a workload never calls reads 0.
LAYER_METRICS = {
    "norms.calls": "count",
    "norms.searches": "count",
    "norms.array_evals": "count",
    "norms.scalar_evals": "count",
    "norms.refine_iters": "count",
    "norms.busy_s": "s",
    "norms.array_s": "s",
    "norms.scalar_s": "s",
    "norms.self_s": "s",
    "integrate.calls": "count",
    "integrate.points": "count",
    "integrate.busy_s": "s",
    "integrate.points_per_s": "1/s",
    "functions.value_points": "count",
    "functions.value_s": "s",
    "functions.deriv_points": "count",
    "functions.deriv_s": "s",
    "functions.jet_calls": "count",
    "functions.jet_s": "s",
    "jets.ops": "count",
    "jets.busy_s": "s",
    "schwarzian.calls": "count",
    "schwarzian.busy_s": "s",
    "theorems.bruteforce_s": "s",
    "theorems.bruteforce_self_s": "s",
    "theorems.growth_s": "s",
    "theorems.membership_s": "s",
    **{f"verify.{tid}_s": "s" for tid in THEOREM_IDS},
    "cli.self_s": "s",
}


@dataclass(frozen=True)
class Probe:
    """Where to patch and what to record.

    ``owner`` is a module name or ``module:Class``; ``time_key`` may be a
    function of the call's positional arguments.  ``count_key`` counts
    calls and ``points_key`` adds the size of the second positional
    argument (the points).  ``outside_only`` skips the defining module.
    ``counts_search`` marks the norm search: a call that evaluated the
    weighted modulus at all is a search (otherwise a cache hit), and its
    ``refinement_iterations`` are summed.
    """

    owner: str
    name: str
    time_key: str | Callable[[tuple], str]
    count_key: str | None = None
    points_key: str | None = None
    self_key: str | None = None
    outside_only: bool = False
    counts_search: bool = False


def _verify_key(args) -> str:
    return f"verify.{args[0]}_s"


PROBES = (
    Probe("schwarznorm.norms", "hyperbolic_norm", "norms.busy_s", "norms.calls",
          self_key="norms.self_s", counts_search=True),
    Probe("schwarznorm.norms", "_weighted_array", "norms.array_s",
          points_key="norms.array_evals"),
    Probe("schwarznorm.norms", "weighted_modulus", "norms.scalar_s", "norms.scalar_evals"),
    Probe("schwarznorm._integrate", "exp_path_integrals", "integrate.busy_s",
          "integrate.calls", "integrate.points", outside_only=True),
    Probe("schwarznorm._integrate", "segment_integral", "integrate.busy_s",
          "integrate.calls", "integrate.points", outside_only=True),
    Probe("schwarznorm.functions:AnalyticFunction", "value", "functions.value_s",
          points_key="functions.value_points"),
    Probe("schwarznorm.functions:AnalyticFunction", "deriv", "functions.deriv_s",
          points_key="functions.deriv_points"),
    Probe("schwarznorm.functions", "jet_at", "functions.jet_s", "functions.jet_calls"),
    *(Probe("schwarznorm.jets", op, "jets.busy_s", "jets.ops", outside_only=True)
      for op in JET_OPS),
    *(Probe("schwarznorm.schwarzian", name, "schwarzian.busy_s", "schwarzian.calls")
      for name in ("preschwarzian_at", "schwarzian_at")),
    Probe("schwarznorm.theorems", "univalence_bruteforce", "theorems.bruteforce_s",
          self_key="theorems.bruteforce_self_s"),
    Probe("schwarznorm.theorems", "verify_growth_distortion", "theorems.growth_s"),
    Probe("schwarznorm.theorems", "membership_status", "theorems.membership_s"),
    Probe("schwarznorm.cli", "_run_verifier", _verify_key),
    Probe("schwarznorm.cli", "main", "cli.busy_s", self_key="cli.self_s"),
)


class _Patcher:
    """Swaps functions for wrappers on entry and restores them on exit."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _patch_everywhere(self, owner: str, name: str, make_wrapper, outside_only=False):
        module_name, _, cls_name = owner.partition(":")
        home = sys.modules.get(module_name)
        if cls_name:
            home = getattr(home, cls_name, None)
        fn = getattr(home, name, None)
        if fn is None:
            return
        wrapped = make_wrapper(fn)
        if cls_name:
            self._patch(home, name, wrapped)
            return
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "schwarznorm" and not mod_name.startswith("schwarznorm."):
                continue
            if outside_only and module is home:
                continue
            if getattr(module, name, None) is fn:
                self._patch(module, name, wrapped)

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        raise NotImplementedError

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


class Tracer(_Patcher):
    """Installs the probes; ``stats`` accumulates while installed."""

    def __init__(self, probes=PROBES):
        super().__init__()
        self.probes = probes
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # probed child time of each open span
        self._running: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, probe: Probe):
        stats, stack, running = self.stats, self._stack, self._running
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe.count_key:
                stats[probe.count_key] += 1
            if probe.points_key:
                stats[probe.points_key] += np.size(args[1])
            key = probe.time_key(args) if callable(probe.time_key) else probe.time_key
            if running[key]:
                return fn(*args, **kwargs)
            if probe.counts_search:
                evals = stats["norms.array_evals"] + stats["norms.scalar_evals"]
            running[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                running[key] -= 1
                if stack:
                    stack[-1] += elapsed
                stats[key] += elapsed
                if probe.self_key:
                    stats[probe.self_key] += elapsed - child
            if probe.counts_search and stats["norms.array_evals"] + stats["norms.scalar_evals"] > evals:
                stats["norms.searches"] += 1
                stats["norms.refine_iters"] += result.refinement_iterations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for probe in self.probes:
            self._patch_everywhere(probe.owner, probe.name,
                                   lambda fn, probe=probe: self._wrap(fn, probe),
                                   probe.outside_only)


class CompletionClock(_Patcher):
    """Records the moment each call to the named functions of ``module``
    returns, wherever in the package it is called from."""

    def __init__(self, module: str, names):
        super().__init__()
        self.module = module
        self.names = names
        self.times: list[float] = []

    def install(self) -> None:
        for name in self.names:
            self._patch_everywhere(self.module, name, self._wrap)

    def _wrap(self, fn):
        times, clock = self.times, time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock())

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(stats: dict[str, float]) -> dict[str, float]:
    """All ``LAYER_METRICS`` from one traced round's raw stats."""
    out = {name: float(stats.get(name, 0.0)) for name in LAYER_METRICS}
    busy = out["integrate.busy_s"]
    out["integrate.points_per_s"] = out["integrate.points"] / busy if busy > 0 else 0.0
    return out
