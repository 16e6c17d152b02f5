"""In-process tracing of capsched's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
capsched module that bound it (``from .core import ...`` makes a second
binding), in module-level dicts such as ``experiment.ALGORITHMS``, and in
function defaults such as ``schedule_repeated``'s ``single_shot``. A wrapper
records a span (name, start, end, parent, command id) and the operation
counts of that call. Spans stay in memory; ``layer_metrics`` turns them into
per-layer totals and self times once the traced passes are over.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

# hook(args, result) -> {counter: increment}; counters are named after the span
Hook = Callable[[tuple, Any], dict[str, float]]


def _n_links(args: tuple) -> int:
    return len(args[0].links)


def _blowup(args: tuple, result: Any) -> dict[str, float]:
    return {"slots_in": args[1].slot_count, "slots_out": result.slot_count}


# (module, attribute, span name, hook)
TARGETS: list[tuple[str, str, str, Hook | None]] = [
    ("core", "affectance_matrix", "core.affectance_matrix", lambda a, r: {"cells": _n_links(a) ** 2}),
    ("core", "is_feasible", "core.is_feasible", lambda a, r: {"pairs": len(a[0]) ** 2}),
    ("core", "affectance", "core.affectance", None),
    ("core", "p_signal_violation", "core.p_signal_violation", None),
    ("core", "is_q_dispersed", "core.is_q_dispersed", lambda a, r: {"pairs": len(a[0]) ** 2}),
    ("core", "partition_report", "core.partition_report", None),
    ("schedulers", "schedule_repeated", "schedulers.schedule_repeated", lambda a, r: {"rounds": r.slot_count}),
    ("schedulers", "single_shot_greedy", "schedulers.single_shot_greedy", None),
    ("schedulers", "single_shot_guarded", "schedulers.single_shot_guarded", None),
    ("schedulers", "schedule_nonuniform", "schedulers.schedule_nonuniform", None),
    ("schedulers", "first_fit_baseline", "schedulers.first_fit_baseline", None),
    ("schedulers", "strengthen", "schedulers.strengthen", _blowup),
    ("schedulers", "disperse", "schedulers.disperse", _blowup),
    ("topogen", "generate", "topogen.generate", None),
    ("io", "load_instance", "io.load_instance", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("io", "save_schedule", "io.save_schedule", None),
    ("experiment", "run_experiment", "experiment.run_experiment", lambda a, r: {"cells": len(r[0])}),
    # masks is computed (2^n table entries per call), not counted inside the oracle
    ("oracles", "min_schedule", "oracles.min_schedule", lambda a, r: {"masks": 2 ** _n_links(a)}),
    ("oracles", "max_feasible_subset", "oracles.max_feasible_subset", None),
    ("oracles", "max_p_signal_subset", "oracles.max_p_signal_subset", None),
    (
        "abstract",
        "correspondence_check",
        "abstract.correspondence_check",
        lambda a, r: {"subsets": r.subsets_checked},
    ),
] + [
    ("cli", f"cmd_{sub.replace('-', '_')}", f"cli.{sub}", None)
    for sub in ("gen", "schedule", "verify", "refine", "experiment", "oracle", "reduce-graph")
]


class Tracer:
    """Spans and counters of the traced passes, keyed by a context label."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, command id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.context = ""
        self.command_context: dict[int, str] = {}
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._restore: list[Callable[[], None]] = []

    def begin_command(self, command: int, context: str) -> None:
        self.command = command
        self.context = context
        self.command_context[command] = context

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.context][key] += amount

    def wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.command]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "HeuristicInfeasibilityError":
                    tracer.count(f"{name}.refused")
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer.count(f"{name}.calls")
            if hook is not None:
                for key, amount in hook(args, result).items():
                    tracer.count(f"{name}.{key}", amount)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever capsched bound it; ``uninstall`` undoes it."""
        modules = [m for k, m in sys.modules.items() if k == "capsched" or k.startswith("capsched.")]
        wrappers: dict[int, Callable] = {}
        for mod, attr, name, hook in TARGETS:
            fn = getattr(sys.modules[f"capsched.{mod}"], attr)
            wrappers[id(fn)] = self.wrap(name, fn, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    self._patch_defaults(value, wrappers)
                if id(value) in wrappers:
                    self._set(module, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrappers:
                            self._set_item(value, dkey, wrappers[id(dvalue)])
        instance = sys.modules["capsched.core"].Instance
        post_init = instance.__post_init__

        def counted_post_init(obj):
            self.count("core.Instance.calls")
            post_init(obj)

        instance.__post_init__ = counted_post_init
        self._restore.append(lambda: setattr(instance, "__post_init__", post_init))

    def _patch_defaults(self, fn: types.FunctionType, wrappers: dict[int, Callable]) -> None:
        old = fn.__defaults__
        new = tuple(wrappers.get(id(d), d) for d in old)
        if any(a is not b for a, b in zip(old, new)):
            fn.__defaults__ = new
            self._restore.append(lambda: setattr(fn, "__defaults__", old))

    def _set(self, module: types.ModuleType, key: str, value: Any) -> None:
        old = getattr(module, key)
        setattr(module, key, value)
        self._restore.append(lambda: setattr(module, key, old))

    def _set_item(self, mapping: dict, key: Any, value: Any) -> None:
        old = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def layer_metrics(self, context: str) -> dict[str, float]:
        """Inclusive time ``.s``, self time ``.self_s`` and counters of one context."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, command) in enumerate(self.spans):
            if self.command_context.get(command) != context:
                continue
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        out.update(self.counts[context])
        return out
