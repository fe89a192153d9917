"""Span tracer that wraps walkmeta's public functions from outside the package.

Each wrapped function gets a span per call. A span stack gives self time:
a span's duration minus the time its child spans cover. Nothing inside
`src/` is changed; the wrappers replace every binding of a function object
in the loaded `walkmeta` modules and are removed again afterwards.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) pairs; "RunRecord.to_csv" names a method.
TARGETS = [
    ("model", "grad"), ("model", "hvp"), ("model", "loss"), ("model", "predict"),
    ("metalearn", "inner_loop"), ("metalearn", "meta_gradient_exact"),
    ("metalearn", "adapt_unseen"),
    ("optimizer", "adam_step"), ("optimizer", "sgd_step"), ("optimizer", "clip"),
    ("privacy", "sample_perturbation"),
    ("topology", "sample_next"), ("topology", "build_transition_matrix"),
    ("topology", "sigma2"), ("topology", "stationary_distribution"),
    ("topology", "gen_ring"), ("topology", "gen_star"),
    ("topology", "gen_complete"), ("topology", "gen_small_world"),
    ("topology", "gen_regular_expander"),
    ("tasks", "assign_clients"),
    ("simulator", "evaluate"), ("simulator", "run"),
    ("simulator", "RunRecord.to_csv"),
    ("config", "parse_config"),
    ("cli", "main"),
]

# Child calls counted per parent span, for the analytic cross-checks.
WATCH = {
    "metalearn.meta_gradient_exact": ("model.grad", "model.hvp"),
    "simulator.evaluate": ("metalearn.inner_loop",),
}

_EVALUATE = "simulator.evaluate"
_INNER_LOOP = "metalearn.inner_loop"


def _resolve(module: str, attr: str):
    owner = sys.modules[f"walkmeta.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Per-function call counts, inclusive and self time, per-span child
    counts, and the distinct (parameters, support set) keys of the inner
    loops run inside each `evaluate` span."""

    def __init__(self):
        self.calls = {f"{m}.{a}": 0 for m, a in TARGETS}
        self.total_s = dict.fromkeys(self.calls, 0.0)
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.child_counts = {(p, c): [] for p, cs in WATCH.items() for c in cs}
        self.eval_inner_loops = 0
        self.eval_unique_inner_loops = 0
        self._stack: list[float] = []   # child time accumulated per open span
        self._eval_keys: set | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        import walkmeta.cli  # noqa: F401  (loads every traced module)
        mods = [m for name, m in sys.modules.items()
                if name == "walkmeta" or name.startswith("walkmeta.")]
        for module, attr in TARGETS:
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name)
            wrapped = self._wrap(f"{module}.{attr}", fn)
            bindings = [(owner, name)]
            if owner in mods:
                bindings = [(m, k) for m in mods for k, v in vars(m).items()
                            if v is fn]
            for obj, key in bindings:
                self._saved.append((obj, key, fn))
                setattr(obj, key, wrapped)

    def remove(self):
        for obj, key, fn in reversed(self._saved):
            setattr(obj, key, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        stack = self._stack
        watched = WATCH.get(name, ())
        is_eval = name == _EVALUATE
        is_inner = name == _INNER_LOOP

        def wrapper(*args, **kwargs):
            if is_inner and self._eval_keys is not None:
                w, support = args[0], args[1]
                self._eval_keys.add((w.values.tobytes(), support[0].tobytes(),
                                     support[1].tobytes()))
                self.eval_inner_loops += 1
            if is_eval:
                outer_keys, self._eval_keys = self._eval_keys, set()
            before = [self.calls[c] for c in watched]
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                for c, b in zip(watched, before):
                    self.child_counts[(name, c)].append(self.calls[c] - b)
                if is_eval:
                    self.eval_unique_inner_loops += len(self._eval_keys)
                    self._eval_keys = outer_keys

        wrapper.__wrapped__ = fn
        return wrapper
