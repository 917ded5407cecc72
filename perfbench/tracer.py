"""Per-layer tracing from outside the program.

The tracer replaces braidphase's public functions (every function named in a
module's ``__all__``, plus ``cli.main``) at every binding inside
``braidphase.*``, and a few public methods on their classes.  A wrapped call
pushes a frame on a stack; when it returns, its duration minus the time of
its wrapped children is added to its bucket's self time.  Calls of ordinary
functions are kept as spans with parent ids in memory and written out at the
end.  Hot methods, and the per-letter helpers of the action, keep only
aggregated counts and self time: a span per call would cost more than the
call.

Buckets are the layers ``phase``, ``freegroup``, ``artin``, ``braid``,
``cocycle`` and ``cli``.  ``braid`` is split: ``garside_normal_form`` and
``rewrite_pure`` have buckets of their own, and the other braid functions
called inside them (``Permutation`` products, for one) count toward them.
Nothing is recorded outside :meth:`Tracer.op`, so checks and input set-up
leave the counts alone, and the counts of two runs with one seed are equal.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("phase", "freegroup", "artin", "braid", "cocycle", "cli")
BUCKETS = ("phase", "freegroup", "artin", "braid", "braid.garside", "braid.rewrite",
           "cocycle", "cli")
COUNTS = (
    "phase.angle_ops",
    "freegroup.words", "freegroup.letters",
    "artin.auto_calls", "artin.compose_calls", "artin.image_letters",
    "braid.garside.calls", "braid.garside.letters_in", "braid.garside.factors_out",
    "braid.perm_ops",
    "braid.rewrite.calls", "braid.rewrite.letters_out",
    "cocycle.extend.calls", "cocycle.extend.letters_in", "cocycle.sigma.calls",
    "cocycle.verdict.calls",
    "cli.calls",
)

# Wrapped without a span: (module, class or None, attribute).
HOT = {
    ("phase", "Angle", "__add__"), ("phase", "Angle", "__sub__"),
    ("phase", "Angle", "__neg__"), ("phase", "Angle", "scale"),
    ("phase", "Angle", "__post_init__"),
    ("freegroup", "FreeWord", "__post_init__"),
    ("braid", "Permutation", "__mul__"), ("braid", "Permutation", "inverse"),
    ("artin", "FreeAutomorphism", "__call__"),
    ("artin", None, "artin_generator"), ("artin", None, "compose"),
}
METHODS = [key for key in HOT if key[1] is not None] + [
    ("cocycle", "TwoCocycleSigmaPhi", "evaluate"),
]
ANGLE_OPS = {"Angle.__add__", "Angle.__sub__", "Angle.__neg__", "Angle.scale"}


def _word_length(letters) -> int:
    return sum(abs(e) for _, e in letters)


# Count updates, by wrapped name: f(counts, parent frame, args, result).

def _calls(key: str):
    def count(counts, parent, args, result):
        counts[key] += 1

    return count


def _angle_op(counts, parent, args, result):
    if parent[3] not in ANGLE_OPS:  # a - b calls + and negation: one operation
        counts["phase.angle_ops"] += 1


def _free_word(counts, parent, args, result):
    counts["freegroup.words"] += 1
    counts["freegroup.letters"] += _word_length(args[0].letters)


def _artin_auto(counts, parent, args, result):
    counts["artin.auto_calls"] += 1
    counts["artin.image_letters"] += sum(_word_length(w.letters) for w in result.images)


def _apply_auto(counts, parent, args, result):
    # Words the action hands back to a caller; compose's substitutions into
    # images are not among them.
    if parent[3] != "compose":
        counts["artin.acted_letters"] += _word_length(result.letters)


def _garside(counts, parent, args, result):
    counts["braid.garside.calls"] += 1
    counts["braid.garside.letters_in"] += len(args[0].letters)
    counts["braid.garside.factors_out"] += len(result.factors)


def _rewrite(counts, parent, args, result):
    counts["braid.rewrite.calls"] += 1
    counts["braid.rewrite.letters_out"] += _word_length(result.letters)


def _extend(counts, parent, args, result):
    counts["cocycle.extend.calls"] += 1
    counts["cocycle.extend.letters_in"] += len(args[1].letters)


COUNTERS = {
    **{name: _angle_op for name in ANGLE_OPS},
    "FreeWord.__post_init__": _free_word,
    "artin_auto": _artin_auto,
    "compose": _calls("artin.compose_calls"),
    "FreeAutomorphism.__call__": _apply_auto,
    "Permutation.__mul__": _calls("braid.perm_ops"),
    "Permutation.inverse": _calls("braid.perm_ops"),
    "garside_normal_form": _garside,
    "rewrite_pure": _rewrite,
    "extend": _extend,
    "TwoCocycleSigmaPhi.evaluate": _calls("cocycle.sigma.calls"),
    "evaluate_conditions": _calls("cocycle.verdict.calls"),
    "main": _calls("cli.calls"),
}


def _bucket_rule(layer: str, name: str):
    if layer != "braid":
        return lambda parent_bucket: layer
    if name == "garside_normal_form":
        return lambda parent_bucket: "braid.garside"
    if name == "rewrite_pure":
        return lambda parent_bucket: "braid.rewrite"
    return lambda parent_bucket: (
        parent_bucket if parent_bucket in ("braid.garside", "braid.rewrite") else "braid"
    )


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, op index, name, start, end)
        self.stack: list[list] = []  # frames: [bucket, child seconds, span id, name]
        self.recording = False
        self.op_index = -1
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, hot: bool):
        tracer = self
        bucket_of = _bucket_rule(layer, name)
        count = COUNTERS.get(name)
        perf = time.perf_counter
        full_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            bucket = bucket_of(parent[0])
            if hot:
                span = None
                frame = [bucket, 0.0, parent[2], name]
            else:
                span = tracer._next_span
                tracer._next_span += 1
                frame = [bucket, 0.0, span, name]
            tracer.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf()
                tracer.stack.pop()
                elapsed = end - start
                tracer.self_s[bucket] += elapsed - frame[1]
                parent[1] += elapsed
                if span is not None:
                    tracer.spans.append(
                        (span, parent[2], tracer.op_index, full_name, start, end)
                    )
            if count is not None:
                count(tracer.counts, parent, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and the named methods of braidphase."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "braidphase" or name.startswith("braidphase.")
        }
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"braidphase.{layer}"]
            names = getattr(module, "__all__", ["main"])  # cli has no __all__
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    hot = (layer, None, name) in HOT
                    wrappers[fn] = self._wrap(fn, layer, name, hot)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[f"braidphase.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            hot = (layer, cls_name, attr) in HOT
            self._patch(cls, attr, self._wrap(fn, layer, f"{cls_name}.{attr}", hot))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self, index: int, kind: str):
        """Record the wrapped calls one benchmark operation makes."""
        self.op_index = index
        root_span = self._next_span
        self._next_span += 1
        root = ["bench", 0.0, root_span, kind]
        self.stack = [root]
        start = time.perf_counter()
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            end = time.perf_counter()
            self.spans.append((root_span, None, index, f"op.{kind}", start, end))
            self.stack = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        images = self.counts["artin.image_letters"]
        acted = self.counts["artin.acted_letters"]
        out["artin.useful_ratio"] = (acted / images if images else 0.0, "ratio")
        for bucket in BUCKETS:
            out[f"{bucket}.self_s"] = (self.self_s[bucket], "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["self_s"] = dict(sorted(self.self_s.items()))
        doc["errors"] = dict(sorted(self.errors.items()))
        doc["span_fields"] = ["id", "parent", "op", "name", "start_s", "end_s"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
