"""Outside-in tracer: spans around the public names of each crosslimit module.

`Tracer.install` replaces every public function and public method of the
package modules with a wrapper that records a span (name, start, end, parent
span, operation id).  A function re-imported into another module's namespace
(`learners.contrastive_closure`, `harness.closure_dimension`, ...) gets the
same wrapper there, so a call is recorded once whichever name it went
through.  The program itself is not changed: `uninstall` puts every original
back.

A span's self time is its duration minus the time its direct child spans
cover; a layer is the module that defines the wrapped name.  Per-element
predicates (`SKIP`) stay unwrapped because they run millions of times per
operation: their cost is charged to the caller's self time.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter, defaultdict
from math import lcm
from time import perf_counter

LAYERS = ("space", "classes", "streams", "crossing", "closure",
          "learners", "robust", "harness", "cli")

# Leaf predicates and value accessors, evaluated per element or per edge.
SKIP = {
    "SymbolicSet.contains", "SymbolicSet.cardinality", "SymbolicSet.is_empty",
    "SymbolicSet.is_finite", "SymbolicSet.literal", "Cardinality.finite",
    "Cardinality.infinite", "Hypothesis.contains", "streams.crosses",
    "Pair.of", "Pair.elements", "Pair.other", "Prefix.seen", "Prefix.extended",
    "HypothesisClass.ids", "HypothesisClass.by_id", "HypothesisClass.index_of",
    "TellTaleFamily.of", "ClosureResult.bottom", "EdgeSet.of",
    "SymbolicSet.members",  # the enumerator behind nth_member, one step per element
}

SPAN_CAP = 300_000  # spans kept for the written trace; metrics use all of them


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = "setup"
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.index_max = 0
        self.closure_values: set = set()
        self.run_role = None
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self.closure_values = set()

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.index_max = 0

    def _enter(self, name: str) -> list:
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else -1, self.op))
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        if hook is None and name.startswith("learners.") and name.endswith(".read"):
            hook = _read
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    if hook:
                        hook(tracer, args, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if name == "learners.run":
                    tracer.run_role = args[0].role
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if hook:
                    hook(tracer, args, result)
                return result
        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package, *modules.values()]
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        wrappers[id(value)] = (value, self._wrap(value, name))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_methods(layer, value)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None:
                    setattr(namespace, attr, entry[1])
                    self._restore.append((namespace, attr, value))

    def _install_methods(self, layer: str, cls) -> None:
        for attr in dir(cls):
            if attr.startswith("_") or f"{cls.__name__}.{attr}" in SKIP:
                continue
            raw = inspect.getattr_static(cls, attr)
            kind = type(raw)
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or not fn.__module__.startswith("crosslimit"):
                continue
            wrapped = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}")
            if kind in (staticmethod, classmethod):
                wrapped = kind(wrapped)
            self._restore.append((cls, attr, cls.__dict__.get(attr, _INHERITED)))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _sum(self, table, layer: str, names) -> float:
        return sum(
            value for key, value in table.items()
            if key.startswith(layer + ".") and key.rsplit(".", 1)[-1] in names
        )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since `reset`."""
        c, s, n = self.calls, self.self_s, self.counts
        setops = ("union", "intersect", "difference", "complement")
        steps = n["learners.steps"]
        closures = c["closure.contrastive_closure"]
        return {
            "space.setop_calls": self._sum(c, "space", setops),
            "space.setop_self_s": self._sum(s, "space", setops),
            "space.lcm_width_sum": n["space.lcm_width"],
            "space.build_calls": self._sum(c, "space", ("build",)),
            "space.build_self_s": self._sum(s, "space", ("build",)),
            "space.min_element_calls": self._sum(c, "space", ("min_element",)),
            "space.min_element_self_s": self._sum(s, "space", ("min_element",)),
            "space.nth_member_calls": self._sum(c, "space", ("nth_member",)),
            "space.nth_member_self_s": self._sum(s, "space", ("nth_member",)),
            "space.nth_member_index_max": self.index_max,
            "space.parse_calls": c["space.parse_set_literal"],
            "space.parse_self_s": s["space.parse_set_literal"],
            "classes.load_calls": c["classes.load_class"],
            "classes.load_self_s": s["classes.load_class"],
            "streams.items_drawn": n["streams.items"],
            "streams.item_self_s": self._sum(s, "streams", ("item", "items", "prefix")),
            "crossing.eliminable_calls": c["crossing.eliminable"],
            "crossing.eliminable_self_s": s["crossing.eliminable"],
            "crossing.pattern_cells_calls": c["crossing.pattern_cells"],
            "crossing.pattern_cells_self_s": s["crossing.pattern_cells"],
            "crossing.shared_calls": self._sum(
                c, "crossing", ("shared_presentation_pair", "shared_presentation_family")),
            "crossing.shared_self_s": self._sum(
                s, "crossing", ("shared_presentation_pair", "shared_presentation_family")),
            "closure.closure_calls": closures,
            "closure.closure_self_s": s["closure.contrastive_closure"],
            "closure.bottom_ratio": n["closure.bottom"] / closures if closures else 0.0,
            "closure.result_repeat_share": n["closure.repeat"] / closures if closures else 0.0,
            "closure.hollow_calls": c["closure.is_hollow"],
            "closure.hollow_self_s": s["closure.is_hollow"],
            "closure.dimension_calls": c["closure.closure_dimension"],
            "closure.dimension_self_s": s["closure.closure_dimension"],
            "learners.steps": steps,
            "learners.advance_self_s": self._sum(s, "learners", ("advance",)),
            "learners.read_self_s": self._sum(s, "learners", ("read",)),
            "learners.reads_per_step": (
                n["learners.generator_reads"] / n["learners.generator_steps"]
                if n["learners.generator_steps"] else 0.0),
            "learners.run_self_s": s["learners.run"],
            "robust.defect_calls": c["robust.defect"],
            "robust.defect_self_s": s["robust.defect"],
            "robust.verify_self_s": s["robust.verify_forced_violations"],
            "harness.classify_calls": c["harness.classify"],
            "harness.classify_self_s": s["harness.classify"],
            "harness.emit_self_s": s["harness.emit_report"],
            "cli.main_calls": c["cli.main"],
            "cli.main_self_s": sum(v for k, v in s.items() if k.startswith("cli.")),
        }

    def write_spans(self, path: str) -> None:
        """Write the kept spans as CSV: id, name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("id,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{op}\n")


_INHERITED = object()


# ----------------------------------------------------------------------
# counters taken where the work happens: hook(tracer, args, result)
# ----------------------------------------------------------------------

def _lcm_width(tracer, args, result):
    tracer.counts["space.lcm_width"] += lcm(args[0].modulus, args[1].modulus)


def _nth_member(tracer, args, result):
    tracer.index_max = max(tracer.index_max, args[1])


def _top_level_draw(tracer) -> bool:
    # a corrupted or scripted stream draws from its inner stream: count once
    parent = tracer.parent_name() or ""
    return not parent.startswith("streams.Stream.")


def _item_drawn(tracer, args, result):
    if _top_level_draw(tracer):
        tracer.counts["streams.items"] += 1


def _prefix(tracer, args, result):
    if _top_level_draw(tracer):
        tracer.counts["streams.items"] += len(result)


def _closure(tracer, args, result):
    if result.is_bottom:
        tracer.counts["closure.bottom"] += 1
    if result in tracer.closure_values:
        tracer.counts["closure.repeat"] += 1
    else:
        tracer.closure_values.add(result)


def _run(tracer, args, result):
    tracer.counts["learners.steps"] += result.steps
    if args[0].role == "generator":
        tracer.counts["learners.generator_steps"] += result.steps


def _read(tracer, args, result):
    # reads issued by run() itself or by an advance step, not nested reads
    parent = tracer.parent_name() or ""
    if tracer.run_role == "generator" and (
        parent == "learners.run" or parent.endswith(".advance")
    ):
        tracer.counts["learners.generator_reads"] += 1


HOOKS = {
    "space.SymbolicSet.union": _lcm_width,
    "space.SymbolicSet.intersect": _lcm_width,
    "space.SymbolicSet.difference": _lcm_width,
    "space.SymbolicSet.nth_member": _nth_member,
    "streams.Stream.items": _item_drawn,
    "streams.Stream.item": _item_drawn,
    "streams.Stream.prefix": _prefix,
    "closure.contrastive_closure": _closure,
    "learners.run": _run,
}
