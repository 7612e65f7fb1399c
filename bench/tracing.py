"""Per-layer spans, recorded from outside the library.

The tracer wraps each public function of the layer modules and rebinds the
wrapper under every name that refers to the original: the module's own
global (so calls inside the module are seen), the copies that
``from .x import y`` made in the other modules and in the package, and the
values of module-level dispatch tables. Nothing under src/ changes, and
``uninstall`` puts every original back.

Per-ballot functions (ballot_score, eval_weight) stay unwrapped: they run
n times per committee scored, so wrapping them would swamp the run. Their
time lands in the self time of whichever wrapped function called them;
committees scored are counted at profile_score instead.

Every call adds to per-function aggregates: calls, inclusive time (outer
calls only, so recursion is not counted twice), self time (inclusive time
minus the time of wrapped callees) and, for generators, items yielded. A
generator's time is the time spent inside its next() calls, not the time
its consumer spends between them.

Span records (id, parent id, query, name, start, end) are kept in memory
for calls that cross from one layer into another, the layer boundaries,
and for the root run_cli call of each query; calls within a layer only
feed the aggregates, which keeps the record small. Generators get no span
records, since a span per yielded item would swamp the run.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "cli", "io", "model", "rules", "possible", "necessary", "representation",
    "reductions",
)
UNWRAPPED = frozenset({"rules.ballot_score", "rules.eval_weight"})

# Frame fields: name, layer, time spent in wrapped callees, span id.
_NAME, _LAYER, _CHILD, _SPAN = 0, 1, 2, 3

_ENUMERATE = "model.enumerate_completions"
_COUNT = "model.count_completions"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.items: Counter = Counter()
        self.active: Counter = Counter()
        # Completions counted by the cap check inside enumerate_completions:
        # the size of every completion space that was opened for streaming.
        self.space = 0
        self.spans: list[tuple] = []
        self.record = True
        self.query = -1
        self._next_id = 0
        self._restore: list[tuple] = []

    # Wrappers ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> tuple[list, list | None]:
        stack = self.stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [name, layer, 0, self._next_id]
        stack.append(frame)
        self.active[name] += 1
        return frame, parent

    def _leave(self, frame: list, parent, start: int, end: int, span: bool) -> None:
        self.stack.pop()
        name = frame[_NAME]
        duration = end - start
        self.self_ns[name] += duration - frame[_CHILD]
        self.active[name] -= 1
        if not self.active[name]:
            self.incl_ns[name] += duration
        if parent is not None:
            parent[_CHILD] += duration
        if span and self.record and (parent is None or parent[_LAYER] != frame[_LAYER]):
            self.spans.append((
                frame[_SPAN], parent[_SPAN] if parent is not None else 0,
                self.query, name, start, end,
            ))

    def _wrap_function(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            frame, parent = tracer._enter(name, layer)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(frame, parent, start, perf_counter_ns(), True)
                raise
            tracer._leave(frame, parent, start, perf_counter_ns(), True)
            if name == _COUNT and parent is not None and parent[_NAME] == _ENUMERATE:
                tracer.space += result
            return result

        return wrapper

    def _wrap_generator(self, name: str, layer: str, fn):
        tracer = self

        def stream(gen):
            try:
                while True:
                    frame, parent = tracer._enter(name, layer)
                    start = perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._leave(frame, parent, start, perf_counter_ns(), False)
                        return
                    except BaseException:
                        tracer._leave(frame, parent, start, perf_counter_ns(), False)
                        raise
                    tracer._leave(frame, parent, start, perf_counter_ns(), False)
                    tracer.items[name] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return stream(fn(*args, **kwargs))

        return wrapper

    # Installation -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every public layer function under every name bound to it.

        ``modules`` maps module names ("abcu", "abcu.rules", ...) to the
        imported modules.
        """
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"abcu.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(value)
                        else self._wrap_function)
                wrappers[value] = wrap(name, layer, value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, inner in list(value.items()):
                        if inspect.isfunction(inner) and inner in wrappers:
                            self._restore.append((value, key, inner))
                            value[key] = wrappers[inner]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # Results ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e9

    def incl_s(self, *names: str) -> float:
        return sum(self.incl_ns[name] for name in names) / 1e9

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tquery\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(str(field) for field in span) + "\n")
