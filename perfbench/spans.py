"""Spans around the package's public functions, installed from outside.

`install` wraps every public function of the layer modules and rebinds
the wrapper at every module attribute that held the original, so calls
between modules and calls inside a module (which resolve names through
module globals) are both seen.  Spans stay in memory as
(name index, start, end, parent index, outcome) and are summarised and
written out after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("search", "arith", "constructions", "abcver", "pell", "cli")

OK, RAISED, BUDGET = 0, 1, 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.slowest_factorize = (0.0, None)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        budget_exc = importlib.import_module(f"{package.__name__}.errors").BudgetExceeded
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, budget_exc)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)

    def _wrap(self, name: str, fn, budget_exc):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = {
            "search.find_kaps": self._counter("search.find_kaps.hits"),
            "search.enumerate_powerful": self._counter("search.enumerate_powerful.values"),
            "arith.factorize": self._note_factorize,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = OK
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                outcome = BUDGET if isinstance(exc, budget_exc) else RAISED
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, outcome)
                if observe is not None:
                    observe(args, result, t1 - t0)

        return wrapper

    def _counter(self, key: str):
        """Observer adding the length of each returned collection to key."""
        def observe(args, result, dt):
            if result is not None:
                self.counts[key] = self.counts.get(key, 0) + len(result)
        return observe

    def _note_factorize(self, args, result, dt):
        if dt > self.slowest_factorize[0]:
            self.slowest_factorize = (dt, args[0] if args else None)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total s (outermost spans), layer-self s,
        spans that raised BudgetExceeded.

        Layer-self time is a span's duration minus the part covered by
        nested calls into other layers; calls within the same layer stay
        in it.  Spans are stored in start order, so every child has a
        larger index than its parent and one reverse pass suffices.
        """
        spans = self.spans
        layer_of = [n.split(".", 1)[0] for n in self.names]
        n = len(spans)
        foreign = [0.0] * n
        self_s = [0.0] * n
        for i in range(n - 1, -1, -1):
            name_id, t0, t1, parent, _ = spans[i]
            dur = t1 - t0
            self_s[i] = dur - foreign[i]
            if parent >= 0:
                if layer_of[spans[parent][0]] != layer_of[name_id]:
                    foreign[parent] += dur
                else:
                    foreign[parent] += foreign[i]
        out: dict[str, dict[str, float]] = {}
        open_names: dict[int, int] = {}
        path: list[int] = []
        for i, (name_id, t0, t1, parent, outcome) in enumerate(spans):
            while path and path[-1] != parent:
                open_names[spans[path.pop()][0]] -= 1
            stats = out.setdefault(self.names[name_id], {
                "calls": 0, "s": 0.0, "self_s": 0.0, "budget_exceeded": 0})
            stats["calls"] += 1
            stats["self_s"] += self_s[i]
            if not open_names.get(name_id):
                stats["s"] += t1 - t0
            if outcome == BUDGET:
                stats["budget_exceeded"] += 1
            path.append(i)
            open_names[name_id] = open_names.get(name_id, 0) + 1
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent
        index (-1 for none) and outcome (0 returned, 1 raised, 2 raised
        BudgetExceeded); times are perf_counter seconds."""
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\toutcome\n")
            fh.writelines(
                f"{i}\t{names[name_id]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{outcome}\n"
                for i, (name_id, t0, t1, parent, outcome) in enumerate(self.spans))
