"""Span tracing of the qevt package from outside it.

While a ``Tracer`` is installed, every public function of the traced
modules is replaced by a timing wrapper in every ``qevt`` namespace that
binds it (so internal calls such as ``evt.transform -> assemble_circuit``
are timed too), and ``__post_init__`` of the validated dataclasses is
wrapped the same way. Each call records one span: name, start, end,
parent span, operation id and whether it raised. A function that is
already on the span stack (a recursive call such as ``cli.emit_json``)
records no further span. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("linalg", "encoding", "regularize", "gqsp", "evt", "analytic", "cli")
VALIDATED_CLASSES = (
    ("encoding", "BlockEncoding"),
    ("regularize", "RegularizedEncoding"),
    ("gqsp", "GqspSequence"),
)


def _calls_itself(fn) -> bool:
    """True if the function's code (or a comprehension inside it) names the function."""
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        if fn.__name__ in code.co_names:
            return True
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return False


class Tracer:
    def __init__(self, qevt_pkg):
        self.pkg = qevt_pkg
        self.spans: list[tuple] = []  # (name, start, end, parent, op_id, failed)
        self.op_id = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.installed = False

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent, self.op_id, False))
        self._stack.append(index)
        self._open.add(name)
        return index

    def _end(self, index: int, failed: bool) -> None:
        end = time.perf_counter()
        name, start, _, parent, op_id, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, op_id, failed)
        self._stack.pop()
        self._open.discard(name)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own work."""
        index = self._begin(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._end(index, failed)

    def _wrap(self, name: str, fn, bindings=()):
        """Timing wrapper; ``bindings`` lists the (namespace, attribute) pairs
        that a recursive function calls itself through."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            index = tracer._begin(name)
            # inner recursive calls go straight to the original, untimed
            for ns, attr in bindings:
                setattr(ns, attr, fn)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                for ns, attr in bindings:
                    setattr(ns, attr, wrapper)
                tracer._end(index, failed)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        # sys.modules, not package attributes: qevt.regularize is the function
        modules = {short: sys.modules[f"{self.pkg.__name__}.{short}"] for short in TRACED_MODULES}
        public = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    public[id(obj)] = (f"{short}.{attr}", obj)
        bound = defaultdict(list)  # id(function) -> every (namespace, attribute) binding it
        for ns in (self.pkg, *modules.values()):
            for attr, obj in vars(ns).items():
                if id(obj) in public:
                    bound[id(obj)].append((ns, attr))
        for key, bindings in bound.items():
            name, fn = public[key]
            recursive = [(ns, attr) for ns, attr in bindings if ns is sys.modules[fn.__module__]]
            wrapper = self._wrap(name, fn, recursive if _calls_itself(fn) else ())
            for ns, attr in bindings:
                self._restore.append((ns, attr, fn))
                setattr(ns, attr, wrapper)
        for short, cls_name in VALIDATED_CLASSES:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{short}.{cls_name}", original)
        self.installed = True

    def uninstall(self) -> None:
        self.installed = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, failures."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fail": 0}
        )
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["fail"] += int(failed)
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, failed in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "failed": failed,
                        }
                    )
                    + "\n"
                )
