"""Span tracer for the sephom modules, installed from outside the package.

The modules import names from each other directly (``cli.classify``,
``solver.verify_min_ordering``, ``hardness.gf2_solve`` ...), so every
module global that binds a public sephom function is replaced by one shared
wrapper. Each call records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple


PACKAGE = "sephom"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.op = -1
        self._stack: List[int] = []
        self._wrappers: Dict[object, object] = {}
        self._patched: List[Tuple[object, str, object]] = []

    def _modules(self):
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE) or obj.__name__.startswith("_"):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj)
                setattr(mod, attr, self._wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def _wrap(self, fn):
        label = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        clock = time.perf_counter
        stack = self._stack

        def open_span() -> int:
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            return i

        def close_span(i: int) -> None:
            self.end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens at each resume, so each resume is a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return wrapper

    def totals(self, ops: range):
        """Per span name, over spans of ops in ``ops``: (calls, inclusive
        seconds, self seconds). Self time is the span's duration minus that
        of its direct children; recursive calls count once, at the outermost
        span, in inclusive time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Dict[str, int] = defaultdict(int)
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for i in range(n):
            if self.op_of[i] not in ops:
                continue
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            if not self._has_ancestor(p, self.name[i]):
                incl[name] += dur[i]
        return calls, incl, self_s

    def _has_ancestor(self, p: int, nid: int) -> bool:
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    i, self.op_of[i], self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]))
        return len(self.start)
