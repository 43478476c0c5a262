"""Spans around the public functions of the wedgespec modules, recorded
from outside the package.

``Tracer.install`` wraps every public function defined in the six layer
modules and rebinds the wrapper at every name through which the package
looks the function up (``gk.eigenpairs`` and ``spectra.eigenpairs`` are two
bindings of one function, ``wedgespec.analyze`` and ``gk.analyze`` too), so
calls between modules are seen as well as calls from the benchmark. Spans
stay in memory until the run ends.
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("spectra", "compound", "positivity", "kernel", "gk", "cli")

# Functions whose result is a built square; its entry count is recorded.
SQUARES = frozenset(("compound.exterior_square", "compound.tensor_square",
                     "compound.compound_matrix"))

LABEL, START, END, PARENT, OP, ENTRIES, MINORS, SAMPLED = range(8)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[label, start, end, parent, op, entries, minors, sampled]``:
    ``parent`` is the index of the enclosing span (None at top level),
    ``op`` names the benchmark operation that caused it, and the last three
    are the counts taken from the returned value.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self.startups = []
        self._stack = []
        self._patches = []

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module("wedgespec." + short)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{short}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "wedgespec" and not modname.startswith("wedgespec."):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((ns, attr, value))
                    ns[attr] = wrappers[value]

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            ns[attr] = value
        self._patches.clear()

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, time.perf_counter(), None, stack[-1] if stack else None,
                    self.op, 0, 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            _count(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def absorb(self, path, spawned):
        """Add the spans a traced child process wrote to ``path``.

        ``spawned`` is the parent's clock reading just before the child was
        started; the start of the child's ``cli.main`` span minus it is the
        child's start-up time (CLOCK_MONOTONIC is shared between processes).
        """
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        base = len(self.spans)
        for span in child:
            if span[PARENT] is not None:
                span[PARENT] += base
            span[OP] = self.op
            self.spans.append(span)
            if span[LABEL] == "cli.main":
                self.startups.append(span[START] - spawned)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _count(span, result):
    label = span[LABEL]
    if label in SQUARES:
        span[ENTRIES] = int(result.size)
    elif label.startswith("positivity."):
        certs = result if isinstance(result, tuple) else (result,)
        for cert in certs:
            if hasattr(cert, "minors_evaluated"):
                span[MINORS] += int(cert.minors_evaluated)
                span[SAMPLED] += int(cert.mode == "sampled")


def phase_metrics(spans, lo, hi):
    """Per-layer figures of the spans ``lo:hi``, one set-up or one pass.

    ``<module>.<function>.s`` is busy time and ``.calls`` the call count,
    ``<module>.self_s`` is span time minus the time covered by child spans.
    ``positivity.minors_evaluated`` and ``positivity.sampled_certificates``
    sum over the certificates that positivity functions return to callers
    outside the module, so a certificate passed up from an inner positivity
    call is not counted twice.
    """
    out = defaultdict(float)
    covered = defaultdict(float)
    for span in spans[lo:hi]:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    for index in range(lo, hi):
        span = spans[index]
        label = span[LABEL]
        module = label.split(".", 1)[0]
        duration = span[END] - span[START]
        out[label + ".s"] += duration
        out[label + ".calls"] += 1
        out[module + ".self_s"] += duration - covered[index]
        out["compound.square_entries"] += span[ENTRIES]
        parent = span[PARENT]
        if module == "positivity" and (
                parent is None or not spans[parent][LABEL].startswith("positivity.")):
            out["positivity.minors_evaluated"] += span[MINORS]
            out["positivity.sampled_certificates"] += span[SAMPLED]
    out["gk.verify.s"] = out["gk.verify_theorem1.s"] + out["gk.verify_theorem2.s"]
    return out
