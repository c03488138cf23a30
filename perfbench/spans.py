"""Outside-in spans around the library's public layer functions.

``Tracer.installed()`` rebinds every module-level name that refers to a
listed function, in every loaded ``freecurve`` module (``report`` and
``arrangement`` import ``exponent_profile`` and ``tjurina_total`` by name),
to a wrapper that records a span: name, start, end and parent.  Spans are
recorded only inside an item and kept in memory; ``layer_metrics`` turns
them into calls, self time (duration minus the time its child spans cover)
and the counts below.  A listed function that the library no longer has is
reported as absent.  ``ring`` and ``cyclotomic`` are not wrapped: their
calls are too many and too small for an outside wrapper, and their cost
shows in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LIBRARY = "freecurve"

# layer -> the measures reported for it
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg.rank": ("calls", "self_s", "cells", "max_bits"),
    "linalg.kernel_basis": ("calls", "self_s", "cells"),
    "linalg.subspace_from_vectors": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s"),
    "syzygy.exponent_profile": ("calls", "self_s", "distinct_inputs"),
    "invariants.tjurina_total": ("calls", "self_s"),
    "invariants.mu_total": ("calls", "self_s"),
    "bourbaki.thm1_check": ("calls", "self_s"),
    "bourbaki.base_locus_dimension": ("calls", "total_s"),
    "arrangement.intersection_lattice": ("calls", "self_s"),
    "arrangement.deletion_classify": ("self_s",),
    "arrangement.addition_classify": ("self_s",),
    "parsing.parse_curve": ("calls", "self_s"),
    "report.report_to_dict": ("self_s",),
    "report.dumps_canonical": ("self_s",),
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "cells": "count",
         "max_bits": "bits", "distinct_inputs": "count"}
# counts taken from a call's arguments, and all counts (they repeat exactly)
ARG_COUNTS = ("cells", "max_bits", "distinct_inputs")
COUNTS = ("calls",) + ARG_COUNTS

ITEM = "item"
ACCOUNTING = "trace.accounting"


def _max_bits(M) -> int:
    return max((max(e.numerator.bit_length(), e.denominator.bit_length())
                for e in M._dm.to_dok().values()), default=0)


def _profile_key(args, kwargs, signature) -> tuple:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    f = a["f"]
    return (f.degree, tuple(sorted(f.terms.items())), a["kmax"], a["arrangement"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.cells: dict[str, int] = defaultdict(int)
        self.max_bits: dict[str, int] = defaultdict(int)
        self.inputs: dict[str, set] = defaultdict(set)
        self.absent: set[str] = set()        # layer or "layer.measure"
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self):
        """The root span of one item; layer calls outside it are not recorded."""
        sid = self._open(ITEM)
        try:
            yield
        finally:
            self._close(sid)

    def _account(self, name: str, args, kwargs, signature) -> None:
        measures = LAYERS[name]
        try:
            if "cells" in measures:
                self.cells[name] += args[0].rows * args[0].cols
            if "max_bits" in measures:
                self.max_bits[name] = max(self.max_bits[name], _max_bits(args[0]))
            if "distinct_inputs" in measures:
                self.inputs[name].add(_profile_key(args, kwargs, signature))
        except (AttributeError, KeyError, TypeError):
            # the library changed the argument's shape; its counts are gone
            self.absent.update(f"{name}.{m}" for m in measures if m in ARG_COUNTS)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        needs_account = any(m in ARG_COUNTS for m in LAYERS[name])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if needs_account:
                # a span of its own, so its time is no layer's self time
                acc = self._open(ACCOUNTING)
                self._account(name, args, kwargs, signature)
                self._close(acc)
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    # -- installing ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind the listed functions to span-recording wrappers, and restore
        every binding on exit."""
        saved = []
        try:
            for name in LAYERS:
                module_name, func_name = name.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"{LIBRARY}.{module_name}")
                except ImportError:
                    self.absent.add(name)
                    continue
                original = getattr(module, func_name, None)
                if original is None:
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != LIBRARY and not mod_name.startswith(LIBRARY + "."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    # -- deriving ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; absent ones read 0 and are listed in ``absent``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[sid]
        values = {"calls": calls, "self_s": own, "total_s": total,
                  "cells": self.cells, "max_bits": self.max_bits,
                  "distinct_inputs": {k: len(v) for k, v in self.inputs.items()}}
        out = {}
        for name, measures in LAYERS.items():
            for m in measures:
                out[f"{name}.{m}"] = values[m].get(name, 0)
        return out
