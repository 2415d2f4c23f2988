"""Spans around the program's public functions, recorded from outside.

A Tracer wraps each target function for the length of a traced pass and
puts the originals back afterwards, so untraced passes run the program's
own function objects.  Spans are kept in memory as
[name, start, end, parent index, operation id, work count] and turned
into per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# Work counts for a span, computed from the call's arguments and result.
# The rank of an elimination comes from what the public method returns.
def _elim_rank(count_rank):
    def count(args, out):
        m = args[0]
        rank = count_rank(m, out)
        return {"cells": m.rows * m.cols, "ops_est": m.rows * m.cols * rank}
    return count


def _masks(a_pos):
    # the search enumerates every nonempty subset of {0..a-1}
    def count(args, out):
        return {"masks": (1 << args[a_pos]) - 1}
    return count


def _sequences(args, out):
    params = args[0]
    return {"sequences": math.comb(params.k + params.r, params.k)}


def _rank_cached(args):
    # rank() memoizes; a repeated call does no elimination and is not a span
    return getattr(args[0], "_rank", None) is not None


ELIM = "linalg.elim"

# (module, attribute path, span name, work counter, call-through test)
TARGETS = [
    ("linalg", "FieldMatrix.rank", ELIM, _elim_rank(lambda m, out: out), _rank_cached),
    ("linalg", "FieldMatrix.kernel_basis", ELIM, _elim_rank(lambda m, out: m.cols - len(out)), None),
    ("linalg", "FieldMatrix.left_kernel_basis", ELIM, _elim_rank(lambda m, out: m.rows - len(out)), None),
    ("linalg", "FieldMatrix.row_space_basis", ELIM, _elim_rank(lambda m, out: out.rows), None),
    ("linalg", "RandomSource.integers", "linalg.rng", None, None),
    ("linalg", "RandomSource.below", "linalg.rng", None, None),
    ("series", "multiplication_matrix", "series.mulmat", None, None),
    ("series", "verify_lemma_ba2", "series.sumset", _masks(0), None),
    ("series", "min_filling_monomial", "series.sumset", _masks(1), None),
    ("series", "random_series", "series.random", None, None),
    ("steiner", "matrix_iso_test", "steiner.iso", None, None),
    ("steiner", "pullback_splitting", "steiner.splitting", None, None),
    ("steiner", "interpolation_test_cokernel", "steiner.coker", None, None),
    ("steiner", "interpolation_test_kernel", "steiner.kernel", None, None),
    ("hilbert", "cone_report", "hilbert.cone", None, None),
    ("hilbert", "gaeta_shape", "hilbert.gaeta", None, None),
    # the resolution shape and its Euler identity, one span per twist
    ("hilbert", "GaetaShape.euler_defect", "hilbert.gaeta", None, None),
    ("secant", "secant_class", "secant.class", _sequences, None),
    ("slopes", "is_semistable_slope", "slopes.member", None, None),
    ("slopes", "is_balanced_ratio", "slopes.member", None, None),
    ("slopes", "is_balanced_ratio_orbit", "slopes.member", None, None),
    ("slopes", "slope_step", "slopes.step", None, None),
    ("slopes", "ratio_step", "slopes.step", None, None),
]

SMALL_CELLS = 4096


PACKAGE = "steinerlab"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, counter=None, call_through=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a span of the same name already open covers this call
            # (left_kernel_basis -> kernel_basis, is_balanced_ratio -> ...)
            if (stack and spans[stack[-1]][0] == name) or (call_through and call_through(args)):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target where it is called: the defining module, every
        module that bound it with `from .x import y`, and lists that hold it
        (acceptance.ALL_CRITERIA)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        pkg = sys.modules[PACKAGE]
        wrapped: dict[int, object] = {}
        for mod_name, path, name, counter, through in TARGETS:
            owner = getattr(pkg, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                self._set(owner, attr, self.wrap(name, owner.__dict__[attr], counter, through))
            else:
                fn = getattr(owner, attr)
                wrapped[id(fn)] = self.wrap(name, fn, counter, through)
        for crit in pkg.acceptance.ALL_CRITERIA:
            wrapped[id(crit)] = self.wrap("acceptance." + crit.__name__, crit)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._set(mod, key, wrapped[id(val)])
                elif isinstance(val, list):
                    for i, item in enumerate(val):
                        if id(item) in wrapped:
                            self._undo.append((val, i, item))
                            val[i] = wrapped[id(item)]

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, list):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def reset(self):
        self.spans.clear()
        self.stack.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and work counts per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        under = {"steiner.splitting": 0, "steiner.coker": 0, "steiner.kernel": 0}
        for i, (name, t0, t1, parent, _op, counts) in enumerate(spans):
            self_s = (t1 - t0) - child[i]
            add(name + ".calls", 1)
            add(name + ".self_s", self_s)
            if name.startswith("acceptance."):
                add(name + "_s", t1 - t0)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
            if name == ELIM:
                if counts and counts["cells"] <= SMALL_CELLS:
                    add(ELIM + ".small_calls", 1)
                    add(ELIM + ".small_self_s", self_s)
                j = parent
                while j >= 0:
                    if spans[j][0] in under:
                        under[spans[j][0]] += 1
                        break
                    j = spans[j][3]
        split_calls = out.get("steiner.splitting.calls", 0)
        interp_calls = out.get("steiner.coker.calls", 0) + out.get("steiner.kernel.calls", 0)
        out["steiner.splitting.elims_per_call"] = under["steiner.splitting"] / split_calls if split_calls else 0.0
        out["steiner.interp.elims_per_call"] = (
            (under["steiner.coker"] + under["steiner.kernel"]) / interp_calls if interp_calls else 0.0
        )
        return out

    def dump(self) -> list[list]:
        return [list(rec) for rec in self.spans]


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted(set().union(*samples)) if samples else []
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}
