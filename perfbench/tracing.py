"""Per-layer tracing of ``nqh`` from outside the program.

A :class:`Tracer` wraps the public functions of each ``nqh`` module and
records one span per call (name, start, end, parent span, workload item)
plus work counts: calls and sizes per function, errors per module.  Spans
stay in memory until the run ends.  ``from .algebra import verify_algebra``
binds the name at import time, so each function is patched in every ``nqh``
module that holds it, not only where it is defined.

``Scalar`` operations run millions of times per pass, so they are counted in
a separate counting-only pass (:class:`ScalarCounter`) whose wrappers would
otherwise inflate the span self times.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# The layers are the modules of nqh; the functions are the public entry
# points of each layer that the workloads reach.  "Class.method" entries are
# patched on the class.
TRACED = {
    "exactlin": ("rref_rows", "nullspace"),
    "quadratic": ("QuadraticPresentation.component_dim", "check_central",
                  "koszul_dual", "hilbert_profile"),
    "rewrite": ("orient", "complete", "extract_algebra"),
    "algebra": ("verify_algebra", "verify_iso", "extend_on_generators", "radical",
                "corner_embedding", "full_idempotent_check", "verify_decomposition",
                "strongly_graded_check"),
    "deform": ("build_clifford", "build_Bshriek_clifford", "validate_double_ore",
               "dualize_hom", "centrality_check_plus", "centrality_check_minus",
               "normalize_p11"),
    "twist": ("verify_twisting_M2", "verify_twisting_suite", "build_twisted_M2",
              "verify_twisting_prod", "build_twisted_prod", "build_semitrivial",
              "semitrivial_mu", "zhang_twist"),
    "knorrer": ("run_plus_case", "run_minus_case", "singularity_report",
                "prop51_scenario"),
    "formats": ("parse_double_ore", "parse_presentation"),
    "scenarios": ("run_scenario",),
    "cli": ("main",),
}


def span_names():
    """Span names, "<module>.<function>", in layer order."""
    return [f"{layer}.{qualname.rpartition('.')[2]}"
            for layer, functions in TRACED.items() for qualname in functions]


# Work sizes recorded next to the call counts: the size names, and how to
# read them from the call's arguments and result.  All nqh calls to these
# functions pass their arguments by position.
SIZES = {
    "quadratic.component_dim": (("ambient",), lambda args, result: (
        args[0].ngens ** args[1],)),
    "rewrite.complete": (("rules",), lambda args, result: (len(result.rules),)),
    "rewrite.extract_algebra": (("dim", "nf_words"), lambda args, result: (
        result.dim, len(getattr(args[0], "_nf_cache", ())))),
    "algebra.verify_algebra": (("triples",), lambda args, result: (
        args[0].dim ** 3,)),
    "algebra.verify_iso": (("pairs",), lambda args, result: (
        args[0].source.dim ** 2,)),
}
SCALAR_COUNTS = ("exactlin.Scalar.mul.calls", "exactlin.Scalar.inverse.calls")
RATIONAL_RATIO = "exactlin.Scalar.inverse.rational_ratio"
OVERHEAD = "trace.overhead_s"


def per_layer_metrics():
    """(name, unit, better) of every metric of the traced run."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        keys = SIZES[name][0] if name in SIZES else ()
        out.extend((f"{name}.{key}", "count", "lower") for key in keys)
    out.extend((f"{layer}.errors", "count", "lower") for layer in TRACED)
    out.extend((name, "count", "lower") for name in SCALAR_COUNTS)
    out.append((RATIONAL_RATIO, "1", "higher"))
    out.append((OVERHEAD, "s", "lower"))
    return out


def nqh_modules():
    return {name: module for name, module in list(sys.modules.items())
            if name == "nqh" or name.startswith("nqh.")}


class Tracer:
    """Spans and counts of the traced functions, one record per pass."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, item)
        self.counts = Counter()
        self.item = ""
        self.passes = []  # (spans, counts) of each finished pass
        self._stack = []
        self._patches = []

    def begin_pass(self):
        self.spans, self.counts = [], Counter()

    def end_pass(self):
        self.passes.append((self.spans, self.counts))
        return self.spans, self.counts

    def _wrap(self, name, fn):
        layer = name.partition(".")[0]
        keys, sizer = SIZES.get(name, ((), None))
        stack = self._stack
        perf = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[layer + ".errors"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
                self.counts[name + ".calls"] += 1
            if sizer is not None:
                for key, value in zip(keys, sizer(args, result)):
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function in every ``nqh`` module binding it."""
        modules = nqh_modules()
        for layer, functions in TRACED.items():
            home = modules[f"nqh.{layer}"]
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                name = f"{layer}.{attr}"
                if owner_name:
                    owner = getattr(home, owner_name)
                    self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for index, (name, start, end, _parent, _item) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


class ScalarCounter:
    """Counts ``Scalar`` multiplications and inverses while entered."""

    def __init__(self):
        self.mul = 0
        self.inverse = 0
        self.rational_inverse = 0
        self._saved = None

    def __enter__(self):
        scalar = sys.modules["nqh.exactlin"].Scalar
        mul, rmul, inverse = scalar.__mul__, scalar.__rmul__, scalar.inverse

        def counted_mul(a, b):
            self.mul += 1
            return mul(a, b)

        def counted_rmul(a, b):
            self.mul += 1
            return rmul(a, b)

        def counted_inverse(a):
            self.inverse += 1
            if a.is_rational():
                self.rational_inverse += 1
            return inverse(a)

        self._saved = (scalar, mul, rmul, inverse)
        scalar.__mul__, scalar.__rmul__, scalar.inverse = (
            counted_mul, counted_rmul, counted_inverse)
        return self

    def __exit__(self, *exc):
        scalar, mul, rmul, inverse = self._saved
        scalar.__mul__, scalar.__rmul__, scalar.inverse = mul, rmul, inverse

    def counts(self):
        return dict(zip(SCALAR_COUNTS, (self.mul, self.inverse)))
