"""Spans around omkit's public entry points, installed from outside.

The program is not edited: `Tracer.install` replaces each entry point
named in `FUNCTIONS` at every module attribute of the omkit package that
binds it (cli imports by name; morse and homology import inside
functions, which read the module attribute at call time), and each
method in `METHODS` on its class.  Spans are kept in memory as
[name, parent, start, end, phase] and reduced to per-layer self times
when the pass ends.  A span's self time is its duration minus the
durations of its direct children, so over one phase the self times of
all spans plus the time no span covers add up to the phase's wall time.

`omkit.signs` is not wrapped: its kernels run millions of times per job,
so a span per call would measure the wrapper, not the kernel.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count(key, size):
    def sizer(counts, result, args):
        counts[key] += size(result, args)

    return sizer


def _boundary_nnz(result, args):
    return sum(len(col) for mat in result.boundaries for col in mat.values())


def _certificate(counts, result, args):
    counts["homology.certify.pairs"] += len(result.pairs)
    counts["homology.certify.fibers"] += len(result.fibers)


def _leaf(counts, result, args):
    counts["extensions.candidates"] += 1
    counts["extensions.accepted"] += result is not None


_pairs = _count("morse.pairs", lambda r, a: len(r.pairs))

# (module, attribute, span name, sizer)
FUNCTIONS = [
    ("omkit.cli", "main", "cli.self", None),
    ("omkit.omfile", "parse_om_text", "omfile.parse", None),
    ("omkit.matroids", "from_arrangement", "matroids.from_arrangement", None),
    ("omkit.lattices", "build_lattice", "lattices.build", _count("lattices.flats", lambda r, a: len(r.flats))),
    ("omkit.topes", "shelling_order_from_extension", "topes.shelling", None),
    ("omkit.topes", "verify_shelling", "topes.shelling", None),
    ("omkit.topes", "is_convex", "topes.convex", None),
    ("omkit.salvetti", "salvetti_localization", "salvetti.localization", None),
    ("omkit.homology", "homology", "homology.other", None),
    ("omkit.homology", "chain_complex", "homology.chain_complex", _count("homology.boundary_nnz", _boundary_nnz)),
    ("omkit.homology", "rank_and_torsion", "homology.reduce", None),
    ("omkit.homology", "quasi_fibration_certify", "homology.certify", _certificate),
    ("omkit.morse", "matching_salvetti_fiber", "morse.matching", _pairs),
    ("omkit.morse", "matching_convex_critical", "morse.matching", _pairs),
    ("omkit.morse", "matching_from_shelling", "morse.matching", _pairs),
    ("omkit.morse", "morse_reduction_certificate", "morse.certificate", None),
    ("omkit.extensions", "supersolvable_extension", "extensions.search", _count("extensions.steps", lambda r, a: len(r.steps))),
    ("omkit.extensions", "levi_enlargement", "extensions.search", None),
    ("omkit.extensions", "_build_extension", "extensions.search", _leaf),
]

# (module, class, method, span name, sizer)
METHODS = [
    ("omkit.omfile", "OMFile", "to_system", "omfile.load", _count("matroids.covectors", lambda r, a: len(r))),
    ("omkit.matroids", "CovectorSystem", "check_axioms", "matroids.check_axioms", None),
    ("omkit.matroids", "CovectorSystem", "topes", "matroids.topes", None),
    ("omkit.lattices", "GeometricLattice", "is_modular_flat", "lattices.modular", None),
    ("omkit.lattices", "GeometricLattice", "is_supersolvable", "lattices.modular", None),
    ("omkit.salvetti", "SalvettiPoset", "__init__", "salvetti.build", _count("salvetti.cells", lambda r, a: len(a[0]))),
    ("omkit.salvetti", "SalvettiLocalization", "fiber", "salvetti.fiber", None),
    ("omkit.posets", "FinitePoset", "order_complex", "posets.order_complex", _count("posets.simplices", lambda r, a: len(r.faces))),
]

SPANS = sorted({f[2] for f in FUNCTIONS} | {m[3] for m in METHODS})
CALLS = {  # call-count metrics, by span name
    "omfile.parse": "omfile.parse.calls",
    "homology.other": "homology.calls",
    "topes.convex": "topes.convex.calls",
    "salvetti.fiber": "salvetti.fiber.calls",
    "morse.matching": "morse.matching.calls",
}
SIZES = [
    "matroids.covectors",
    "lattices.flats",
    "salvetti.cells",
    "posets.simplices",
    "homology.boundary_nnz",
    "homology.certify.pairs",
    "homology.certify.fibers",
    "morse.pairs",
    "extensions.candidates",
    "extensions.accepted",
    "extensions.steps",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase = "setup"

    def wrap(self, fn, name: str, sizer):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if sizer is not None and rec[4] == "jobs":
                sizer(self.counts, result, args)
            return result

        return traced

    def install(self) -> None:
        for module_name in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "omkit" or n.startswith("omkit.")]
        for module_name, attr, name, sizer in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, sizer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for module_name, cls_name, method, name, sizer in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, method, self.wrap(vars(cls)[method], name, sizer))

    def summary(self, wall_s: float) -> dict:
        """Self time and calls per span name, over the jobs phase, with the
        setup-phase time of from_arrangement and the uncovered remainder."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        self_s = {"setup": Counter(), "jobs": Counter()}
        calls = Counter()
        covered = 0.0
        for i, (name, parent, start, end, phase) in enumerate(self.spans):
            self_s[phase][name] += end - start - child[i]
            if phase == "jobs":
                calls[name] += 1
                if parent < 0:
                    covered += end - start
        return {
            "self_s": {n: self_s["jobs"][n] for n in SPANS},
            "from_arrangement_setup_s": self_s["setup"]["matroids.from_arrangement"],
            "calls": dict(calls),
            "counts": dict(self.counts),
            "uncovered_s": wall_s - covered,
            "spans": len(self.spans),
        }
