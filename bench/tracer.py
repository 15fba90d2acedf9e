"""Span tracing of stonespec's public entry points, installed from outside.

The package is not modified.  :func:`install` rebinds each entry point named
in :data:`ENTRY_POINTS` to a wrapper that records a span, in every
``stonespec.*`` module whose namespace holds the same object (``from .stone
import stone_space`` copies the binding into ``checks``, ``cli``, ``family``
and ``topology``).  Methods and constructors are patched on their class.
Spans stay in memory until :meth:`Tracer.dump`; self times are computed
afterwards by :func:`summarize`.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import json
import sys
from time import perf_counter

# Entry points, grouped by the workload whose end-to-end metric they should
# move.  The grouping is documented in bench/README.md.
SWEEP_LAYER = (
    "topology.is_continuous", "topology.spectral_family_of_continuous",
    "topology.all_topologies", "topology.is_strongly_regular",
    "topology.induced_function", "topology.TopSpace.lattice",
    "topology.TopSpace.r_lattice", "family.SpectralFamily",
    "family.enumerate_families", "stone.is_completely_distributive",
)
ALGEBRA_LAYER = (
    "measurable.quotient", "measurable.gamma_transform",
    "measurable.lift_spectral_family", "measurable.spectral_family_of",
    "measurable.bijection_report", "measurable.riemann_stieltjes_on_points",
    "family.observable_function", "family.from_observable_function",
    "topology.pt_structure", "topology.f_star", "stone.enumerate_quasipoints",
    "stone.stone_space",
)
FILES_LAYER = (
    "dsl.parse", "dsl.emit_json", "dsl.emit_dot", "lattice.Lattice.validate",
    "lattice.Lattice.is_distributive", "family.riemann_stieltjes", "cli.main",
)
SHARED_LAYER = ("lattice.Lattice",)
ENTRY_POINTS = SWEEP_LAYER + ALGEBRA_LAYER + FILES_LAYER + SHARED_LAYER

# Classes whose constructor is the entry point: the wrapper goes on __init__
# so that isinstance checks and class identity are untouched.
CONSTRUCTORS = {"family.SpectralFamily", "lattice.Lattice"}

# Reprs built eagerly for check messages (counted, not spanned).
REPRS = ("topology.TopSpace", "family.SpectralFamily")


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, start, end, parent_id, request)``, with ``name``
    an index into :attr:`names`.  Spans are appended when they close; ids are
    assigned when they open, so a parent's id is smaller than its children's.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counts = {"fractions.Fraction.calls": 0, "checks.repr.calls": 0,
                       "stone.stone_space.hits": 0}
        self.cases = {}
        self._stack = []
        self._next_id = 0
        self.request = None

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        spans, stack = self.spans, self._stack
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.request))

        return traced

    def counter(self, key, fn):
        """Wrap ``fn`` so that each call bumps ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def request_root(self, request, fn, *args, **kwargs):
        """Run ``fn`` as the root span of one request."""
        if self._stack:
            raise RuntimeError("a request root must not be nested in a span")
        self.request = request
        try:
            return self.span(f"request.{request}", fn)(*args, **kwargs)
        finally:
            self.request = None

    def dump(self, path, extra):
        """Write spans, counts and ``extra`` as one JSON document."""
        doc = {"names": self.names, "spans": self.spans, "counts": self.counts,
               "cases": self.cases}
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _resolve(qualname):
    parts = qualname.split(".")
    module = importlib.import_module("stonespec." + parts[0])
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _rebind_everywhere(old, new):
    """Point every stonespec module-level binding of ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname != "stonespec" and not modname.startswith("stonespec."):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(tracer: Tracer) -> None:
    """Install every wrapper."""
    import stonespec  # noqa: F401  (loads every submodule)
    from stonespec import checks

    for qualname in ENTRY_POINTS:
        module, owner, attr = _resolve(qualname)
        old = getattr(owner, attr)
        if qualname in CONSTRUCTORS:
            old.__init__ = tracer.span(qualname, old.__init__)
        elif owner is not module:
            setattr(owner, attr, tracer.span(qualname, old))
        elif qualname == "stone.stone_space":
            _rebind_everywhere(old, tracer.span(qualname, _memo_probe(tracer, old)))
        else:
            _rebind_everywhere(old, tracer.span(qualname, old))

    for qualname in REPRS:
        _, owner, attr = _resolve(qualname)
        cls = getattr(owner, attr)
        cls.__repr__ = tracer.counter("checks.repr.calls", cls.__repr__)

    # Fraction is shared by every module; count constructions through __new__.
    fractions.Fraction.__new__ = staticmethod(
        tracer.counter("fractions.Fraction.calls", fractions.Fraction.__new__))

    # Each suite run is one request; its case count is recorded with it.
    run_suite = checks.run_suite

    def traced_run_suite(name, max_size=4, seed=0):
        result = tracer.request_root(name, run_suite, name, max_size, seed)
        tracer.cases[name] = result.cases
        return result

    _rebind_everywhere(run_suite, traced_run_suite)


def _memo_probe(tracer: Tracer, stone_space):
    """Count calls of ``stone_space`` served from the per-lattice memo."""

    @functools.wraps(stone_space)
    def probed(lattice):
        if lattice._stone is not None:
            tracer.counts["stone.stone_space.hits"] += 1
        return stone_space(lattice)

    return probed


def self_times(spans):
    """Map span id -> self time: duration minus the time children cover.

    Calls are synchronous, so children of one span never overlap and each
    lies inside its parent; covered time is the sum of child durations.
    """
    covered = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0)
            for sid, _, start, end, _, _ in spans}


def summarize(doc):
    """Per-entry-point calls and self time, and per-request totals."""
    names, spans = doc["names"], doc["spans"]
    own = self_times(spans)
    calls = {name: 0 for name in ENTRY_POINTS}
    self_s = {name: 0.0 for name in ENTRY_POINTS}
    requests = {}
    for sid, name_id, start, end, _, request in spans:
        name = names[name_id]
        if name.startswith("request."):
            requests[request] = end - start
            continue
        calls[name] += 1
        self_s[name] += own[sid]
    return calls, self_s, requests
