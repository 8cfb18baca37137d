"""Span tracing of cofrig's public functions, installed from outside.

``Tracer.install()`` replaces every public function and public method of
the cofrig modules with a wrapper that records one span per call: name,
parent span, start and end.  Spans live in flat arrays in memory and are
written out once, when the run ends.  The library itself is not edited;
the wrappers are bound wherever the original function object is referenced
(``from .covers import dress_rank`` in another module included), and
``uninstall()`` puts every original back.

Accessors hot enough that a span would swamp the trace (``EdgeSet`` and the
edge-index helpers, ``ExplicitMatroid.rank``) are left unwrapped; their time
shows as self time of the caller.

Span names are ``<module>.<function>``; methods drop the class name
(``cofactor.rank`` is ``CofactorOracle.rank``), and ``verify.run_suite``
spans are named after the suite (``verify.axioms``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import struct
import time
from array import array

from checker import SUITES

MODULES = ("cli", "graphs", "field", "cofactor", "sequences", "covers",
           "matroids", "erection", "verify")

# Public names that are not traced: called so often, for so little work each,
# that a span per call would cost more than the call.
UNTRACED = {
    "graphs": {"EdgeSet", "edge_count", "canonical_edge", "edge_index", "edge_at",
               "complete_edges", "complete_graph"},
    "matroids": {"ExplicitMatroid.rank", "ExplicitMatroid.is_independent",
                 "ExplicitMatroid.is_spanning"},
}

_SPAN = struct.Struct("<iidd")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` recording one span per call; ``observe(args,
        kwargs, result)`` may add counts after each call."""
        nid = self._name_id(name)
        names, parents, outer = self.name, self.parent, self.outer
        starts, ends = self.start, self.end
        stack, active = self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(0 if active[nid] else 1)
            ends.append(0.0)
            active[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        package = importlib.import_module("cofrig")
        modules = {short: importlib.import_module(f"cofrig.{short}")
                   for short in MODULES}
        replaced: dict[int, object] = {}
        for short, module in modules.items():
            skip = UNTRACED.get(short, set())
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._function_wrapper(short, attr, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj, skip)
        # Rebind every module-level reference, including imported aliases.
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._set(module, attr, new)

    def _function_wrapper(self, short: str, attr: str, fn):
        if (short, attr) == ("verify", "run_suite"):
            tracer = self

            @functools.wraps(fn)
            def run_suite(name, *args, **kwargs):
                span = tracer.wrap(f"verify.{name}", fn)
                return span(name, *args, **kwargs)

            return run_suite
        return self.wrap(f"{short}.{attr}", fn, self._observer(short, attr))

    def _wrap_methods(self, short: str, cls, skip) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or f"{cls.__name__}.{attr}" in skip:
                continue
            label = f"{short}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(label, raw, self._observer(short, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observer(self, short: str, attr: str):
        """Counts taken at the call boundary, for the per-layer ratios."""
        key = f"{short}.{attr}"
        if key == "field.insert":
            return lambda args, kwargs, grew: self.count(
                "field.insert.grew", int(bool(grew)))
        if key == "field.subset_rank_table":
            return lambda args, kwargs, table: self.count(
                "field.table_masks", len(table))
        if key == "sequences.min_sequence_value":
            return lambda args, kwargs, result: self.count(
                "sequences.candidates", _candidate_count(args, kwargs))
        if key == "covers.maximal_cliques":
            return lambda args, kwargs, result: self.count(
                "covers.members", len(result[0].members))
        return None

    # -- output -------------------------------------------------------------

    def write(self, base: str) -> None:
        """Write ``<base>.names.json`` and ``<base>.spans`` (little-endian
        int32 name, int32 parent, float64 start, float64 end per span)."""
        with open(base + ".names.json", "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh, indent=1,
                      sort_keys=True)
        with open(base + ".spans", "wb") as fh:
            for i in range(len(self.start)):
                fh.write(_SPAN.pack(self.name[i], self.parent[i],
                                    self.start[i], self.end[i]))


def _candidate_count(args, kwargs) -> int:
    """How many cliques ``min_sequence_value`` searches over, from its
    arguments: explicit candidates, else (d+2)-subsets of the vertex pool."""
    F = args[0]
    pool = args[1] if len(args) > 1 else kwargs.get("vertex_pool")
    candidates = kwargs.get("candidates")
    d = kwargs.get("d", 3)
    if candidates is not None:
        return len({tuple(sorted(c)) for c in candidates})
    size = len(list(pool)) if pool is not None else len(F.vertex_support())
    return math.comb(size, d + 2)


def read_spans(base: str) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    with open(base + ".names.json") as fh:
        names = json.load(fh)["names"]
    with open(base + ".spans", "rb") as fh:
        data = fh.read()
    return names, list(_SPAN.iter_unpack(data))


# -- analysis ----------------------------------------------------------------

def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (calls are nested on one thread), so
    subtracting their durations gives the uncovered part of the interval.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from one traced pass of ``wall_s`` seconds (see the
    benchmark README).  ``trace.overhead_frac`` needs an untraced pass too,
    so the caller adds it."""
    names, name, parent = tracer.names, tracer.name, tracer.parent
    own = self_times(parent, tracer.start, tracer.end)
    ids = {n: i for i, n in enumerate(names)}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + own[i]
        if tracer.outer[i]:
            total_s[key] = total_s.get(key, 0.0) + tracer.end[i] - tracer.start[i]

    def below(ancestor: str, child: str) -> int:
        """Spans named ``child`` with an ancestor named ``ancestor``."""
        a, c = ids.get(ancestor), ids.get(child)
        if a is None or c is None:
            return 0
        hits = 0
        for i, nid in enumerate(name):
            if nid != c:
                continue
            p = parent[i]
            while p >= 0 and name[p] != a:
                p = parent[p]
            hits += p >= 0
        return hits

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rank_id, insert_id = ids.get("cofactor.rank"), ids.get("field.insert")
    computing = set()
    if rank_id is not None and insert_id is not None:
        computing = {parent[i] for i, nid in enumerate(name)
                     if nid == insert_id and parent[i] >= 0
                     and name[parent[i]] == rank_id}
    rank_calls = calls.get("cofactor.rank", 0)
    counts = tracer.counts

    m: dict[str, float] = {
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "graphs.load_edge_file.total_s": total_s.get("graphs.load_edge_file", 0.0),
        "field.reduce.calls": calls.get("field.reduce", 0),
        "field.reduce.self_s": self_s.get("field.reduce", 0.0),
        "field.rows_per_s": ratio(calls.get("field.reduce", 0),
                                  self_s.get("field.reduce", 0.0)),
        "field.insert.grew_frac": ratio(counts.get("field.insert.grew", 0),
                                        calls.get("field.insert", 0)),
        "field.subset_rank_table.self_s": self_s.get("field.subset_rank_table", 0.0),
        "field.table_masks_per_s": ratio(counts.get("field.table_masks", 0),
                                         self_s.get("field.subset_rank_table", 0.0)),
        "cofactor.rank.calls": rank_calls,
        "cofactor.rank.memo_hit_frac": ratio(rank_calls - len(computing), rank_calls),
        "cofactor.rank.self_s": self_s.get("cofactor.rank", 0.0),
    }
    for op in ("closure", "cyc", "basis_of", "fundamental_circuit", "rank_table"):
        m[f"cofactor.{op}.total_s"] = total_s.get(f"cofactor.{op}", 0.0)
    for op in ("cyc", "basis_of"):
        m[f"cofactor.{op}.rank_calls_per_call"] = ratio(
            below(f"cofactor.{op}", "cofactor.rank"), calls.get(f"cofactor.{op}", 0))
    msv = calls.get("sequences.min_sequence_value", 0)
    m.update({
        "sequences.rank_certificate.total_s":
            total_s.get("sequences.rank_certificate", 0.0),
        "sequences.min_sequence_value.calls": msv,
        "sequences.min_sequence_value.self_s":
            self_s.get("sequences.min_sequence_value", 0.0),
        "sequences.candidates_per_call":
            ratio(counts.get("sequences.candidates", 0), msv),
    })
    for fn in ("dress_rank", "maximal_cliques", "find_shellable_order",
               "is_M_degenerate"):
        m[f"covers.{fn}.self_s"] = self_s.get(f"covers.{fn}", 0.0)
    m["covers.members_per_cover"] = ratio(counts.get("covers.members", 0),
                                          calls.get("covers.maximal_cliques", 0))
    m["matroids.verify_rank_axioms.total_s"] = total_s.get(
        "matroids.verify_rank_axioms", 0.0)
    m["matroids.is_modular_pair.calls"] = calls.get("matroids.is_modular_pair", 0)
    m["matroids.cyclic_sets.total_s"] = total_s.get("matroids.cyclic_sets", 0.0)
    for fn in ("free_elevation", "modular_cyclic_closure", "family_violation"):
        m[f"erection.{fn}.total_s"] = total_s.get(f"erection.{fn}", 0.0)
    for suite in SUITES:
        m[f"verify.{suite}.total_s"] = total_s.get(f"verify.{suite}", 0.0)
    m["trace.self_coverage"] = ratio(sum(own), wall_s)
    m["trace.spans"] = len(name)
    return m
