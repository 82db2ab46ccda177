"""Spans around the calls into each carleson_lab layer, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper, in
its own module and in every carleson_lab module that imported it by name
(``sequences`` imports ``pseudo_distance_matrix``, ``kernel_row`` and
``carleson_test``; ``kobayashi`` imports ``minimal_frame``; the package
re-exports several).  A wrapper records one span: name, start, end, process
CPU time at both ends, and the enclosing span.  Counts come from return
values, outside the span; the time they take is excluded from the parent's
self time as well.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, function) pairs wrapped in the traced run
TRACED = (
    ("domains", "quasi_interior"),
    ("domains", "quasi_uniform"),
    ("domains", "random_interior"),
    ("domains", "line_level_distance"),
    ("geometry", "minimal_frame"),
    ("geometry", "sample_polydisk"),
    ("kobayashi", "ball_relation"),
    ("kobayashi", "pseudo_distance_matrix"),
    ("kobayashi", "mobius_translation"),
    ("kobayashi", "ball_sandwich"),
    ("kobayashi", "bracket_tanh_distance"),
    ("bergman", "moments"),
    ("bergman", "kernel_row"),
    ("bergman", "reproduce_check"),
    ("bergman", "berezin_many"),
    ("measures", "mass"),
    ("polynomials", "poly_eval"),
    ("carleson", "build_grid"),
    ("carleson", "criterion_berezin"),
    ("carleson", "criterion_geometric"),
    ("carleson", "criterion_operator"),
    ("carleson", "kobayashi_cover"),
    ("carleson", "overlap_count_many"),
    ("sequences", "greedy_packing"),
    ("sequences", "separation"),
    ("sequences", "greedy_decompose"),
    ("sequences", "sequence_measure"),
    ("sequences", "thm42_pipeline"),
    ("cli", "main"),
)
SAMPLERS = ("domains.quasi_interior", "domains.quasi_uniform", "domains.random_interior")


def _counts(name: str, out, acc: dict) -> None:
    """Work counts read from a traced function's return value."""
    if name == "kobayashi.ball_relation":
        inside, maybe = out
        acc["pairs"] += maybe.size
        acc["maybe"] += int(maybe.sum())
        acc["uncertain"] += int((maybe & ~inside).sum())
    elif name == "kobayashi.pseudo_distance_matrix":
        acc["entries"] += out.size
    elif name in ("bergman.kernel_row", "polynomials.poly_eval"):
        acc["points"] += np.size(out)
    elif name == "geometry.minimal_frame":
        acc["distinct"].add(out.center.tobytes())
    elif name == "measures.mass" and hasattr(out, "samples"):
        acc["samples"] += out.samples
    elif name == "carleson.kobayashi_cover":
        acc["accepted"] += len(out.centers)
        acc["candidates"] += out.candidate_count
    elif name == "sequences.greedy_packing":
        acc["accepted"] += out.sequence.count
        acc["candidates"] += out.candidates_used


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.cpu_start: list[float] = []
        self.cpu_end: list[float] = []
        self.excluded: list[float] = []  # counting time spent inside the span, outside its children
        self.acc: dict[str, dict] = {}
        self.stack: list[int] = []
        self.active = True
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
            self.acc[name] = {
                "pairs": 0, "maybe": 0, "uncertain": 0, "entries": 0, "points": 0,
                "samples": 0, "accepted": 0, "candidates": 0, "distinct": set(),
            }
        return self.name_of[name]

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._id(name)
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.excluded.append(0.0)
        self.end.append(0.0)
        self.cpu_end.append(0.0)
        self.cpu_start.append(time.process_time())
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.cpu_end[idx] = time.process_time()
            self.stack.pop()
        c0 = time.perf_counter()
        _counts(name, out, self.acc[name])
        if self.stack:
            self.excluded[self.stack[-1]] += time.perf_counter() - c0
        return out

    def install(self) -> None:
        """Wrap every TRACED function wherever a carleson_lab module binds it."""
        originals = [
            (f"{mod}.{fn}", getattr(importlib.import_module(f"carleson_lab.{mod}"), fn)) for mod, fn in TRACED
        ]
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "carleson_lab"]
        for label, original in originals:

            def wrapper(*args, _fn=original, _label=label, **kwargs):
                return self.span(_label, _fn, *args, **kwargs)

            functools.update_wrapper(wrapper, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start, end = np.array(self.start), np.array(self.end)
        dur = end - start
        own = dur - np.array(self.excluded)
        parent = np.array(self.parent, dtype=int)
        has = parent >= 0
        np.subtract.at(own, parent[has], dur[has])
        return own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics summed over every span of the traced run."""
        own = self.self_times()
        names = np.array(self.span_name, dtype=int)
        cpu = np.array(self.cpu_end) - np.array(self.cpu_start)

        def spans(label):
            sid = self.name_of.get(label)
            return names == sid if sid is not None else np.zeros(len(names), dtype=bool)

        def self_s(*labels):
            mask = np.zeros(len(names), dtype=bool)
            for label in labels:
                mask |= spans(label)
            return float(own[mask].sum())

        def calls(label):
            return int(spans(label).sum())

        def acc(label, key):
            return self.acc[label][key] if label in self.acc else (set() if key == "distinct" else 0)

        def share(num, den):
            return num / den if den else 0.0

        m = {"domains.sampling.self_s": (self_s(*SAMPLERS), "s")}
        m["domains.line_level_distance.calls"] = (calls("domains.line_level_distance"), "count")
        m["domains.line_level_distance.self_s"] = (self_s("domains.line_level_distance"), "s")
        frames = calls("geometry.minimal_frame")
        m["geometry.minimal_frame.calls"] = (frames, "count")
        m["geometry.minimal_frame.self_s"] = (self_s("geometry.minimal_frame"), "s")
        m["geometry.minimal_frame.distinct_share"] = (
            share(len(acc("geometry.minimal_frame", "distinct")), frames), "ratio")
        m["geometry.sample_polydisk.self_s"] = (self_s("geometry.sample_polydisk"), "s")
        br = "kobayashi.ball_relation"
        m[f"{br}.calls"] = (calls(br), "count")
        m[f"{br}.pairs"] = (acc(br, "pairs"), "count")
        m[f"{br}.self_s"] = (self_s(br), "s")
        m[f"{br}.maybe_share"] = (share(acc(br, "maybe"), acc(br, "pairs")), "ratio")
        m[f"{br}.uncertain"] = (acc(br, "uncertain"), "count")
        pd = "kobayashi.pseudo_distance_matrix"
        m[f"{pd}.calls"] = (calls(pd), "count")
        m[f"{pd}.entries"] = (acc(pd, "entries"), "count")
        m[f"{pd}.self_s"] = (self_s(pd), "s")
        m["kobayashi.mobius_translation.self_s"] = (self_s("kobayashi.mobius_translation"), "s")
        m["kobayashi.ball_sandwich.calls"] = (calls("kobayashi.ball_sandwich"), "count")
        m["kobayashi.ball_sandwich.self_s"] = (self_s("kobayashi.ball_sandwich"), "s")
        m["kobayashi.bracket_tanh_distance.calls"] = (calls("kobayashi.bracket_tanh_distance"), "count")
        m["kobayashi.bracket_tanh_distance.self_s"] = (self_s("kobayashi.bracket_tanh_distance"), "s")
        m["bergman.moments.self_s"] = (self_s("bergman.moments"), "s")
        kr = "bergman.kernel_row"
        m[f"{kr}.points"] = (acc(kr, "points"), "count")
        m[f"{kr}.self_s"] = (self_s(kr), "s")
        m[f"{kr}.cpu_s"] = (float(cpu[spans(kr)].sum()), "s")
        m["bergman.reproduce_check.self_s"] = (self_s("bergman.reproduce_check"), "s")
        m["bergman.berezin_many.self_s"] = (self_s("bergman.berezin_many"), "s")
        m["measures.mass.calls"] = (calls("measures.mass"), "count")
        m["measures.mass.samples"] = (acc("measures.mass", "samples"), "count")
        m["measures.mass.self_s"] = (self_s("measures.mass"), "s")
        m["polynomials.poly_eval.points"] = (acc("polynomials.poly_eval", "points"), "count")
        m["polynomials.poly_eval.self_s"] = (self_s("polynomials.poly_eval"), "s")
        for fn in ("build_grid", "criterion_berezin", "criterion_geometric", "criterion_operator"):
            m[f"carleson.{fn}.self_s"] = (self_s(f"carleson.{fn}"), "s")
        kc = "carleson.kobayashi_cover"
        m[f"{kc}.self_s"] = (self_s(kc), "s")
        m[f"{kc}.acceptance"] = (share(acc(kc, "accepted"), acc(kc, "candidates")), "ratio")
        m["carleson.overlap_count_many.self_s"] = (self_s("carleson.overlap_count_many"), "s")
        gp = "sequences.greedy_packing"
        m[f"{gp}.self_s"] = (self_s(gp), "s")
        m[f"{gp}.acceptance"] = (share(acc(gp, "accepted"), acc(gp, "candidates")), "ratio")
        for fn in ("separation", "greedy_decompose", "sequence_measure", "thm42_pipeline"):
            m[f"sequences.{fn}.self_s"] = (self_s(f"sequences.{fn}"), "s")
        m["cli.main.self_s"] = (self_s("cli.main"), "s")
        return m

    def write(self, path: str) -> None:
        """All spans: name index, parent index, start, end, CPU at both ends,
        self time; span names in ``names``."""
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            cpu_start=np.array(self.cpu_start),
            cpu_end=np.array(self.cpu_end),
            self_s=self.self_times(),
        )
