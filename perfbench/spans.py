"""Spans around calls into ibx, and the per-layer metrics made from them.

A traced run wraps the package's public functions (module attributes and
a few automaton methods) so that every call, whether the benchmark makes
it or another ibx function does, records a span: name, start, end,
parent span, round id and work counts.  Spans stay in memory until the
run ends.  An untraced run uses NullTracer, whose span() does nothing.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional


class NullTracer:
    enabled = False
    round_id = -1

    def span(self, name: str, **counts):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Span:
    __slots__ = ("sid", "name", "parent", "round", "start", "end", "counts")

    def __init__(self, sid, name, parent, round_id, counts):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.round = round_id
        self.counts = counts
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "round": self.round,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class _OpenSpan:
    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span.sid)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.round_id = -1
        self._patches: list = []
        self._originals: Dict[str, Callable] = {}

    def span(self, name: str, **counts) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.round_id, counts)
        self.spans.append(sp)
        return _OpenSpan(self, sp)

    def record(self, name: str, duration: float, **counts) -> None:
        """A span measured elsewhere, such as in a child process."""
        with self.span(name, **counts) as sp:
            pass
        sp.end = sp.start + duration

    # -- wrapping package functions -------------------------------------

    def wrap(self, owner, attr: str, name, counter: Optional[Callable] = None) -> None:
        """Replace owner.attr (and every ibx module global bound to the same
        function) with a wrapper that records a span per call.  name is the
        span name, or a function of the call's arguments giving it; counter
        maps (args, result) to the span's work counts."""
        original = getattr(owner, attr)
        tracer = self
        if isinstance(name, str):
            self._originals[name] = original
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def traced(*args, **kw):
            with tracer.span(name_of(args)) as sp:
                result = original(*args, **kw)
            if counter is not None:
                sp.counts.update(counter(args, result))
            return result

        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("ibx") and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, traced)

    def original(self, name: str) -> Callable:
        """The unwrapped function behind span name."""
        return self._originals[name]

    def unwrap_all(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by child spans."""
        child_time: Dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child_time.get(sp.sid, 0.0)
        return out


# ---------------------------------------------------------------------------
# Per-layer metrics.  Each is (name, unit, span name, how, count key).
#   rate:  sum of the count over spans / sum of span durations
#   ns_per: sum of span durations in ns / sum of the count
#   ms, us: median span duration
#   count: median of the count over spans
#   round_ms, round_count: the same summed per round, median over rounds


def rate(span_name, key, unit, metric=None):
    return (metric or f"{span_name}.{key}_per_s", unit, span_name, "rate", key)


LAYER_METRICS = [
    rate("kernel.check_bijection_exhaustive", "states", "states/s"),
    rate("kernel.iterate_bijection", "steps", "steps/s"),
    ("circuits.permutation_of.ns_per_gate_state", "ns", "circuits.permutation_of", "ns_per", "gate_states"),
    rate("circuits.parity", "states", "states/s"),
    ("circuits.exact_lift.ms", "ms", "circuits.exact_lift", "ms", None),
    rate("circuits.verify_lift", "states", "states/s"),
    rate("circuits.iterate_circuit", "steps", "steps/s"),
    rate("reductions.inversion_by_iteration", "steps", "steps/s"),
    rate("reductions.run_schedule", "steps", "steps/s"),
    rate("reductions.run_schedule", "back_steps", "steps/s"),
    rate("graphs.leaf_to_bijection", "steps", "steps/s"),
    rate("graphs.solve_leaf_walk", "steps", "steps/s"),
    ("graphs.second_hamiltonian.ms", "ms", "graphs.second_hamiltonian", "ms", None),
    ("graphs.count_ham_cycles_through_edge.ms", "ms", "graphs.count_ham_cycles_through_edge", "ms", None),
    rate("ca.margolus_step", "cells", "cells/s"),
    rate("ca.margolus_step_back", "cells", "cells/s"),
    rate("ca.margolus_step.threads2", "cells", "cells/s", "ca.margolus_step.threads2_cells_per_s"),
    rate("ca.margolus_step_helical", "cells", "cells/s"),
    rate("ca.margolus_step_back_helical", "cells", "cells/s"),
    rate("ca.dim_redux.step", "cells", "cells/s"),
    rate("ca.dim_redux.step_back", "cells", "cells/s"),
    rate("ca.strobe.step", "cells", "cells/s"),
    rate("ca.strobe.step_back", "cells", "cells/s"),
    rate("plb.validate_plb", "pieces", "pieces/s"),
    ("plb.circuit_to_plb.ms", "ms", "plb.circuit_to_plb", "ms", None),
    ("plb.circuit_to_plb.pieces", "pieces", "plb.circuit_to_plb", "count", "pieces"),
    ("plb.apply_plb.per_s", "applies/s", "plb.apply_plb", "rate", "applies"),
    ("plb.apply_plb_inverse.per_s", "applies/s", "plb.apply_plb_inverse", "rate", "applies"),
    rate("plb.permutation_order", "states", "states/s"),
    ("iet.build_surface.ms", "ms", "iet.build_surface", "ms", None),
    ("iet.arc_of.states", "states", "iet.arc_of", "round_count", "states"),
    ("iet.arc_of.ms", "ms", "iet.arc_of", "round_ms", None),
    ("iet.iet_orbit_solve.us", "us", "iet.iet_orbit_solve", "us", None),
    rate("iet.three_gap_max_distinct", "points", "points/s"),
    ("formats.parse_circuit.ms", "ms", "formats.parse_circuit", "ms", None),
    ("formats.parse_plb.ms", "ms", "formats.parse_plb", "ms", None),
    ("formats.parse_iet.ms", "ms", "formats.parse_iet", "ms", None),
    ("formats.parse_grid.ms", "ms", "formats.parse_grid", "ms", None),
    ("formats.parse_cubic.ms", "ms", "formats.parse_cubic", "ms", None),
    ("cli.import.ms", "ms", "cli.import", "ms", None),
]


def cli_layer_metrics(command_names: List[str]) -> list:
    out = [(f"cli.main.{c}.ms", "ms", f"cli.main.{c}", "ms", None) for c in command_names]
    out.append(("cli.process_overhead.ms", "ms", "cli.process_overhead", "count", "ms"))
    return out


def layer_value(spans: List[Span], how: str, key: Optional[str]) -> Optional[float]:
    """One metric from the spans of one name; None when they hold no data."""
    if key is not None:
        spans = [s for s in spans if key in s.counts]
    if not spans:
        return None
    if how == "rate":
        busy = sum(s.duration for s in spans)
        return sum(s.counts[key] for s in spans) / busy if busy > 0 else None
    if how == "ns_per":
        work = sum(s.counts[key] for s in spans)
        return sum(s.duration for s in spans) * 1e9 / work if work else None
    if how.startswith("round_"):
        per_round: Dict[object, float] = {}
        for s in spans:
            part = s.duration * 1e3 if how == "round_ms" else s.counts[key]
            per_round[s.round] = per_round.get(s.round, 0.0) + part
        return statistics.median(per_round.values())
    if how == "ms":
        return statistics.median(s.duration for s in spans) * 1e3
    if how == "us":
        return statistics.median(s.duration for s in spans) * 1e6
    return float(statistics.median(s.counts[key] for s in spans))


def layer_metrics(spans: List[Span], table) -> Dict[str, dict]:
    by_name: Dict[str, List[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    out = {}
    for metric, unit, span_name, how, key in table:
        value = layer_value(by_name.get(span_name, []), how, key)
        if value is not None:
            out[metric] = {"value": value, "unit": unit}
    return out
