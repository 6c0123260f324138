"""Span tracing of the bbgky_zne layers from outside the package.

The traced run replaces the module-level names through which the layers call
each other (``bbgky_zne.schwinger.evolve_noisy``, ``bbgky_zne.mitigation.solve``,
``bbgky_zne.cli.dump_json`` and so on) with wrappers that record one span per
call. Nothing inside the package changes: :func:`install` rebinds every
``bbgky_zne.*`` module attribute that refers to a traced function and returns
a callable that puts the originals back.

A span's name is the per-layer metric its self time counts towards. Self
time is the span's duration minus the part of that interval its child spans
cover, so the self times of one op add up to the op's wall time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


def _mitigation_tag(args, kwargs) -> str:
    subset = kwargs["subset"] if "subset" in kwargs else args[1]
    return "zne" if subset is None else "bbgky"


def _written_bytes(args, kwargs) -> int:
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode())


def _read_bytes(args, kwargs) -> int:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return os.path.getsize(path)


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and what its spans count as.

    ``name`` may end in ``{tag}``, which is filled with the tag of the nearest
    enclosing span that carries one. ``tag`` computes a tag from the call's
    arguments; ``count`` computes a number added to the counter ``counter``.
    """

    module: str
    attr: str
    name: str
    tag: Callable | None = None
    counter: str | None = None
    count: Callable | None = None


TARGETS = (
    Target("bbgky_zne.cli", "main", "cli.self_s"),
    Target("bbgky_zne.config", "load_config", "config.load_s"),
    Target("bbgky_zne.jsonio", "load_json", "jsonio.read_s", counter="jsonio.bytes_read", count=_read_bytes),
    Target("bbgky_zne.jsonio", "dump_json", "jsonio.write_s"),
    Target("bbgky_zne.jsonio", "dump_csv", "jsonio.write_s"),
    Target("bbgky_zne.jsonio", "atomic_write_text", "jsonio.write_s", counter="jsonio.bytes_written", count=_written_bytes),
    Target("bbgky_zne.schwinger", "run_scan", "schwinger.run_scan_self_s"),
    Target("bbgky_zne.schwinger", "run_cell", "schwinger.run_cell_self_s"),
    Target("bbgky_zne.hierarchy", "select_subset", "hierarchy.select_subset_s"),
    Target("bbgky_zne.hierarchy", "decompose", "hierarchy.decompose_s"),
    Target("bbgky_zne.simulator", "evolve_noisy", "simulator.evolve_noisy_s"),
    Target("bbgky_zne.simulator", "evolve_exact", "simulator.evolve_exact_s"),
    Target("bbgky_zne.mitigation", "run_mitigation", "mitigation.run_mitigation_self_s", tag=_mitigation_tag),
    Target("bbgky_zne.mitigation", "assemble", "mitigation.assemble_s"),
    # ``solution_operator`` (the pinv) is a cached property first used in solve
    Target("bbgky_zne.mitigation", "solve", "mitigation.solve_s.{tag}"),
    Target("bbgky_zne.mitigation", "propagate_std", "mitigation.covariance_s"),
    Target("bbgky_zne.mitigation", "extrapolation_covariance", "mitigation.covariance_s"),
    Target("bbgky_zne.mitigation", "zne_baseline", "mitigation.zne_baseline_s"),
    Target("bbgky_zne.mitigation", "observable_series", "mitigation.report_s"),
    Target("bbgky_zne.mitigation", "observable_covariance", "mitigation.report_s"),
    Target("bbgky_zne.mitigation", "error_norm", "mitigation.report_s"),
)

#: every span name the targets can produce, so absent layers report zero
SPAN_NAMES = tuple(
    dict.fromkeys(
        name
        for t in TARGETS
        for name in (
            [t.name.format(tag=tag) for tag in ("bbgky", "zne")] if "{tag}" in t.name else [t.name]
        )
    )
)
COUNTERS = tuple(t.counter for t in TARGETS if t.counter)


class Tracer:
    """Records spans in memory while an op is open; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op: int | None = None
        self._next_id = 0
        self._stack: list[tuple[int, str | None]] = []

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def tag(self) -> str:
        for _, tag in reversed(self._stack):
            if tag is not None:
                return tag
        return "untagged"

    def call(self, target: Target, fn: Callable, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        tag = target.tag(args, kwargs) if target.tag else None
        name = target.name.format(tag=self.tag()) if "{tag}" in target.name else target.name
        if target.counter:
            self.counts[(self.op, target.counter)] += target.count(args, kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, tag))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op, name, start, end))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)]


def _wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(target, fn, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", target.attr)
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every reference to a target inside ``bbgky_zne`` to a wrapper.

    Returns a function that restores the original bindings.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "bbgky_zne" or n.startswith("bbgky_zne.")]
    undo: list[tuple[object, str, object]] = []
    for target in TARGETS:
        original = getattr(sys.modules[target.module], target.attr)
        wrapped = _wrapper(tracer, target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore() -> None:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[s.parent].append((start, end))
    return {s.span_id: (s.end - s.start) - _covered(children[s.span_id]) for s in spans}


def self_time_per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Self time summed by span name, per op."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s.op][s.name] += own[s.span_id]
    return out
