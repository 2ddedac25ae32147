"""Spans, self times and cProfile attribution for the traced run.

Spans are recorded only by the benchmark's own files, around its calls
into each layer's public functions; with tracing off the same call sites
enter a shared no-op context, so both runs execute the same code.
"""

from __future__ import annotations

import contextlib
import cProfile
from array import array
import dataclasses
import json
import pstats
import time

from repro.scheme.core_forms import CoreExpr
from repro.scheme.datum import Pair, SchemeVector
from repro.scheme.syntax import Syntax

_NULL = contextlib.nullcontext()


class Spans:
    """In-memory span log: (name, start, end, parent index, op id).

    Kept in flat arrays rather than one object per span: a long traced run
    records hundreds of thousands of spans, and as objects they would make
    every full garbage collection scan them, stalling the measured ops.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = []
        self.op = 0
        #: repetitions of the op's body, per op id
        self.op_reps: dict[int, int] = {}

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def new_op(self, reps: int = 1) -> None:
        """Start a new op whose body repeats ``reps`` times."""
        self.op += 1
        if self.enabled:
            self.op_reps[self.op] = reps

    @property
    def records(self):
        """``(name, start, end, parent, op)`` for every span, in order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    def self_times(self) -> list[tuple[str, float, float, int]]:
        """``(name, duration, self time, parent)`` for every span."""
        covered = [0.0] * len(self.names)
        for name, start, end, parent, _op in self.records:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, end - start, end - start - covered[i], parent)
            for i, (name, start, end, parent, _op) in enumerate(self.records)
        ]

    def per_rep(self) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per op kind (``op.<kind>`` roots): mean wall seconds of one
        repetition of its body, and per span name within that kind, mean
        self seconds per repetition."""
        kinds: dict[int, str] = {}
        wall: dict[str, list] = {}
        for name, start, end, parent, op in self.records:
            if parent < 0 and name.startswith("op."):
                kinds[op] = name[3:]
                total = wall.setdefault(name[3:], [0.0, 0])
                total[0] += end - start
                total[1] += self.op_reps.get(op, 1)
        own: dict[str, dict[str, float]] = {}
        for (name, _duration, self_s, parent), op in zip(self.self_times(), self.ops):
            kind = kinds.get(op)
            if parent >= 0 and kind is not None:
                spans = own.setdefault(kind, {})
                spans[name] = spans.get(name, 0.0) + self_s
        return (
            {kind: seconds / reps for kind, (seconds, reps) in wall.items()},
            {
                kind: {name: seconds / wall[kind][1] for name, seconds in spans.items()}
                for kind, spans in own.items()
            },
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "op": o}
                    for n, s, e, p, o in self.records
                ],
                out,
            )


# -- cProfile self-time attribution by source module --------------------------


def profile_call(fn, *args):
    """Run ``fn(*args)`` under cProfile; returns (result, pstats.Stats)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    return result, pstats.Stats(profiler)


def attribute(stats: pstats.Stats, group_of) -> dict[str, float]:
    """Self seconds per group. ``group_of(filename)`` returns a group or
    None; a function with no group (builtins, frozen modules)
    hands its self time to the groups of its callers, in proportion to
    the time each caller spent in it."""
    raw = stats.stats  # type: ignore[attr-defined]
    groups: dict[str, float] = {}
    resolved: dict[tuple, str | None] = {}

    def group(func: tuple) -> str | None:
        if func in resolved:
            return resolved[func]
        resolved[func] = group_of(func[0])
        return resolved[func]

    def credit(func: tuple, seconds: float, depth: int) -> None:
        name = group(func)
        if name is not None:
            groups[name] = groups.get(name, 0.0) + seconds
            return
        callers = raw.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(entry[2] for entry in callers.values())
        if depth > 8 or not callers or total <= 0:
            groups["other"] = groups.get("other", 0.0) + seconds
            return
        for caller, entry in callers.items():
            credit(caller, seconds * entry[2] / total, depth + 1)

    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        credit(func, tt, 0)
    return groups


def call_count(stats: pstats.Stats, file_suffix: str, funcname: str | None = None) -> int:
    """Calls into functions of ``file_suffix`` (optionally one function)."""
    total = 0
    for (filename, _line, name), (_cc, nc, *_rest) in stats.stats.items():  # type: ignore[attr-defined]
        if filename.endswith(file_suffix) and (funcname is None or name == funcname):
            total += nc
    return total


def core_node_count(program) -> int:
    """IR size after expansion: every core-form node of ``program``."""
    count = 0
    stack: list[object] = list(program.forms)
    while stack:
        node = stack.pop()
        if isinstance(node, CoreExpr):
            count += 1
            for spec in dataclasses.fields(node):
                if spec.name != "stx":
                    stack.append(getattr(node, spec.name))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return count


def datum_count(forms) -> int:
    """Syntax nodes the reader produced for ``forms``."""
    count = 0
    stack: list[object] = list(forms)
    while stack:
        node = stack.pop()
        if isinstance(node, Syntax):
            count += 1
            stack.append(node.datum)
        elif isinstance(node, Pair):
            stack.append(node.car)
            stack.append(node.cdr)
        elif isinstance(node, SchemeVector):
            stack.extend(node.items)
    return count
