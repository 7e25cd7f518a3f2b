"""The benchmark's own span recorder: boundaries are patched from outside.

The program has a tracer of its own (``repro.obs.trace``); it stays *off*
while the benchmark runs, so what is measured is the program users run.
Instead this module replaces each listed boundary function by a wrapper that
records a span -- metric name, start, end, parent span, op id -- into an
in-memory list.  A span's *self time* is its duration minus the time its
direct children cover; because the wrappers nest strictly (one thread, no
generators across boundaries), self times of all spans under an op's root
add up to the root's duration exactly.

This module does not import ``repro``; :mod:`calls` hands it the resolved
owners and the namespaces to rebind.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# A span is a list: [metric, start, end, parent index, op id, measure].
NAME, START, END, PARENT, OP, MEASURE = range(6)

ROOT = "bench.unattributed"


class Recorder:
    """Spans in memory.  ``op`` is the id every span opened now inherits."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self.stack.pop()

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        measure: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``function`` recording one span per call.  ``measure(args, result)``
        runs after the span closes (its cost is the caller's, not the layer's)."""
        spans, stack = self.spans, self.stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if measure is not None:
                record[MEASURE] = measure(args, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Self time of every span: duration minus its direct children's durations."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def self_time_by_name(
    spans: Sequence[Sequence[Any]],
    scale: Callable[[Sequence[Any]], float] = lambda span: 1.0,
    keep: Callable[[Sequence[Any]], bool] = lambda span: True,
) -> Dict[str, float]:
    """Total self time per metric name over the spans ``keep`` accepts;
    ``scale(span)`` is the speed factor of the pass the span belongs to.
    ``spans`` must be the whole recording: parents are list indices."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if keep(span):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own * scale(span)
    return totals


def write_jsonl(path: str, spans: Iterable[Sequence[Any]], op_labels: Mapping[int, str]) -> None:
    """One span per line: ``id`` is the line's index, ``parent`` refers to it."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": span[PARENT],
                        "op": span[OP],
                        "op_label": op_labels.get(span[OP]),
                        "measure": span[MEASURE],
                    }
                )
            )
            handle.write("\n")


class Patch:
    """A set of boundary wrappers that can be switched on and off cheaply.

    Construction finds every binding once -- the attribute on the owner, plus
    every ``from x import f`` alias of a module-level function in the given
    namespaces -- so :meth:`on` / :meth:`off` are a few dozen ``setattr``\\ s
    and can bracket single passes.
    """

    def __init__(
        self,
        recorder: Recorder,
        boundaries: Mapping[str, Sequence[Tuple[str, str]]],
        resolve: Callable[[str], Any],
        namespaces: Sequence[Any],
        measures: Optional[Mapping[str, Callable[[tuple, Any], Any]]] = None,
    ) -> None:
        self.missing: List[str] = []
        self._bindings: List[Tuple[Any, str, Any, Any]] = []  # owner, attr, original, wrapped
        measures = measures or {}
        for metric, targets in boundaries.items():
            for dotted, attribute in targets:
                try:
                    owner = resolve(dotted)
                    raw = vars(owner)[attribute]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{metric}:{dotted}.{attribute}")
                    continue
                measure = measures.get(metric)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(recorder.wrap(metric, raw.__func__, measure))
                else:
                    wrapped = recorder.wrap(metric, raw, measure)
                self._bindings.append((owner, attribute, raw, wrapped))
                if isinstance(owner, type):
                    continue
                for namespace in namespaces:
                    if namespace is owner:
                        continue
                    for alias, value in list(vars(namespace).items()):
                        if value is raw:
                            self._bindings.append((namespace, alias, raw, wrapped))

    def on(self) -> None:
        for owner, attribute, _raw, wrapped in self._bindings:
            setattr(owner, attribute, wrapped)

    def off(self) -> None:
        for owner, attribute, raw, _wrapped in self._bindings:
            setattr(owner, attribute, raw)
