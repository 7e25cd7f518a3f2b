"""Pure measurement logic: percentiles, speed normalisation, the pass loop.

Load model: closed loop, one client, no think time, one process, no threads.
A workload is passes over a fixed plan of op kinds; ``gc.collect()`` runs
before each pass, outside the timing.

Speed normalisation
-------------------
Wall time on a small shared box drifts with the machine, not the code: the
raw median pass of one workload, one seed, measured in twelve fresh processes
in a row, had quartiles 11-39 % of the median apart (3-4 % after
normalisation).  Two fixed calibration kernels
(:func:`calibrate`) therefore run before the first pass and after every
pass: an interpreter-bound one and a memory-bound one, because the box's
speed on the two drifts independently (a neighbour that saturates the
memory bus slows array sweeps and big hash tables, not a tight bytecode
loop).  Every duration of pass *p* is divided by

    (1 - m) * interpreter_kernel / INTERPRETER_REF + m * memory_kernel / MEMORY_REF

averaged over the calibrations before and after *p*, where ``m`` is the
workload's ``memory_share`` -- a constant committed with the workload.  All
``*_ms`` / ``*_s`` / ``1/s`` metrics are these normalised values; the two
reference constants only fix the unit, so ratios between commits do not
depend on them.
"""

from __future__ import annotations

import gc
import math
import traceback
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import ROOT

#: What the two kernels of :func:`calibrate` took, in milliseconds, on the box
#: the baseline was recorded on.  Constants of the harness: changing them
#: rescales every time metric.
INTERPRETER_REF_MS = 40.0
MEMORY_REF_MS = 30.0

_CAL_ROUNDS, _CAL_LOOP = 2, 50_000
_cal_array: Any = None

Calibration = Tuple[float, float]  # (interpreter kernel seconds, memory kernel seconds)


def calibrate() -> Calibration:
    """Seconds the two fixed kernels take *now*.

    The interpreter kernel is a pure-Python dict / tuple / str allocation
    loop with a small working set.  The memory kernel is ``numpy.unique`` on
    a fixed 200k-int array plus an allocate / scale / sum sweep over 16 MB.

    The collector is off inside the kernels: a generational collection walks
    the workload's whole heap, so with it on they would run slower the more
    the program under test keeps alive -- and a change that shrinks the heap
    would look like a slowdown after normalisation.
    """
    global _cal_array
    import numpy

    if _cal_array is None:
        _cal_array = numpy.random.RandomState(20070611).randint(0, 50_000, size=200_000)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for _ in range(_CAL_ROUNDS):
            table: Dict[Tuple[int, str], Tuple[int, Any]] = {}
            for i in range(_CAL_LOOP):
                key = (i & 1023, str(i))
                table[key] = (i, key)
            for value in table.values():
                total += value[0]
        middle = perf_counter()
        numpy.unique(_cal_array)
        (numpy.ones(2_000_000) * 2.0).sum()
        return middle - start, perf_counter() - middle
    finally:
        if collecting:
            gc.enable()


def speed_factor(before: Calibration, after: Calibration, memory_share: float) -> float:
    """What to multiply a duration by so it reads as on the reference box."""
    interpreter = (before[0] + after[0]) / 2.0 / (INTERPRETER_REF_MS / 1e3)
    memory = (before[1] + after[1]) / 2.0 / (MEMORY_REF_MS / 1e3)
    return 1.0 / ((1.0 - memory_share) * interpreter + memory_share * memory)


def freeze_heap() -> None:
    """Collect, then move everything alive into the permanent generation.

    Called once set-up and warm-up are done.  Without it every full
    collection during a timed op walks the whole loaded state -- memory-bound
    work whose cost swings with the box (ten passes of one workload spread
    over 38 % of their median with it, 7 % without) and which belongs to the
    state's size, already reported as ``peak_rss_mb``, not to the op.  What
    the ops allocate is still collected as usual.
    """
    gc.collect()
    gc.freeze()


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    ``percentile(v, 0.9)`` is the smallest sample with at least 90 % of the
    samples at or below it; with n >= 100 samples at least ten lie beyond.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class OpRecord:
    """One executed op: what ran, how long, what came back."""

    __slots__ = ("kind", "args", "result", "seconds", "error")

    def __init__(self, kind: str, args: Any):
        self.kind = kind
        self.args = args
        self.result: Any = None
        self.seconds = 0.0
        self.error: Optional[str] = None


def run_pass(workload: Any, state: Any, number: int, recorder: Any = None) -> List[OpRecord]:
    """One pass over ``workload.plan``.  An op that raises is caught and
    counted (its latency still counts); it never aborts the run.  With a
    ``recorder`` every op runs under its own root span."""
    gc.collect()
    records: List[OpRecord] = []
    for slot, kind in enumerate(workload.plan):
        record = OpRecord(kind, workload.prepare(state, kind, number, slot))
        if recorder is not None:
            recorder.op = number * len(workload.plan) + slot
            root = recorder.open(ROOT)
        start = perf_counter()
        try:
            record.result = workload.run(state, kind, record.args)
        except Exception:  # the boundary that must keep running
            record.error = traceback.format_exc(limit=6)
        record.seconds = perf_counter() - start
        if recorder is not None:
            recorder.close(root)
        records.append(record)
    return records


class PassSample:
    """A timed pass with the mean of the calibrations that bracket it."""

    __slots__ = ("number", "traced", "records", "calibration", "factor")

    def __init__(
        self,
        number: int,
        traced: bool,
        records: List[OpRecord],
        before: Calibration,
        after: Calibration,
        memory_share: float,
    ):
        self.number = number
        self.traced = traced
        self.records = records
        self.calibration = ((before[0] + after[0]) / 2.0, (before[1] + after[1]) / 2.0)
        self.factor = speed_factor(before, after, memory_share)

    @property
    def seconds(self) -> float:
        """Normalised pass duration: the sum of its op latencies."""
        return sum(record.seconds for record in self.records) * self.factor


def timed_passes(
    workload: Any,
    state: Any,
    *,
    seconds: float,
    min_passes: int,
    trace: Optional[Callable[[bool], Any]] = None,
    on_pass: Optional[Callable[[int], None]] = None,
    clock: Callable[[], float] = perf_counter,
) -> List[PassSample]:
    """Run passes numbered from 1 for ``seconds`` of wall time (calibration
    included), and at least ``min_passes`` of them.

    With ``trace`` set, even-numbered passes are traced and odd ones are not
    -- the two kinds interleave, so machine drift hits both alike:
    ``trace(True)`` switches the span recorder on and returns it,
    ``trace(False)`` switches it off again after the pass.
    ``on_pass(n)`` is called after the n-th pass, outside every timing.
    """
    samples: List[PassSample] = []
    deadline = clock() + seconds
    cal_before = calibrate()
    while len(samples) < min_passes or clock() < deadline:
        number = len(samples) + 1
        traced = trace is not None and number % 2 == 0
        records = run_pass(workload, state, number, trace(True) if traced else None)
        if traced:
            trace(False)
        cal_after = calibrate()
        samples.append(
            PassSample(number, traced, records, cal_before, cal_after, workload.memory_share)
        )
        cal_before = cal_after
        if on_pass is not None:
            on_pass(number)
    return samples


def end_to_end(samples: Sequence[PassSample]) -> Dict[str, Any]:
    """The latency / throughput metrics of a set of (untraced) passes."""
    latencies = [
        record.seconds * sample.factor * 1e3 for sample in samples for record in sample.records
    ]
    p50, _ = percentile(latencies, 0.5)
    p90, beyond = percentile(latencies, 0.9)
    pass_s = median([sample.seconds for sample in samples])
    ops_per_pass = len(samples[0].records)
    return {
        "ops_per_s": ops_per_pass / pass_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "timed_ops": len(latencies),
        "samples_beyond_p90": beyond,
        "passes": len(samples),
        "pass_ms": pass_s * 1e3,
    }


def per_kind_ms(samples: Sequence[PassSample]) -> Dict[str, float]:
    """Median normalised latency of every op kind."""
    by_kind: Dict[str, List[float]] = {}
    for sample in samples:
        for record in sample.records:
            by_kind.setdefault(record.kind, []).append(record.seconds * sample.factor * 1e3)
    return {kind: median(values) for kind, values in by_kind.items()}
