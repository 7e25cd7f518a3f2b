"""S8: observability overhead -- tracing off must cost <= 5%.

The engine is permanently instrumented (span gates in ``execute``, an
``observer`` slot per physical operator, an ``enabled`` check per kernel
call), so the question this benchmark answers is: what do those dormant
hooks cost?  It times the ordinary tracing-off execution path against a
*bare* drain of the same compiled plan -- ``compile_query`` + the pipeline
breaker with no span bookkeeping around it -- on a two-hop instance (N, 4000
edges).  ``execute`` would hand an N plan to the whole-column kernels, so
the measurement takes N's vector arithmetic away: the kernels decline and
both sides run the row pipeline.  Runs are interleaved and the minimum of
fifteen repetitions is compared, which cancels cache and scheduler noise;
the acceptance bar is a ratio <= 1.05.  The spread printed beside it (each
side's median over its minimum) says how far one slow repetition can move
a side: on a two-core box seven repetitions were too few, and the minimum
itself swung by several per cent from run to run.  Wall-clock ratios flake
on loaded shared machines, so the budget is hard-asserted only under
``REPRO_BENCH_STRICT=1`` and degrades to a loud warning everywhere else.

The tracing-*on* ratio is also measured (in-memory sink attached) and
reported for information -- enabled tracing is allowed to cost more; only
the disabled fast path has a budget.

Runs standalone, printing its ratios:
``REPRO_BENCH_STRICT=1 PYTHONPATH=src python benchmarks/bench_obs_overhead.py``,
or under pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py``.
"""

import os
import time
from unittest import mock

from repro.algebra.ast import Q
from repro.engine import vectorized
from repro.engine.compile import compile_query, drain, execute
from repro.obs import tracing
from repro.relations.database import Database
from repro.semirings import NaturalsSemiring
from repro.workloads import random_relation

EDGES, DOMAIN = 4000, 120
SEED = 13
REPETITIONS = 15
BUDGET = 1.05  # <= 5% tracing-off overhead


def _database():
    semiring = NaturalsSemiring()
    database = Database(semiring)
    database.register(
        "E",
        random_relation(
            semiring, ["a", "b"], num_tuples=EDGES, domain_size=DOMAIN, seed=SEED
        ),
    )
    return database


def _query():
    return (
        Q.relation("E")
        .join(Q.relation("E").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _measure():
    database = _database()
    plan = _query().optimized(database)

    def bare():
        # The minimal path: compile + breaker, no span gates around them.
        drain(compile_query(plan, database), database)

    def instrumented_off():
        # The ordinary path: execute() with tracing disabled (the fast path
        # every normal caller takes).
        execute(plan, database)

    def instrumented_on():
        with tracing():
            execute(plan, database)

    bare_times, off_times, on_times = [], [], []
    with mock.patch.object(vectorized, "vector_ops_for", lambda semiring: None):
        for repetition in range(REPETITIONS):
            # Interleave so drift (thermal, allocator growth) hits all three,
            # and alternate the bare/off order so neither side systematically
            # runs in the (slightly favored) first slot of a pair.
            if repetition % 2 == 0:
                bare_times.append(_timed(bare))
                off_times.append(_timed(instrumented_off))
            else:
                off_times.append(_timed(instrumented_off))
                bare_times.append(_timed(bare))
            on_times.append(_timed(instrumented_on))

    bare_best, off_best, on_best = min(bare_times), min(off_times), min(on_times)
    return {
        "spread": {
            side: sorted(times)[len(times) // 2] / max(min(times), 1e-9) - 1
            for side, times in (("bare", bare_times), ("off", off_times), ("on", on_times))
        },
        "tag": f"two-hop reachability (N, edges={EDGES}, domain={DOMAIN})",
        "bare_time": bare_best,
        "tracing_off_time": off_best,
        "tracing_on_time": on_best,
        "tracing_off_ratio": off_best / max(bare_best, 1e-9),
        "tracing_on_ratio": on_best / max(bare_best, 1e-9),
        "repetitions": REPETITIONS,
    }


def _lines(record):
    return [
        f"{record['tag']} (min of {record['repetitions']} interleaved runs)",
        f"  bare compile+drain   {record['bare_time'] * 1e3:8.1f} ms",
        f"  tracing off          {record['tracing_off_time'] * 1e3:8.1f} ms"
        f"  ({(record['tracing_off_ratio'] - 1) * 100:+.1f}%, budget +5%)",
        f"  tracing on           {record['tracing_on_time'] * 1e3:8.1f} ms"
        f"  ({(record['tracing_on_ratio'] - 1) * 100:+.1f}%, informative)",
        "  spread (median over min)  "
        + "  ".join(f"{side} {value * 100:+.1f}%" for side, value in record["spread"].items()),
    ]


def _check_budget(ratio):
    message = (
        f"tracing-off overhead {(ratio - 1) * 100:+.1f}% exceeds the "
        f"{(BUDGET - 1) * 100:.0f}% budget"
    )
    if ratio <= BUDGET:
        return
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        raise AssertionError(message)
    print(f"WARNING [REPRO_BENCH_STRICT off, not failing]: {message}")


def test_tracing_off_overhead_within_budget():
    record = _measure()
    print("\n".join(_lines(record)))
    _check_budget(record["tracing_off_ratio"])


if __name__ == "__main__":
    test_tracing_off_overhead_within_budget()
