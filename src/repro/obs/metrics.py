"""Metric counters for the quantities the paper's cost model cares about.

The dominant cost of semiring-annotated evaluation is *annotation
arithmetic* -- one ``+``/``x`` chain per derivation (Definition 3.2) -- so
the first-class metrics here are semiring-operation counts, not just rows
and seconds:

* :class:`OpCounter` -- ``plus`` / ``times`` / ``is_zero`` call counts,
  filled in by :class:`repro.obs.semiring.InstrumentedSemiring` (globally)
  and by the observed executor (per operator);
* :data:`consing` -- hash-consing hit/miss counts of the circuit intern
  table (:mod:`repro.circuits.nodes`), gated by its own ``enabled`` flag
  because node interning is the hottest loop in the system.  Tracing
  (:mod:`repro.obs.trace`) toggles it in lockstep.

Everything is plain attribute arithmetic on ``__slots__`` objects: cheap to
update, trivially snapshotted into JSON for the benchmark reports.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["OpCounter", "ConsingStats", "consing", "CompileStats", "compilation"]


class OpCounter:
    """Counts of the three semiring operations that dominate evaluation cost.

    ``plus`` counts ``add`` calls (union / projection / accumulation),
    ``times`` counts ``mul`` calls (join / selection), ``is_zero`` counts
    support checks (the stored-zero invariant of Definition 3.1).
    """

    __slots__ = ("plus", "times", "is_zero")

    def __init__(self, plus: int = 0, times: int = 0, is_zero: int = 0):
        self.plus = plus
        self.times = times
        self.is_zero = is_zero

    def reset(self) -> None:
        self.plus = self.times = self.is_zero = 0

    def snapshot(self) -> Dict[str, int]:
        """A frozen dict of the current counts (JSON-friendly)."""
        return {"plus": self.plus, "times": self.times, "is_zero": self.is_zero}

    def delta(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counts accumulated since an earlier :meth:`snapshot`."""
        return {
            "plus": self.plus - earlier["plus"],
            "times": self.times - earlier["times"],
            "is_zero": self.is_zero - earlier["is_zero"],
        }

    @property
    def total(self) -> int:
        return self.plus + self.times + self.is_zero

    def __repr__(self) -> str:
        return f"<OpCounter plus={self.plus} times={self.times} is_zero={self.is_zero}>"


class ConsingStats:
    """Hit/miss counts of the circuit hash-consing intern table.

    ``enabled`` gates the counting -- the intern table sits inside every
    circuit ``+``/``x``, so the counters must cost nothing when nobody is
    looking.  A *hit* means a structurally identical node already existed
    (the sharing that keeps circuits polynomially small); the hit rate is
    the fraction of constructions the DAG representation deduplicated.
    """

    __slots__ = ("enabled", "hits", "misses")

    def __init__(self) -> None:
        self.enabled = False
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of node constructions served from the intern table."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}

    def __repr__(self) -> str:
        return (
            f"<ConsingStats hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.3f} enabled={self.enabled}>"
        )


class CompileStats:
    """Counters for knowledge compilation (:mod:`repro.circuits.compile`).

    Compilation is the potentially-exponential step of the inference stack,
    so its cost is first-class: ``batches`` counts
    :meth:`~repro.circuits.compile.CircuitCompiler.compile_many` calls (a
    one-circuit ``compile`` is a batch of one) and ``compiles`` the roots
    they compiled -- one per answer tuple, however the tuples were batched;
    ``cache_hits``/``cache_misses`` count one lookup per root in the
    compiled-diagram memo plus one per non-terminal apply step in the apply
    memo (a hit means that root, or that combination of two diagrams, had
    already been compiled -- the sharing that keeps the diagram polynomial
    when one exists);
    ``input_nodes``/``output_nodes`` accumulate, per batch, the size of the
    multi-rooted DAG before and after (a node shared between the roots of a
    batch counts once), so ``output_nodes / batches`` is the mean compiled
    size of a relation.  Unlike the consing counters these are always on:
    they move once per batch, never inside per-tuple loops, and a batch
    that repeats the roots of one its compiler has counted, in the same
    order, adds the counts it recorded then instead of walking again.
    """

    __slots__ = (
        "batches",
        "compiles",
        "cache_hits",
        "cache_misses",
        "input_nodes",
        "output_nodes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.batches = 0
        self.compiles = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.input_nodes = 0
        self.output_nodes = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of root and apply-step lookups served from the memos."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "batches": self.batches,
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "input_nodes": self.input_nodes,
            "output_nodes": self.output_nodes,
            "hit_rate": self.hit_rate,
        }

    def delta(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Counts accumulated since an earlier :meth:`snapshot`."""
        current = self.snapshot()
        out = {key: current[key] - earlier[key] for key in current if key != "hit_rate"}
        lookups = out["cache_hits"] + out["cache_misses"]
        out["hit_rate"] = out["cache_hits"] / lookups if lookups else 0.0
        return out

    def __repr__(self) -> str:
        return (
            f"<CompileStats batches={self.batches} compiles={self.compiles} "
            f"cache_hits={self.cache_hits} "
            f"cache_misses={self.cache_misses} output_nodes={self.output_nodes}>"
        )


#: The process-wide hash-consing counters (see :mod:`repro.circuits.nodes`).
consing = ConsingStats()

#: The process-wide knowledge-compilation counters (see
#: :mod:`repro.circuits.compile`).
compilation = CompileStats()
