"""Differential tests: the instrumented wrapper is annotation-identical.

``InstrumentedSemiring`` must be a perfect impostor -- every result equal to
the delegate's, every structural flag mirrored -- with the single addition
that ``add``/``mul``/``is_zero`` bump an :class:`OpCounter`.  These tests
run the wrapper against every shipped semiring (the ``any_semiring``
fixture spans N, B, N∞, Tropical, Fuzzy, Viterbi, PosBool, Why, Witness,
N[X], N∞[X], Z and Z[X]) plus provenance circuits, element-wise over the
law-checking sample pools and end-to-end over the paper's running example.
"""

from tests.conftest import sample_elements
from repro.circuits import CircuitSemiring
from repro.obs import InstrumentedSemiring, OpCounter, instrument
from repro.semirings import IntegerRing, NaturalsSemiring
from repro.workloads.paper_instances import section2_database, section2_query

STRUCTURAL_FLAGS = [
    "name",
    "idempotent_add",
    "selective_add",
    "idempotent_mul",
    "is_omega_continuous",
    "is_distributive_lattice",
    "has_top",
    "naturally_ordered",
    "has_negation",
]


class TestElementwiseDifferential:
    def test_add_mul_match_delegate(self, any_semiring):
        wrapped = instrument(any_semiring)
        pool = sample_elements(any_semiring)
        for a in pool:
            for b in pool:
                assert wrapped.add(a, b) == any_semiring.add(a, b)
                assert wrapped.mul(a, b) == any_semiring.mul(a, b)

    def test_is_zero_is_one_match_delegate(self, any_semiring):
        wrapped = instrument(any_semiring)
        for a in sample_elements(any_semiring):
            assert wrapped.is_zero(a) == any_semiring.is_zero(a)
            assert wrapped.is_one(a) == any_semiring.is_one(a)

    def test_constants_match_delegate(self, any_semiring):
        wrapped = instrument(any_semiring)
        assert wrapped.zero() == any_semiring.zero()
        assert wrapped.one() == any_semiring.one()
        assert wrapped.from_int(3) == any_semiring.from_int(3)

    def test_structural_flags_mirrored(self, any_semiring):
        wrapped = instrument(any_semiring)
        for flag in STRUCTURAL_FLAGS:
            assert getattr(wrapped, flag) == getattr(any_semiring, flag), flag

    def test_may_attain_routes_to_delegate_uncounted(self, any_semiring):
        wrapped = instrument(any_semiring)
        pool = [any_semiring.coerce(a) for a in sample_elements(any_semiring)]
        for total in pool:
            for contribution in pool:
                assert wrapped.may_attain(total, contribution) == any_semiring.may_attain(
                    total, contribution
                )
        assert wrapped.ops.total == 0

    def test_sum_product_match_delegate(self, any_semiring):
        wrapped = instrument(any_semiring)
        pool = sample_elements(any_semiring)
        assert wrapped.sum(pool) == any_semiring.sum(pool)
        assert wrapped.product(pool[:3]) == any_semiring.product(pool[:3])


class TestCircuits:
    def test_circuit_ops_match_delegate(self):
        delegate = CircuitSemiring()
        wrapped = instrument(delegate)
        p, r = delegate.coerce("p"), delegate.coerce("r")
        # Hash-consing makes structural equality identity equality, so the
        # wrapper must return the *same interned node* as the delegate.
        assert wrapped.add(p, r) is delegate.add(p, r)
        assert wrapped.mul(p, r) is delegate.mul(p, r)
        assert wrapped.is_zero(p) == delegate.is_zero(p)
        assert wrapped.ops.times == 1 and wrapped.ops.plus == 1


class TestCounting:
    def test_counts_every_hot_call(self):
        semiring = NaturalsSemiring()
        wrapped = instrument(semiring)
        wrapped.add(1, 2)
        wrapped.add(2, 3)
        wrapped.mul(2, 3)
        wrapped.is_zero(0)
        assert wrapped.ops.snapshot() == {"plus": 2, "times": 1, "is_zero": 1}
        assert wrapped.ops.total == 4

    def test_sum_counts_per_element(self):
        wrapped = instrument(NaturalsSemiring())
        wrapped.sum([1, 2, 3])
        # The base fold starts from zero(): one add per element.
        assert wrapped.ops.plus == 3

    def test_subtract_routes_through_counted_add(self):
        wrapped = instrument(IntegerRing())
        assert wrapped.subtract(5, 3) == 2
        assert wrapped.ops.plus == 1

    def test_shared_counter(self):
        ops = OpCounter()
        first = instrument(NaturalsSemiring(), ops)
        second = instrument(IntegerRing(), ops)
        first.add(1, 1)
        second.mul(2, 2)
        assert ops.plus == 1 and ops.times == 1

    def test_counter_reset_and_delta(self):
        ops = OpCounter()
        wrapped = instrument(NaturalsSemiring(), ops)
        wrapped.add(1, 1)
        before = ops.snapshot()
        wrapped.add(1, 1)
        wrapped.mul(1, 1)
        assert ops.delta(before) == {"plus": 1, "times": 1, "is_zero": 0}
        ops.reset()
        assert ops.total == 0

    def test_rewrapping_unwraps(self):
        inner = instrument(NaturalsSemiring())
        outer = InstrumentedSemiring(inner)
        assert outer.delegate is inner.delegate
        outer.add(1, 1)
        assert inner.ops.plus == 0  # not double-counted


class TestEndToEnd:
    def test_paper_example_annotations_identical(self, any_semiring):
        query = section2_query()
        plain = query.evaluate(section2_database(any_semiring))
        wrapped = instrument(any_semiring)
        instrumented = query.evaluate(section2_database(wrapped))
        assert plain.equal_to(instrumented)
        assert wrapped.ops.total > 0  # evaluation actually went through it

    def test_paper_example_over_circuits(self):
        query = section2_query()
        delegate = CircuitSemiring()
        plain = query.evaluate(section2_database(delegate))
        instrumented = query.evaluate(section2_database(instrument(delegate)))
        assert plain.equal_to(instrumented)

    def test_pipelined_engine_accepts_instrumented_database(self, any_semiring):
        query = section2_query()
        plain = query.evaluate(section2_database(any_semiring), optimize=True)
        instrumented = query.evaluate(
            section2_database(instrument(any_semiring)), optimize=True
        )
        assert plain.equal_to(instrumented)
