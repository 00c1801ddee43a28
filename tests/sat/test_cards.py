"""Unit and exhaustive tests for the cardinality-constraint encodings."""

import itertools
import math

import pytest

from repro.errors import CnfError
from repro.sat.cards import (
    CardinalityEncoding,
    _binomial_undercuts_tree,
    _pairwise,
    _totalizer,
    _totalizer_size,
    at_least_k,
    at_most_k,
    at_most_k_weighted,
    at_most_one,
    count_true,
    exactly_k,
    exactly_one,
    weighted_sum_true,
)
from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver

ALL_ENCODINGS = list(CardinalityEncoding)


def _count_satisfying_patterns(cnf: Cnf, literals: list[int]) -> int:
    """Count input patterns over ``literals`` consistent with ``cnf``."""
    count = 0
    for bits in itertools.product([False, True], repeat=len(literals)):
        solver = CdclSolver()
        solver.add_cnf(cnf)
        assumptions = [lit if value else -lit for lit, value in zip(literals, bits)]
        if solver.solve(assumptions).is_sat:
            count += 1
    return count


class TestEncodingSelection:
    def test_from_name_accepts_enum_and_string(self):
        assert CardinalityEncoding.from_name("totalizer") is CardinalityEncoding.TOTALIZER
        assert (
            CardinalityEncoding.from_name(CardinalityEncoding.PAIRWISE)
            is CardinalityEncoding.PAIRWISE
        )

    def test_from_name_rejects_unknown(self):
        with pytest.raises(CnfError):
            CardinalityEncoding.from_name("bitonic")


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (5, 4)])
class TestAtMostKExhaustive:
    def test_counts_match_binomial_sum(self, encoding, n, k):
        cnf = Cnf()
        literals = cnf.new_variables(n)
        at_most_k(cnf, literals, k, encoding=encoding)
        expected = sum(math.comb(n, i) for i in range(k + 1))
        assert _count_satisfying_patterns(cnf, literals) == expected


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
class TestAtMostKEdgeCases:
    def test_bound_zero_forces_all_false(self, encoding):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_most_k(cnf, literals, 0, encoding=encoding)
        solver = CdclSolver(cnf)
        assert solver.solve([literals[0]]).is_unsat
        assert solver.solve([-l for l in literals]).is_sat

    def test_bound_at_least_n_is_trivial(self, encoding):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_most_k(cnf, literals, 3, encoding=encoding)
        assert cnf.num_clauses == 0

    def test_negative_bound_is_unsatisfiable(self, encoding):
        cnf = Cnf()
        literals = cnf.new_variables(2)
        at_most_k(cnf, literals, -1, encoding=encoding)
        assert CdclSolver(cnf).solve().is_unsat

    def test_works_on_negated_literals(self, encoding):
        cnf = Cnf()
        variables = cnf.new_variables(4)
        at_most_k(cnf, [-v for v in variables], 1, encoding=encoding)
        solver = CdclSolver(cnf)
        # Three variables false means two negated literals true: forbidden.
        assert solver.solve([-variables[0], -variables[1], variables[2], variables[3]]).is_unsat
        assert solver.solve([variables[0], variables[1], variables[2], -variables[3]]).is_sat


class TestAtLeastAndExactly:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_at_least_k_counts(self, n, k):
        cnf = Cnf()
        literals = cnf.new_variables(n)
        at_least_k(cnf, literals, k)
        expected = sum(math.comb(n, i) for i in range(k, n + 1))
        assert _count_satisfying_patterns(cnf, literals) == expected

    def test_at_least_zero_is_trivial(self):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_least_k(cnf, literals, 0)
        assert cnf.num_clauses == 0

    def test_at_least_more_than_n_is_unsat(self):
        cnf = Cnf()
        literals = cnf.new_variables(2)
        at_least_k(cnf, literals, 3)
        assert CdclSolver(cnf).solve().is_unsat

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_exactly_k_counts(self, encoding):
        n, k = 5, 2
        cnf = Cnf()
        literals = cnf.new_variables(n)
        exactly_k(cnf, literals, k, encoding=encoding)
        assert _count_satisfying_patterns(cnf, literals) == math.comb(n, k)

    def test_exactly_one(self):
        cnf = Cnf()
        literals = cnf.new_variables(4)
        exactly_one(cnf, literals)
        assert _count_satisfying_patterns(cnf, literals) == 4

    def test_exactly_one_empty_raises(self):
        with pytest.raises(CnfError):
            exactly_one(Cnf(), [])

    def test_at_most_one(self):
        cnf = Cnf()
        literals = cnf.new_variables(4)
        at_most_one(cnf, literals)
        assert _count_satisfying_patterns(cnf, literals) == 5


def _emitted(encoding, count, bound):
    """(literal stream, clauses, auxiliaries) of one constraint over 1..count."""
    cnf = Cnf()
    literals = cnf.new_variables(count)
    if callable(encoding):
        encoding(cnf, literals, bound)
    else:
        at_most_k(cnf, literals, bound, encoding=encoding)
    return list(cnf.literals), cnf.num_clauses, cnf.num_variables - count


class TestTotalizerTakesTheSmallerSide:
    """``totalizer`` emits the binomial clauses where they are no more
    than its tree's clauses plus registers, and the tree elsewhere."""

    @pytest.mark.parametrize(
        ("case", "count", "bound", "clauses", "registers"),
        [
            # Binomial side: C(n, P+1) clauses, no registers.
            ("fig2 p3", 6, 3, 15, 0),
            ("and9 p4", 8, 4, 56, 0),
            ("hadamard p5", 8, 5, 28, 0),
            ("single-move bound, n=8", 8, 1, 28, 0),
            # Tree side.
            ("and9 p2", 8, 2, 36, 17),
            ("edwards-add p11", 20, 11, 243, 80),
            ("kummer-double p16", 32, 16, 537, 145),
            ("single-move bound, n=20", 20, 1, 76, 38),
        ],
    )
    def test_each_side_of_the_rule(self, case, count, bound, clauses, registers):
        stream, emitted, auxiliaries = _emitted(CardinalityEncoding.TOTALIZER, count, bound)
        assert (emitted, auxiliaries) == (clauses, registers), case
        side = _pairwise if registers == 0 else _totalizer
        assert stream == _emitted(side, count, bound)[0], case
        assert _binomial_undercuts_tree(count, bound) is (registers == 0), case

    def test_the_rule_compares_binomial_clauses_with_the_built_tree(self):
        for count in range(2, 41):
            for bound in range(1, count):
                _, clauses, registers = _emitted(_totalizer, count, bound)
                assert _totalizer_size(count, bound) == (clauses - 1, registers)
                assert _binomial_undercuts_tree(count, bound) is (
                    math.comb(count, bound + 1) <= clauses + registers
                ), (count, bound)

    def test_sequential_and_pairwise_keep_their_encodings(self):
        assert _emitted(CardinalityEncoding.SEQUENTIAL, 20, 11)[2] == 20 * 11
        assert _emitted(CardinalityEncoding.PAIRWISE, 20, 11)[1] == math.comb(20, 12)

    @pytest.mark.parametrize("count", range(2, 7))
    def test_the_tree_itself_is_exact(self, count):
        # at_most_k no longer builds the tree over so few literals, so
        # check the tree on its own: every pattern over the inputs.
        literals = list(range(1, count + 1))
        for bound in range(1, count):
            cnf = Cnf()
            cnf.new_variables(count)
            _totalizer(cnf, literals, bound)
            for bits in itertools.product([False, True], repeat=count):
                solver = CdclSolver()
                solver.add_cnf(cnf)
                assumptions = [
                    literal if value else -literal
                    for literal, value in zip(literals, bits)
                ]
                assert solver.solve(assumptions).is_sat is (sum(bits) <= bound)


class TestPairwiseGuard:
    def test_explosion_is_rejected(self):
        cnf = Cnf()
        literals = cnf.new_variables(60)
        with pytest.raises(CnfError):
            at_most_k(cnf, literals, 30, encoding=CardinalityEncoding.PAIRWISE)


class TestCountTrue:
    def test_counts_positive_and_negative_literals(self):
        model = {1: True, 2: False, 3: True}
        assert count_true(model, [1, 2, 3]) == 2
        assert count_true(model, [-1, -2, -3]) == 1
        assert count_true(model, []) == 0

    def test_missing_variables_count_as_false(self):
        assert count_true({}, [5, -5]) == 1


class TestCrossEncodingEquivalence:
    """Exhaustive semantic equivalence of the three at-most-k encodings.

    For every n <= 5, every bound k <= n and *every* assignment of the n
    input literals, each encoding (with its auxiliary variables projected
    away by the SAT solver) must accept the assignment iff at most k inputs
    are true — so pairwise, sequential and totalizer are pointwise
    interchangeable, not just equisatisfiable.
    """

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_exhaustive_on_all_assignments(self, encoding):
        for count in range(1, 6):
            literals = list(range(1, count + 1))
            for bound in range(0, count + 1):
                cnf = Cnf()
                cnf.new_variables(count)
                at_most_k(cnf, literals, bound, encoding=encoding)
                for bits in itertools.product([False, True], repeat=count):
                    solver = CdclSolver()
                    solver.add_cnf(cnf)
                    assumptions = [
                        literal if value else -literal
                        for literal, value in zip(literals, bits)
                    ]
                    expected = sum(bits) <= bound
                    assert solver.solve(assumptions).is_sat is expected, (
                        encoding, count, bound, bits,
                    )

    def test_encodings_agree_on_negated_literals(self):
        # The constraint must also work over negative DIMACS literals.
        literals = [1, -2, 3, -4]
        patterns = {}
        for encoding in ALL_ENCODINGS:
            cnf = Cnf()
            cnf.new_variables(4)
            at_most_k(cnf, literals, 2, encoding=encoding)
            patterns[encoding] = _count_satisfying_patterns(cnf, [1, 2, 3, 4])
        assert len(set(patterns.values())) == 1
        assert patterns[CardinalityEncoding.PAIRWISE] == sum(
            1
            for bits in itertools.product([False, True], repeat=4)
            if sum(bits[i] == (literals[i] > 0) for i in range(4)) <= 2
        )


class TestAuxiliaryNaming:
    @pytest.mark.parametrize(
        "encoding",
        [CardinalityEncoding.SEQUENTIAL, CardinalityEncoding.TOTALIZER],
    )
    def test_name_prefix_names_every_auxiliary(self, encoding):
        # Ten inputs at bound 2: wide enough that the totalizer keeps its
        # tree and has registers to name.
        cnf = Cnf()
        inputs = cnf.new_variables(10, prefix="x")
        at_most_k(cnf, inputs, 2, encoding=encoding, name_prefix="card[test]")
        assert cnf.num_variables > len(inputs)
        for variable in range(1, cnf.num_variables + 1):
            name = cnf.pool.name_of(variable)
            assert name is not None
            if variable not in inputs:
                assert name.startswith("card[test].")

    def test_anonymous_by_default(self):
        cnf = Cnf()
        inputs = cnf.new_variables(4)
        at_most_k(cnf, inputs, 2, encoding=CardinalityEncoding.SEQUENTIAL)
        auxiliaries = [v for v in range(1, cnf.num_variables + 1) if v not in inputs]
        assert auxiliaries
        assert all(cnf.pool.name_of(v) is None for v in auxiliaries)


class TestAtMostKWeighted:
    """Exhaustive and structural tests of the pseudo-Boolean encoding."""

    def test_exhaustive_on_all_assignments(self):
        cases = [
            ([1, 1, 1], 2),          # degenerate: pure cardinality
            ([2, 1, 1], 2),
            ([2, 2, 2], 3),
            ([3, 1, 2], 3),
            ([1, 2, 3, 4], 5),
            ([5, 1, 1, 1], 4),       # one literal heavier than the bound
            ([2, 3, 2, 1, 2], 6),
        ]
        for weights, bound in cases:
            count = len(weights)
            literals = list(range(1, count + 1))
            cnf = Cnf()
            cnf.new_variables(count)
            at_most_k_weighted(cnf, literals, weights, bound)
            for bits in itertools.product([False, True], repeat=count):
                solver = CdclSolver()
                solver.add_cnf(cnf)
                assumptions = [
                    literal if value else -literal
                    for literal, value in zip(literals, bits)
                ]
                expected = sum(w for w, b in zip(weights, bits) if b) <= bound
                assert solver.solve(assumptions).is_sat is expected, (
                    weights, bound, bits,
                )

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_unit_weights_degenerate_to_every_encoding(self, encoding):
        # With all weights 1 the weighted entry point must emit exactly the
        # clauses of the chosen unweighted encoding.
        for bound in (0, 1, 2, 4):
            plain = Cnf()
            literals = plain.new_variables(4)
            at_most_k(plain, literals, bound, encoding=encoding)
            weighted = Cnf()
            weighted.new_variables(4)
            at_most_k_weighted(weighted, literals, [1, 1, 1, 1], bound,
                               encoding=encoding)
            assert [c.literals for c in weighted.clauses] == [
                c.literals for c in plain.clauses
            ]

    def test_weighted_agrees_with_unweighted_duplication(self):
        # sum(w_i x_i) <= k is equivalent to at-most-k over each literal
        # repeated w_i times; compare satisfying-pattern counts.
        weights = [2, 1, 3]
        bound = 3
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_most_k_weighted(cnf, literals, weights, bound)
        expected = sum(
            1
            for bits in itertools.product([False, True], repeat=3)
            if sum(w for w, b in zip(weights, bits) if b) <= bound
        )
        assert _count_satisfying_patterns(cnf, literals) == expected

    def test_negative_bound_is_unsatisfiable(self):
        cnf = Cnf()
        literals = cnf.new_variables(2)
        at_most_k_weighted(cnf, literals, [2, 3], -1)
        assert CdclSolver(cnf).solve().is_unsat

    def test_trivially_satisfied_emits_nothing(self):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_most_k_weighted(cnf, literals, [2, 2, 2], 6)
        assert cnf.num_clauses == 0

    def test_too_heavy_literal_is_forced_false(self):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        at_most_k_weighted(cnf, literals, [7, 1, 1], 3)
        solver = CdclSolver(cnf)
        assert solver.solve([literals[0]]).is_unsat
        assert solver.solve([literals[1], literals[2]]).is_sat

    def test_works_on_negated_literals(self):
        weights = [2, 2, 1]
        literals = [1, -2, 3]
        cnf = Cnf()
        cnf.new_variables(3)
        at_most_k_weighted(cnf, literals, weights, 3)
        for bits in itertools.product([False, True], repeat=3):
            solver = CdclSolver()
            solver.add_cnf(cnf)
            assumptions = [
                var if value else -var for var, value in zip([1, 2, 3], bits)
            ]
            total = sum(
                w
                for w, lit, value in zip(weights, literals, bits)
                if value == (lit > 0)
            )
            assert solver.solve(assumptions).is_sat is (total <= 3)

    def test_rejects_mismatched_weights(self):
        cnf = Cnf()
        literals = cnf.new_variables(3)
        with pytest.raises(CnfError):
            at_most_k_weighted(cnf, literals, [1, 2], 2)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_rejects_non_positive_or_fractional_weights(self, bad):
        cnf = Cnf()
        literals = cnf.new_variables(2)
        with pytest.raises(CnfError):
            at_most_k_weighted(cnf, literals, [1, bad], 2)

    def test_integral_floats_are_accepted(self):
        cnf = Cnf()
        literals = cnf.new_variables(2)
        at_most_k_weighted(cnf, literals, [2.0, 1.0], 2)
        solver = CdclSolver(cnf)
        assert solver.solve(literals).is_unsat

    def test_name_prefix_names_every_register(self):
        cnf = Cnf()
        inputs = cnf.new_variables(4, prefix="x")
        at_most_k_weighted(cnf, inputs, [2, 1, 3, 1], 4, name_prefix="card[w]")
        auxiliaries = [
            v for v in range(1, cnf.num_variables + 1) if v not in inputs
        ]
        assert auxiliaries
        for variable in auxiliaries:
            name = cnf.pool.name_of(variable)
            assert name is not None and name.startswith("card[w].r[")


class TestWeightedSumTrue:
    def test_counts_weight_of_satisfied_literals(self):
        model = {1: True, 2: False, 3: True}
        assert weighted_sum_true(model, [1, 2, 3], [2, 4, 1]) == 3
        assert weighted_sum_true(model, [-1, -2, 3], [2, 4, 1]) == 5

    def test_missing_variables_count_as_false(self):
        assert weighted_sum_true({}, [1, -2], [3, 2]) == 2
