"""Unit tests for CNF containers (Clause, VariablePool, Cnf)."""

from array import array

import pytest

from repro.errors import CnfError
from repro.pebbling import ReversiblePebblingSolver
from repro.sat.backend import DEFAULT_BACKEND, resolve_backend
from repro.sat.cards import at_most_k
from repro.sat.cnf import (
    MAX_VARIABLE,
    Clause,
    Cnf,
    VariablePool,
    clauses_from_lists,
    split_clauses,
)
from repro.workloads import load_workload


class TestClause:
    def test_deduplicates_literals(self):
        clause = Clause([1, 2, 1, 2])
        assert sorted(clause.literals) == [1, 2]

    def test_tautology_detection(self):
        assert Clause([1, -1]).is_tautology()
        assert not Clause([1, 2]).is_tautology()

    def test_empty_clause(self):
        assert Clause([]).is_empty()
        assert not Clause([3]).is_empty()

    def test_variables(self):
        assert Clause([1, -2, 3]).variables() == {1, 2, 3}

    def test_contains_and_len(self):
        clause = Clause([4, -5])
        assert 4 in clause and -5 in clause and 5 not in clause
        assert len(clause) == 2

    def test_evaluate_true_and_false(self):
        clause = Clause([1, -2])
        assert clause.evaluate({1: True, 2: True}) is True
        assert clause.evaluate({1: False, 2: False}) is True
        assert clause.evaluate({1: False, 2: True}) is False

    def test_evaluate_missing_variable_raises(self):
        with pytest.raises(CnfError):
            Clause([1, 2]).evaluate({1: False})

    def test_rejects_zero_literal(self):
        with pytest.raises(CnfError):
            Clause([0])


class TestVariablePool:
    def test_allocates_consecutive_variables(self):
        pool = VariablePool()
        assert [pool.new() for _ in range(4)] == [1, 2, 3, 4]
        assert pool.num_variables == 4

    def test_first_variable_offset(self):
        pool = VariablePool(first_variable=10)
        assert pool.new() == 10

    def test_rejects_bad_first_variable(self):
        with pytest.raises(CnfError):
            VariablePool(first_variable=0)

    def test_names_round_trip(self):
        pool = VariablePool()
        variable = pool.new("p[A,0]")
        assert pool.name_of(variable) == "p[A,0]"
        assert pool.by_name("p[A,0]") == variable

    def test_duplicate_name_rejected(self):
        pool = VariablePool()
        pool.new("x")
        with pytest.raises(CnfError):
            pool.set_name(pool.new(), "x")

    def test_unknown_name_raises(self):
        with pytest.raises(CnfError):
            VariablePool().by_name("nope")

    def test_new_many_with_prefix(self):
        pool = VariablePool()
        variables = pool.new_many(3, prefix="q")
        assert variables == [1, 2, 3]
        assert pool.name_of(2) == "q[1]"

    def test_new_many_negative_count(self):
        with pytest.raises(CnfError):
            VariablePool().new_many(-1)

    def test_reserve_through(self):
        pool = VariablePool()
        pool.reserve_through(7)
        assert pool.new() == 8

    def test_reserve_through_past_the_largest_variable_is_refused(self):
        pool = VariablePool()
        pool.reserve_through(MAX_VARIABLE)
        assert pool.num_variables == MAX_VARIABLE
        with pytest.raises(CnfError, match="32-bit"):
            VariablePool().reserve_through(MAX_VARIABLE + 1)


class TestVariableBlocks:
    """Blocks of variables whose names are built when asked for."""

    @staticmethod
    def _named_block(pool, count, prefix="b"):
        calls = []

        def namer(offset):
            calls.append(offset)
            return f"{prefix}[{offset}]"

        return pool.new_block(count, namer), calls

    def test_block_is_consecutive_and_anonymous_by_default(self):
        pool = VariablePool()
        pool.new("x")
        assert pool.new_block(3) == 2
        assert pool.new() == 5
        assert pool.name_of(3) is None

    def test_name_of_builds_one_name_on_demand(self):
        pool = VariablePool()
        first, calls = self._named_block(pool, 1000)
        assert calls == []
        assert pool.name_of(first + 7) == "b[7]"
        assert calls == [7]
        assert pool.name_of(first + 1000) is None

    def test_by_name_builds_pending_names(self):
        pool = VariablePool()
        pool.new("x")
        first, _ = self._named_block(pool, 4)
        second, _ = self._named_block(pool, 2, prefix="c")
        assert pool.by_name("b[3]") == first + 3
        assert pool.by_name("c[1]") == second + 1
        assert pool.by_name("x") == 1
        assert pool.name_of(second) == "c[0]"

    def test_copy_keeps_pending_names(self):
        cnf = Cnf()
        cnf.new_variable("a")
        first = cnf.new_block(3, lambda offset: f"r[{offset}]")
        cnf.add_clause([1, -(first + 2)])
        other = cnf.copy()
        assert other.num_variables == cnf.num_variables == 4
        assert [other.pool.name_of(v) for v in range(1, 5)] == [
            "a", "r[0]", "r[1]", "r[2]"
        ]
        assert other.pool.by_name("r[2]") == first + 2
        other.new_block(1, lambda offset: "late")
        assert cnf.pool.name_of(5) is None

    def test_block_name_clashing_with_an_eager_name_raises(self):
        pool = VariablePool()
        pool.new("b[1]")
        self._named_block(pool, 3)
        with pytest.raises(CnfError, match="already used"):
            pool.by_name("b[0]")
        with pytest.raises(CnfError, match="already used"):
            pool.set_name(pool.new(), "fresh")

    def test_eager_name_clashing_with_a_block_name_raises(self):
        pool = VariablePool()
        self._named_block(pool, 3)
        with pytest.raises(CnfError, match="already used"):
            pool.new("b[2]")

    def test_two_blocks_with_one_name_raise(self):
        pool = VariablePool()
        self._named_block(pool, 2)
        self._named_block(pool, 2)
        with pytest.raises(CnfError, match="already used"):
            pool.by_name("b[0]")

    def test_negative_block_rejected(self):
        with pytest.raises(CnfError):
            VariablePool().new_block(-1)

    def test_block_up_to_the_largest_variable_fits(self):
        pool = VariablePool(first_variable=MAX_VARIABLE - 2)
        assert pool.new_block(3) == MAX_VARIABLE - 2
        assert pool.num_variables == MAX_VARIABLE
        with pytest.raises(CnfError):
            pool.new()

    def test_block_past_the_largest_variable_is_refused(self):
        pool = VariablePool(first_variable=MAX_VARIABLE - 2)
        with pytest.raises(CnfError, match="32-bit"):
            pool.new_block(4)
        assert pool.num_variables == MAX_VARIABLE - 3  # nothing allocated

    def test_counter_past_the_largest_variable_writes_no_literal(self):
        # The sequential counter's registers would wrap past int32: the
        # pool refuses their block before any clause reaches the stream.
        cnf = Cnf(VariablePool(first_variable=MAX_VARIABLE - 5))
        inputs = [cnf.new_variable() for _ in range(4)]
        with pytest.raises(CnfError):
            at_most_k(cnf, inputs, 2, name_prefix="card")
        assert len(cnf.literals) == 0
        assert cnf.num_clauses == 0

    def test_add_lanes_appends_raw_clauses(self):
        cnf = Cnf()
        cnf.new_block(3)
        cnf.add_lanes(array("i", [1, -2, 0, 3, 0]).tobytes(), 2)
        assert cnf.as_lists() == [[1, -2], [3]]
        assert len(cnf.clauses) == 2
        with pytest.raises(CnfError):
            cnf.add_lanes(array("i", [1, -2]).tobytes(), 1)
        with pytest.raises(CnfError):
            cnf.add_lanes(b"\x00\x00", 1)


class TestCnf:
    def test_add_clause_tracks_variables(self):
        cnf = Cnf()
        cnf.add_clause([1, -4])
        assert cnf.num_variables == 4
        assert cnf.num_clauses == 1

    def test_add_clauses_and_iteration(self):
        cnf = Cnf()
        cnf.add_clauses([[1, 2], [-1, 3]])
        assert len(cnf) == 2
        assert [list(clause) for clause in cnf] == [[1, 2], [-1, 3]]

    def test_add_unit_and_implication(self):
        cnf = Cnf()
        cnf.add_unit(5)
        cnf.add_implication(1, 2)
        assert cnf.as_lists() == [[5], [-1, 2]]

    def test_add_equivalence(self):
        cnf = Cnf()
        cnf.add_equivalence(1, 2)
        assert sorted(map(sorted, cnf.as_lists())) == [[-2, 1], [-1, 2]]

    def test_evaluate(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        assert cnf.evaluate({1: True, 2: True}) is True
        assert cnf.evaluate({1: True, 2: False}) is False

    def test_copy_is_independent(self):
        cnf = Cnf()
        cnf.new_variable("a")
        cnf.add_clause([1])
        other = cnf.copy()
        other.add_clause([2])
        assert cnf.num_clauses == 1
        assert other.num_clauses == 2
        assert other.pool.name_of(1) == "a"

    def test_variables_and_stats(self):
        cnf = Cnf()
        cnf.add_clause([1, -3])
        cnf.add_clause([2])
        assert cnf.variables() == {1, 2, 3}
        assert cnf.stats() == {"variables": 3, "clauses": 2, "literals": 3}

    def test_comments_recorded(self):
        cnf = Cnf()
        cnf.add_comment("hello")
        assert cnf.comments == ["hello"]


def test_clauses_from_lists():
    clauses = clauses_from_lists([[1, 2], [-3]])
    assert all(isinstance(clause, Clause) for clause in clauses)
    assert [list(clause) for clause in clauses] == [[1, 2], [-3]]


class TestClauseStream:
    """The flat int32 storage behind the public clause API."""

    @staticmethod
    def _three_clauses() -> Cnf:
        cnf = Cnf()
        cnf.add_clause([1, -2])
        cnf.add_unit(3)
        cnf.add_clause([-1, 2, -3])
        return cnf

    def test_literals_are_zero_terminated_dimacs(self):
        cnf = self._three_clauses()
        assert cnf.literals == array("i", [1, -2, 0, 3, 0, -1, 2, -3, 0])
        assert list(split_clauses(cnf.literals)) == [[1, -2], [3], [-1, 2, -3]]

    def test_clauses_view_len_iteration_index_and_slice(self):
        cnf = self._three_clauses()
        view = cnf.clauses
        assert len(view) == 3 == cnf.num_clauses == len(cnf)
        assert [clause.literals for clause in view] == [(1, -2), (3,), (-1, 2, -3)]
        assert all(isinstance(clause, Clause) for clause in view)
        assert view[0] == Clause([1, -2])
        assert view[2] == Clause([-1, 2, -3])
        assert view[-1] == view[2]
        assert view[1:] == [Clause([3]), Clause([-1, 2, -3])]
        assert view[::2] == [Clause([1, -2]), Clause([-1, 2, -3])]
        assert view[3:] == []
        assert view == list(view)
        assert Clause([3]) in view
        with pytest.raises(IndexError):
            view[3]

    def test_view_is_live_and_indexes_clauses_added_later(self):
        cnf = self._three_clauses()
        view = cnf.clauses
        assert view[1] == Clause([3])  # index the first clauses
        cnf.add_clause([4, 5])
        cnf.add_clause([])
        assert len(view) == 5
        assert view[3] == Clause([4, 5])
        assert view[4].is_empty()
        assert view[2:] == [Clause([-1, 2, -3]), Clause([4, 5]), Clause([])]

    def test_copy_is_independent_of_the_original_stream(self):
        cnf = self._three_clauses()
        other = cnf.copy()
        assert other.clauses == cnf.clauses
        cnf.add_clause([7])
        other.add_clause([-7])
        assert cnf.clauses[-1] == Clause([7])
        assert other.clauses[-1] == Clause([-7])
        assert other.num_clauses == cnf.num_clauses == 4
        assert other.literals[:-2] == cnf.literals[:-2]

    def test_public_add_clause_deduplicates(self):
        cnf = Cnf()
        clause = cnf.add_clause([1, 2, 1, 2])
        assert clause.literals == (1, 2)
        assert cnf.literals == array("i", [1, 2, 0])

    @pytest.mark.parametrize("bad", [0, True, 1.5, 2**31, -(2**31)])
    def test_public_add_clause_rejects_before_storing(self, bad):
        cnf = self._three_clauses()
        before = array("i", cnf.literals)
        with pytest.raises(CnfError):
            cnf.add_clause([4, bad])
        with pytest.raises(CnfError):
            cnf.add_unit(bad)
        assert cnf.literals == before
        assert cnf.num_clauses == 3

    def test_generated_runs_append_unchecked_whole_clauses(self):
        cnf = Cnf()
        cnf.new_variables(3)
        cnf.add_generated([1, -2, 0, 3, 0])
        cnf.add_generated([])
        assert cnf.num_clauses == 2
        assert cnf.as_lists() == [[1, -2], [3]]
        with pytest.raises(CnfError):
            cnf.add_generated([1, 0, 2])
        assert cnf.num_clauses == 2


@pytest.mark.parametrize(
    "engine", sorted({resolve_backend(DEFAULT_BACKEND), "cdcl:native=0"})
)
def test_live_search_builds_no_clause_objects(engine, monkeypatch):
    built = []
    original = Clause.__init__

    def counting_init(self, literals):
        built.append(1)
        original(self, literals)

    monkeypatch.setattr(Clause, "__init__", counting_init)
    solver = ReversiblePebblingSolver(load_workload("fig2"), backend=engine)
    result = solver.solve(3, max_steps=12)
    assert result.outcome.value == "step-limit"
    assert built == []
