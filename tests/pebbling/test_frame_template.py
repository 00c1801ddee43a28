"""Stamped frames against the per-frame emitter they replace.

:class:`~repro.pebbling.encoding.PebblingEncoder` emits configuration 0
and one frame template, then stamps every frame from the template.  The
reference below is the encoder's earlier per-frame emission, kept
verbatim (the way ``test_encoding.py`` keeps ``_frozen_monolithic_cnf``):
it runs the clause emitters once per frame and names every variable
eagerly.  Both must produce the same literal stream, the same clause and
variable counts and the same name for every variable, under any sequence
of ``extend_to`` and ``final_guard`` calls.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.generators import layered_random_dag, random_binary_dag
from repro.errors import CnfError, PebblingError
from repro.pebbling import EncodingOptions, PebblingEncoder
from repro.pebbling.encoding import validated_node_weights
from repro.sat.cards import CardinalityEncoding, at_most_k, at_most_k_weighted
from repro.sat.cnf import MAX_VARIABLE, Cnf
from repro.workloads import load_workload


class _ReferenceEncoder:
    """The per-frame emission the template replaced, names built eagerly."""

    def __init__(self, dag, max_pebbles, options):
        self.dag = dag
        self.options = options
        self.max_pebbles = max_pebbles
        self._nodes = dag.topological_order()
        self._outputs = set(dag.outputs())
        self._weights = validated_node_weights(dag) if options.weighted else {}
        self._variables = {}
        self._guards = {}
        self._num_steps = 0
        cnf = self.cnf = Cnf()
        budget_kind = "weight" if options.weighted else "pebbles"
        cnf.add_comment(
            f"reversible pebbling: dag={dag.name} nodes={len(self._nodes)} "
            f"{budget_kind}={max_pebbles}"
        )
        self._add_configuration(0)
        flat = []
        for node in self._nodes:
            flat += (-self._variables[(node, 0)], 0)
        cnf.add_generated(flat)

    def _add_configuration(self, step):
        cnf = self.cnf
        for node in self._nodes:
            variable = cnf.new_variable(f"p[{node},{step}]")
            self._variables[(node, step)] = variable
        variables = [self._variables[(node, step)] for node in self._nodes]
        if self.options.weighted:
            weights = [self._weights[node] for node in self._nodes]
            if self.max_pebbles < sum(weights):
                at_most_k_weighted(
                    cnf,
                    variables,
                    weights,
                    self.max_pebbles,
                    encoding=self.options.cardinality,
                    name_prefix=f"card[p,{step}]",
                )
        elif self.max_pebbles < len(self._nodes):
            at_most_k(
                cnf,
                variables,
                self.max_pebbles,
                encoding=self.options.cardinality,
                name_prefix=f"card[p,{step}]",
            )

    def _add_transition(self, step):
        cnf = self.cnf
        variables = self._variables
        dag = self.dag
        options = self.options
        moves = options.max_moves_per_step is not None or options.forbid_idle_steps
        move_literals = []
        flat = []
        for node in self._nodes:
            now = variables[(node, step)]
            then = variables[(node, step + 1)]
            for dependency in dag.dependencies(node):
                dep_now = variables[(dependency, step)]
                dep_then = variables[(dependency, step + 1)]
                flat += (
                    -now, then, dep_now, 0,
                    now, -then, dep_now, 0,
                    -now, then, dep_then, 0,
                    now, -then, dep_then, 0,
                )
            if moves:
                move = cnf.new_variable(f"m[{node},{step}]")
                flat += (
                    -move, now, then, 0,
                    -move, -now, -then, 0,
                    move, -now, then, 0,
                    move, now, -then, 0,
                )
                move_literals.append(move)
        cnf.add_generated(flat)
        if options.max_moves_per_step is not None:
            at_most_k(
                cnf,
                move_literals,
                options.max_moves_per_step,
                encoding=options.cardinality,
                name_prefix=f"card[m,{step}]",
            )
        if options.forbid_idle_steps:
            cnf.add_generated(move_literals + [0])

    def extend_to(self, num_steps):
        while self._num_steps < num_steps:
            self._add_configuration(self._num_steps + 1)
            self._add_transition(self._num_steps)
            self._num_steps += 1

    def final_guard(self, step):
        guard = self._guards.get(step)
        if guard is None:
            guard = self.cnf.new_variable(f"final[{step}]")
            flat = []
            for node in self._nodes:
                literal = self._variables[(node, step)]
                flat += (-guard, literal if node in self._outputs else -literal, 0)
            self.cnf.add_generated(flat)
            self._guards[step] = guard
        return guard

    def assert_final(self, step):
        flat = []
        for node in self._nodes:
            literal = self._variables[(node, step)]
            flat += (literal if node in self._outputs else -literal, 0)
        self.cnf.add_generated(flat)


def _assert_same_cnf(stamped: Cnf, reference: Cnf, variables=None) -> None:
    """Same stream and counts, and the same name for ``variables`` (all)."""
    assert stamped.num_clauses == reference.num_clauses
    assert len(stamped.clauses) == reference.num_clauses
    assert stamped.num_variables == reference.num_variables
    assert stamped.literals == reference.literals
    assert stamped.comments == reference.comments
    if variables is None:
        variables = range(1, reference.num_variables + 1)
    for variable in variables:
        assert stamped.pool.name_of(variable) == reference.pool.name_of(variable)


@st.composite
def instances(draw):
    """A random DAG with a budget, encoding options and a call sequence."""
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        dag = random_binary_dag(num_nodes, seed=seed)
    else:
        outputs = draw(st.integers(min_value=1, max_value=max(1, num_nodes // 3)))
        depth = draw(st.integers(min_value=1, max_value=5))
        dag = layered_random_dag(num_nodes, outputs, depth=depth, seed=seed)
    weighted = draw(st.booleans())
    if weighted:
        for node in dag.nodes():
            dag.node(node).weight = float(draw(st.integers(min_value=1, max_value=3)))
    total = sum(int(dag.node(node).weight) for node in dag.nodes())
    budget = draw(st.integers(min_value=1, max_value=total if weighted else dag.num_nodes))
    options = EncodingOptions(
        cardinality=draw(st.sampled_from(list(CardinalityEncoding))),
        max_moves_per_step=draw(st.sampled_from([None, 1, 2])),
        forbid_idle_steps=draw(st.booleans()),
        weighted=weighted,
    )
    # ("extend", bound) grows the frames; ("guard", fraction) guards a
    # step at that fraction of the current frontier, so guard variables
    # land between frames and the two stamping offsets drift apart.
    calls = draw(st.lists(
        st.one_of(
            st.tuples(st.just("extend"), st.integers(min_value=0, max_value=6)),
            st.tuples(st.just("guard"), st.floats(min_value=0.0, max_value=1.0)),
        ),
        min_size=1,
        max_size=8,
    ))
    return dag, budget, options, calls


@given(instances())
@settings(max_examples=120, deadline=None)
def test_stamped_frames_match_the_per_frame_emitter(instance):
    dag, budget, options, calls = instance
    stamped = PebblingEncoder(dag, max_pebbles=budget, options=options)
    reference = _ReferenceEncoder(dag, budget, options)
    for call, argument in calls:
        if call == "extend":
            stamped.extend_to(argument)
            reference.extend_to(argument)
        else:
            step = int(argument * stamped.num_steps)
            assert stamped.final_guard(step) == reference.final_guard(step)
    assert stamped.num_steps == reference._num_steps
    _assert_same_cnf(stamped.cnf, reference.cnf)
    for (node, step), variable in reference._variables.items():
        assert stamped.variable(node, step) == variable


@given(instances(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_one_shot_encode_matches_the_per_frame_emitter(instance, num_steps):
    dag, budget, options, _ = instance
    encoding = PebblingEncoder(dag, options=options).encode(
        max_pebbles=budget, num_steps=num_steps
    )
    reference = _ReferenceEncoder(dag, budget, options)
    reference.extend_to(num_steps)
    reference.assert_final(num_steps)
    reference.cnf.comments[0] += f" steps={num_steps}"
    _assert_same_cnf(encoding.cnf, reference.cnf)
    assert encoding.pebble_variables == reference._variables


def test_a_frame_ending_at_the_largest_variable_stamps_exactly():
    # The lanes of a stamped frame carry no borrow into each other even
    # when its literals reach +-MAX_VARIABLE.
    dag = load_workload("fig2")
    options = EncodingOptions(max_moves_per_step=2)
    stamped = PebblingEncoder(dag, max_pebbles=3, options=options)
    reference = _ReferenceEncoder(dag, 3, options)
    stamped.extend_to(1)
    reference.extend_to(1)
    frame = stamped.cnf.num_variables - stamped.variable("A", 1) + 1
    for encoder in (stamped, reference):
        encoder.cnf.pool.reserve_through(MAX_VARIABLE - frame)
        encoder.extend_to(2)
    assert max(map(abs, stamped.cnf.literals)) == MAX_VARIABLE
    assert min(stamped.cnf.literals) < -(MAX_VARIABLE - frame)
    mentioned = set(map(abs, stamped.cnf.literals)) - {0}
    _assert_same_cnf(stamped.cnf, reference.cnf, sorted(mentioned))


def test_a_frame_past_the_largest_variable_is_refused_before_stamping():
    encoder = PebblingEncoder(load_workload("fig2"), max_pebbles=3)
    encoder.extend_to(1)
    encoder.cnf.pool.reserve_through(MAX_VARIABLE - 5)
    before = array("i", encoder.cnf.literals)
    with pytest.raises(CnfError):
        encoder.extend_to(2)
    assert encoder.cnf.literals == before
    assert encoder.num_steps == 1
    assert encoder.cnf.num_variables == MAX_VARIABLE - 5


def _plant(monkeypatch, stray):
    """Make frame 1's emitter add the unit clause ``stray(cnf, before)``."""
    emit = PebblingEncoder._emit_transition

    def stray_emit(self, cnf, step, before, after):
        emit(self, cnf, step, before, after)
        cnf.add_generated([stray(cnf, before), 0])

    monkeypatch.setattr(PebblingEncoder, "_emit_transition", stray_emit)


def test_template_refuses_a_literal_outside_its_two_blocks(monkeypatch):
    # Frame 1 may mention configuration 0's pebbles and its own block,
    # and nothing else: here the first variable past that block.
    _plant(monkeypatch, lambda cnf, before: cnf.num_variables + 1)
    encoder = PebblingEncoder(load_workload("fig2"), max_pebbles=3)
    with pytest.raises(PebblingError, match="outside"):
        encoder.extend_to(1)


def test_template_refuses_a_register_of_configuration_0(monkeypatch):
    # The sequential counter gives configuration 0 registers right after
    # its pebbles.  (The default totalizer takes the binomial clauses on
    # fig2 at 3 pebbles, so ``before + n`` would be frame 1's first
    # pebble.)
    dag = load_workload("fig2")
    _plant(monkeypatch, lambda cnf, before: before + dag.num_nodes)
    options = EncodingOptions(cardinality=CardinalityEncoding.SEQUENTIAL)
    encoder = PebblingEncoder(dag, max_pebbles=3, options=options)
    with pytest.raises(PebblingError, match="outside"):
        encoder.extend_to(1)
