"""Cardinality-constraint encodings.

The pebbling encoding needs, for every time step ``i``, the constraint

.. math::  \\sum_{v \\in V} p_{v,i} \\le P

i.e. an *at-most-k* constraint over the pebble variables of that step.  Z3
handles such pseudo-Boolean constraints natively; a plain CNF SAT solver
needs them compiled to clauses.  This module implements the classic
encodings and lets the pebbling encoder (and the ablation benchmark) choose
among them:

``pairwise``
    The naive binomial encoding.  No auxiliary variables, but
    :math:`\\binom{n}{k+1}` clauses — only usable for tiny ``k`` or ``n``.

``sequential``
    Sinz's sequential-counter encoding (LTSeq).  ``O(n k)`` auxiliary
    variables and clauses, supports incremental strengthening.

``totalizer``
    Bailleux–Boufkhad totalizer.  ``O(n \\log n)`` variables, ``O(n k)``
    clauses, good unit-propagation behaviour.  The default of the pebbling
    encoder (:data:`repro.pebbling.encoding.DEFAULT_CARDINALITY`): it emits
    fewer clauses per frame than the sequential counter.  Where the
    :math:`\\binom{n}{k+1}` binomial clauses are no more than the tree's
    clauses plus its registers, it emits the binomial clauses instead:
    every constraint over at most 7 literals and, wider, a bound of 1 up
    to 12 literals or a bound of ``n - 3`` and above (``n - 4`` up to 9
    literals).  The choice depends on ``(n, k)`` alone and is memoised, so
    a wide constraint pays one lookup for it.

The weighted pebbling game (Section V of the paper) needs the
pseudo-Boolean generalisation

.. math::  \\sum_{v \\in V} w_v \\, p_{v,i} \\le W

which :func:`at_most_k_weighted` compiles with a *generalised* sequential
counter whose registers count accumulated weight instead of cardinality.
With all weights equal to one it degenerates (by delegation) to the plain
:func:`at_most_k` encodings, so the weighted and unweighted pebbling
encoders emit byte-identical CNF on unit-weight DAGs.

All functions append clauses to a caller-provided :class:`~repro.sat.cnf.Cnf`
and work on DIMACS literals (so they can constrain negated variables too).
The public entry points validate the caller's literals once and reserve
their variables in the pool; the private encoders below them emit each
constraint's clauses as one zero-terminated run through
:meth:`~repro.sat.cnf.Cnf.add_generated`.  Each counter allocates all of
its registers as pool blocks (:meth:`~repro.sat.cnf.Cnf.new_block`): the
sequential counters one row-major block, the totalizer one block per tree
node.  A ``name_prefix`` names them on demand rather than one string per
register.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from repro.errors import CnfError
from repro.sat.cnf import MAX_VARIABLE, Cnf, Namer
from repro.sat.literals import check_literal


class CardinalityEncoding(Enum):
    """Which at-most-k compilation strategy to use."""

    PAIRWISE = "pairwise"
    SEQUENTIAL = "sequential"
    TOTALIZER = "totalizer"

    @classmethod
    def from_name(cls, name: "str | CardinalityEncoding") -> "CardinalityEncoding":
        """Accept either an enum member or its string value."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name)
        except ValueError as exc:
            valid = ", ".join(member.value for member in cls)
            raise CnfError(f"unknown cardinality encoding {name!r} (valid: {valid})") from exc


def _checked(cnf: Cnf, literals: Sequence[int]) -> list[int]:
    """Validate the caller's literals and reserve their variables in the pool.

    What the private encoders then emit over these literals needs no
    further check.
    """
    checked = [check_literal(literal) for literal in literals]
    top = max(map(abs, checked), default=0)
    if top > MAX_VARIABLE:
        raise CnfError(f"variable {top} does not fit a 32-bit literal")
    cnf.pool.reserve_through(top)
    return checked


def at_most_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """Add clauses stating that at most one of ``literals`` is true."""
    at_most_k(cnf, literals, 1, encoding=CardinalityEncoding.PAIRWISE)


def exactly_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """Add clauses stating that exactly one of ``literals`` is true."""
    if not literals:
        raise CnfError("exactly_one over an empty literal list is unsatisfiable")
    cnf.add_clause(list(literals))
    at_most_one(cnf, literals)


def at_least_k(cnf: Cnf, literals: Sequence[int], bound: int) -> None:
    """Add clauses stating that at least ``bound`` of ``literals`` are true.

    Encoded as *at most* ``n - bound`` of the negated literals.
    """
    literals = [check_literal(literal) for literal in literals]
    if bound <= 0:
        return
    if bound > len(literals):
        cnf.add_clause([])  # unsatisfiable
        return
    at_most_k(cnf, [-literal for literal in literals], len(literals) - bound)


def exactly_k(
    cnf: Cnf,
    literals: Sequence[int],
    bound: int,
    *,
    encoding: "str | CardinalityEncoding" = CardinalityEncoding.SEQUENTIAL,
) -> None:
    """Add clauses stating that exactly ``bound`` of ``literals`` are true."""
    at_most_k(cnf, literals, bound, encoding=encoding)
    at_least_k(cnf, literals, bound)


def at_most_k(
    cnf: Cnf,
    literals: Sequence[int],
    bound: int,
    *,
    encoding: "str | CardinalityEncoding" = CardinalityEncoding.SEQUENTIAL,
    name_prefix: str | None = None,
) -> None:
    """Add clauses stating that at most ``bound`` of ``literals`` are true.

    ``encoding`` picks the compilation.  ``totalizer`` builds the tree
    unless the :math:`\\binom{n}{k+1}` binomial clauses are no more than
    its clauses plus its registers (:func:`_binomial_undercuts_tree`); then
    it emits exactly what ``pairwise`` does, with no auxiliaries.

    ``name_prefix`` names every auxiliary variable deterministically
    (``<prefix>.r[i,j]`` for sequential-counter registers,
    ``<prefix>.t[lo:hi,j]`` for totalizer outputs).  Encoders that need
    structural CNF comparison up to variable renaming — the pebbling frame
    parity tests — rely on these names; leave it ``None`` for anonymous
    auxiliaries.
    """
    literals = _checked(cnf, literals)
    if bound < 0:
        cnf.add_clause([])  # nothing can satisfy a negative bound
        return
    if bound == 0:
        for literal in literals:
            cnf.add_unit(-literal)
        return
    if bound >= len(literals):
        return  # trivially satisfied
    strategy = CardinalityEncoding.from_name(encoding)
    if strategy is CardinalityEncoding.SEQUENTIAL:
        _sequential_counter(cnf, literals, bound, name_prefix)
    elif strategy is CardinalityEncoding.PAIRWISE or _binomial_undercuts_tree(
        len(literals), bound
    ):
        _pairwise(cnf, literals, bound)
    else:
        _totalizer(cnf, literals, bound, name_prefix)


def _check_weights(literals: Sequence[int], weights: Sequence[float]) -> list[int]:
    """Validate a weight vector: one positive integer per literal."""
    if len(weights) != len(literals):
        raise CnfError(
            f"{len(literals)} literals but {len(weights)} weights; "
            "every literal needs exactly one weight"
        )
    checked: list[int] = []
    for weight in weights:
        value = int(weight)
        if value != weight or value < 1:
            raise CnfError(
                f"weight {weight!r} is not a positive integer; weighted "
                "cardinality constraints need integral weights >= 1"
            )
        checked.append(value)
    return checked


def at_most_k_weighted(
    cnf: Cnf,
    literals: Sequence[int],
    weights: Sequence[float],
    bound: int,
    *,
    encoding: "str | CardinalityEncoding" = CardinalityEncoding.SEQUENTIAL,
    name_prefix: str | None = None,
) -> None:
    """Add clauses stating :math:`\\sum_i w_i \\cdot [l_i] \\le bound`.

    ``weights`` must be positive integers (integral floats are accepted),
    one per literal.  When every weight is 1 the call delegates to
    :func:`at_most_k` with the chosen ``encoding``, so the weighted entry
    point is a strict generalisation of the unweighted one; with non-unit
    weights the constraint is compiled with a generalised sequential
    counter (registers track accumulated weight, ``O(n \\cdot bound)``
    auxiliary variables and clauses).

    ``name_prefix`` names the counter registers ``<prefix>.r[i,j]`` exactly
    like the unweighted sequential encoding, so frame-parity tests keep
    working in weighted mode.
    """
    literals = _checked(cnf, literals)
    checked = _check_weights(literals, weights)
    if all(weight == 1 for weight in checked):
        at_most_k(cnf, literals, bound, encoding=encoding, name_prefix=name_prefix)
        return
    if bound < 0:
        cnf.add_clause([])  # nothing can satisfy a negative bound
        return
    # Literals too heavy for the whole budget can never be true.
    pairs: list[tuple[int, int]] = []
    for literal, weight in zip(literals, checked):
        if weight > bound:
            cnf.add_unit(-literal)
        else:
            pairs.append((literal, weight))
    if sum(weight for _, weight in pairs) <= bound:
        return  # trivially satisfied by the surviving literals
    _weighted_sequential_counter(cnf, pairs, bound, name_prefix)


def _weighted_sequential_counter(
    cnf: Cnf,
    pairs: Sequence[tuple[int, int]],
    bound: int,
    name_prefix: str | None = None,
) -> None:
    """Generalised sequential counter for pseudo-Boolean at-most-``bound``.

    ``registers[i][j]`` is true when the accumulated weight of the first
    ``i + 1`` literals is at least ``j + 1``.  Every weight in ``pairs`` is
    already known to be ``<= bound``.
    """
    count = len(pairs)
    registers = _register_rows(cnf, count, bound, name_prefix)
    first, first_weight = pairs[0]
    flat: list[int] = []
    for j in range(first_weight):
        flat += (-first, registers[0][j], 0)
    for j in range(first_weight, bound):
        flat += (-registers[0][j], 0)
    for i in range(1, count):
        literal, weight = pairs[i]
        previous = registers[i - 1]
        current = registers[i]
        for j in range(weight):
            flat += (-literal, current[j], 0)
        for j in range(bound):
            flat += (-previous[j], current[j], 0)
        for j in range(bound - weight):
            flat += (-literal, -previous[j], current[j + weight], 0)
        # Overflow: accumulated weight already exceeds bound - weight, so
        # adding this literal would push the total past the bound.
        flat += (-literal, -previous[bound - weight], 0)
    cnf.add_generated(flat)


def _register_rows(
    cnf: Cnf, rows: int, width: int, name_prefix: str | None
) -> list[list[int]]:
    """A ``rows`` x ``width`` register matrix as one block, row-major.

    Register ``[i][j]`` is named ``<name_prefix>.r[i,j]`` on demand.
    """
    namer: Namer | None = None
    if name_prefix is not None:
        def namer(offset: int) -> str:
            return "%s.r[%d,%d]" % (name_prefix, *divmod(offset, width))
    first = cnf.new_block(rows * width, namer)
    return [
        list(range(start, start + width))
        for start in range(first, first + rows * width, width)
    ]


# ---------------------------------------------------------------------------
# pairwise / binomial
# ---------------------------------------------------------------------------
def _pairwise(cnf: Cnf, literals: Sequence[int], bound: int) -> None:
    # Guard against clause-count explosions: the binomial encoding emits
    # C(n, k+1) clauses which is only reasonable for small instances.
    clause_count = math.comb(len(literals), bound + 1)
    if clause_count > 2_000_000:
        raise CnfError(
            f"pairwise at-most-{bound} over {len(literals)} literals would emit "
            f"{clause_count} clauses; use the sequential or totalizer encoding"
        )
    flat: list[int] = []
    for subset in combinations(literals, bound + 1):
        flat += [-literal for literal in subset]
        flat.append(0)
    cnf.add_generated(flat)


# ---------------------------------------------------------------------------
# sequential counter (Sinz 2005)
# ---------------------------------------------------------------------------
def _sequential_counter(
    cnf: Cnf, literals: Sequence[int], bound: int, name_prefix: str | None = None
) -> None:
    count = len(literals)
    # registers[i][j] is true when at least j+1 of the first i+1 literals
    # are true.
    registers = _register_rows(cnf, count, bound, name_prefix)
    first = literals[0]
    flat = [-first, registers[0][0], 0]
    for j in range(1, bound):
        flat += (-registers[0][j], 0)
    for i in range(1, count):
        literal = literals[i]
        previous = registers[i - 1]
        current = registers[i]
        flat += (-literal, current[0], 0, -previous[0], current[0], 0)
        for j in range(1, bound):
            flat += (
                -literal, -previous[j - 1], current[j], 0,
                -previous[j], current[j], 0,
            )
        flat += (-literal, -previous[bound - 1], 0)
    cnf.add_generated(flat)


# ---------------------------------------------------------------------------
# totalizer (Bailleux & Boufkhad 2003)
# ---------------------------------------------------------------------------
def _totalizer(
    cnf: Cnf, literals: Sequence[int], bound: int, name_prefix: str | None = None
) -> None:
    flat: list[int] = []
    output = _totalizer_tree(
        cnf, flat, list(literals), bound, 0, len(literals), name_prefix
    )
    # Forbid the (bound+1)-th output from being true.
    if len(output) > bound:
        flat += (-output[bound], 0)
    cnf.add_generated(flat)


@lru_cache(maxsize=4096)
def _binomial_undercuts_tree(count: int, bound: int) -> bool:
    """Whether ``pairwise`` is the smaller at-most-``bound`` of ``count``.

    True when its C(count, bound+1) clauses are no more than the
    totalizer's clauses plus its registers, counted by
    :func:`_totalizer_size` without building the tree.  ``0 < bound <
    count``.
    """
    clauses, registers = _totalizer_size(count, bound)
    # The tree's clauses and the unit forbidding its (bound+1)-th output.
    return math.comb(count, bound + 1) <= clauses + 1 + registers


@lru_cache(maxsize=4096)
def _totalizer_size(count: int, bound: int) -> tuple[int, int]:
    """(clauses, registers) :func:`_totalizer_tree` emits over ``count`` literals.

    The tree halves its span as the emitter does, so only O(log count)
    distinct subtree sizes occur and each is counted once.
    """
    if count == 1:
        return 0, 0
    middle = count // 2
    left_clauses, left_registers = _totalizer_size(middle, bound)
    right_clauses, right_registers = _totalizer_size(count - middle, bound)
    left, right = min(middle, bound + 1), min(count - middle, bound + 1)
    width = min(left + right, bound + 1)
    # One clause per (alpha, beta) with 1 <= alpha + beta <= width.
    clauses = sum(min(right, width - alpha) + 1 for alpha in range(left + 1)) - 1
    return (
        left_clauses + right_clauses + clauses,
        left_registers + right_registers + width,
    )


def _totalizer_tree(
    cnf: Cnf,
    flat: list[int],
    literals: list[int],
    bound: int,
    lo: int,
    hi: int,
    name_prefix: str | None = None,
) -> list[int]:
    """Build a totalizer over ``literals[lo:hi]``; return its sorted outputs.

    The clauses go to ``flat``, subtrees first.  Outputs are truncated at
    ``bound + 1`` since larger counts are never distinguished by an
    at-most-``bound`` constraint; each node's outputs are one pool block,
    named ``<prefix>.t[lo:hi,j]`` on demand.  ``lo``/``hi`` index into
    the original literal list so auxiliary names stay stable per subtree.
    """
    if hi - lo == 1:
        return [literals[lo]]
    middle = lo + (hi - lo) // 2
    left = _totalizer_tree(cnf, flat, literals, bound, lo, middle, name_prefix)
    right = _totalizer_tree(cnf, flat, literals, bound, middle, hi, name_prefix)
    width = min(len(left) + len(right), bound + 1)
    namer: Namer | None = None
    if name_prefix is not None:
        def namer(offset: int) -> str:
            return f"{name_prefix}.t[{lo}:{hi},{offset}]"
    first = cnf.new_block(width, namer)
    output = list(range(first, first + width))
    # sum semantics: output[k] is true when at least k+1 inputs are true.
    for alpha in range(len(left) + 1):
        for beta in range(len(right) + 1):
            sigma = alpha + beta
            if sigma == 0 or sigma > width:
                continue
            if alpha > 0:
                flat.append(-left[alpha - 1])
            if beta > 0:
                flat.append(-right[beta - 1])
            flat += (output[sigma - 1], 0)
    return output


def count_true(model: dict[int, bool], literals: Sequence[int]) -> int:
    """Count how many of ``literals`` are satisfied by ``model``.

    Helper shared by tests and by the pebbling strategy extractor to verify
    cardinality constraints on returned models.
    """
    total = 0
    for literal in literals:
        variable = abs(literal)
        value = model.get(variable, False)
        if value == (literal > 0):
            total += 1
    return total


def weighted_sum_true(
    model: dict[int, bool], literals: Sequence[int], weights: Sequence[float]
) -> int:
    """Total weight of the ``literals`` satisfied by ``model``.

    Weighted counterpart of :func:`count_true`, shared by the weighted
    cardinality tests and the weighted pebbling strategy checks.
    """
    checked = _check_weights(list(literals), weights)
    total = 0
    for literal, weight in zip(literals, checked):
        variable = abs(literal)
        value = model.get(variable, False)
        if value == (literal > 0):
            total += weight
    return total
