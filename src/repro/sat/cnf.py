"""CNF formula containers.

A :class:`Cnf` is a clause list over DIMACS literals together with a
variable pool.  Encoders (cardinality constraints, the pebbling
encoding) build a :class:`Cnf` incrementally through :meth:`Cnf.add_clause`
and :meth:`Cnf.new_variable`, and hand the result to a solver.

Storage is one flat ``array('i')``, :attr:`Cnf.literals`: every clause's
DIMACS literals followed by a ``0``, in the order the clauses were added
(the body of a DIMACS file without its line breaks), plus a clause count.
Clauses arrive by one of two paths:

* the public methods (:meth:`Cnf.add_clause`, :meth:`Cnf.add_unit`, ...)
  validate every literal, drop duplicates and return a :class:`Clause`;
* :meth:`Cnf.add_generated` appends literals that an encoder generated
  itself over variables the pool already holds -- whole frames or
  counters at a time, with no :class:`Clause` object and no re-check;
  :meth:`Cnf.add_lanes` appends such a run given as the raw bytes of its
  int32 lanes (how the pebbling encoder stamps its frames).

:attr:`Cnf.clauses` still reads as a sequence of :class:`Clause` (built on
demand), and the C core takes :attr:`Cnf.literals` as it is, without a
repack.

Variables come from a :class:`VariablePool`, one at a time or as a
*block* of consecutive variables whose names a function produces on
demand (:meth:`VariablePool.new_block`), so an encoder can allocate a
counter's registers or a whole frame without building a string per
variable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import CnfError
from repro.sat.literals import check_literal, lit_to_var


@dataclass(frozen=True)
class Clause:
    """An immutable disjunction of literals.

    Duplicate literals are removed on construction; a clause containing both
    a literal and its negation is a *tautology* (see :meth:`is_tautology`).
    """

    literals: tuple[int, ...]

    def __init__(self, literals: Iterable[int]):
        seen: dict[int, None] = {}
        setdefault = seen.setdefault
        for literal in literals:
            if type(literal) is not int or literal == 0:
                check_literal(literal)  # raises with the precise message
            setdefault(literal, None)
        object.__setattr__(self, "literals", tuple(seen))

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, literal: int) -> bool:
        return literal in self.literals

    def is_tautology(self) -> bool:
        """Return ``True`` when the clause contains ``x`` and ``-x``."""
        literal_set = set(self.literals)
        return any(-literal in literal_set for literal in literal_set)

    def is_empty(self) -> bool:
        """Return ``True`` for the empty (unsatisfiable) clause."""
        return not self.literals

    def variables(self) -> set[int]:
        """Return the set of variables mentioned by the clause."""
        return {lit_to_var(literal) for literal in self.literals}

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate the clause under a complete ``{variable: bool}`` map.

        Raises :class:`~repro.errors.CnfError` if a variable is missing.
        """
        for literal in self.literals:
            variable = lit_to_var(literal)
            if variable not in assignment:
                raise CnfError(f"assignment is missing variable {variable}")
            if assignment[variable] == (literal > 0):
                return True
        return False


#: Highest variable a clause may mention: its literals must fit in int32,
#: negation included.
MAX_VARIABLE = 2**31 - 1

#: Names the variables of a block: offset in the block -> name.
Namer = Callable[[int], str]


class VariablePool:
    """Allocates fresh DIMACS variables and optionally names them.

    Encoders frequently need auxiliary variables (cardinality-counter
    bits, bound guards).  The pool hands out consecutive integers and
    remembers an optional human-readable name per variable, which makes
    debugging encodings and pretty-printing models considerably easier.

    Names come two ways.  :meth:`new` and :meth:`set_name` store one string
    per variable.  :meth:`new_block` allocates consecutive variables at
    once and keeps a *namer* for them, a function from an offset in the
    block to the name, called only when a name is asked for:
    :meth:`name_of` calls it for the one variable, and :meth:`by_name`
    and :meth:`set_name` first build every pending block's names into the
    pool's maps, which is where a clash between two names raises.  The
    pool never hands out a variable past :data:`MAX_VARIABLE`.
    """

    def __init__(self, first_variable: int = 1):
        if first_variable < 1:
            raise CnfError("first_variable must be >= 1")
        self._next = first_variable
        self._names: dict[int, str] = {}
        self._by_name: dict[str, int] = {}
        # Blocks whose names are still pending, in allocation order: first
        # variables (sorted, for bisect) and their (count, namer) pairs.
        self._block_starts: list[int] = []
        self._blocks: list[tuple[int, Namer]] = []

    @property
    def num_variables(self) -> int:
        """Number of variables allocated so far (highest index)."""
        return self._next - 1

    def new(self, name: str | None = None) -> int:
        """Allocate and return a fresh variable, optionally named."""
        variable = self.new_block(1)
        if name is not None:
            self.set_name(variable, name)
        return variable

    def new_many(self, count: int, prefix: str | None = None) -> list[int]:
        """Allocate ``count`` fresh variables, named ``prefix[i]`` if given."""
        if count < 0:
            raise CnfError("count must be non-negative")
        names = [None if prefix is None else f"{prefix}[{i}]" for i in range(count)]
        return [self.new(name) for name in names]

    def new_block(self, count: int, namer: Namer | None = None) -> int:
        """Allocate ``count`` consecutive variables; return the first.

        ``namer(offset)`` names variable ``first + offset`` when that name
        is asked for (``None``: the block is anonymous).  A block that
        would pass :data:`MAX_VARIABLE` is refused before anything is
        allocated.
        """
        if count < 0:
            raise CnfError("count must be non-negative")
        first = self._next
        if first + count - 1 > MAX_VARIABLE:
            raise CnfError(
                f"{count} variables from {first} pass variable {MAX_VARIABLE}, "
                "the largest a 32-bit literal holds"
            )
        self._next = first + count
        if namer is not None and count:
            self._block_starts.append(first)
            self._blocks.append((count, namer))
        return first

    def set_name(self, variable: int, name: str) -> None:
        """Attach ``name`` to ``variable`` (names must be unique)."""
        self._name_pending()
        self._assign(variable, name)

    def _assign(self, variable: int, name: str) -> None:
        if name in self._by_name and self._by_name[name] != variable:
            raise CnfError(f"variable name {name!r} already used")
        self._names[variable] = name
        self._by_name[name] = variable

    def _name_pending(self) -> None:
        """Build the names of every pending block into the maps.

        A clash raises and leaves the blocks pending; the names already
        stored are theirs, so a retry raises again at the same clash.
        """
        for first, (count, namer) in zip(self._block_starts, self._blocks):
            for offset in range(count):
                self._assign(first + offset, namer(offset))
        self._block_starts.clear()
        self._blocks.clear()

    def name_of(self, variable: int) -> str | None:
        """Return the name of ``variable`` or ``None``."""
        if self._blocks:
            index = bisect_right(self._block_starts, variable) - 1
            if index >= 0:
                offset = variable - self._block_starts[index]
                count, namer = self._blocks[index]
                if offset < count:
                    return namer(offset)
        return self._names.get(variable)

    def by_name(self, name: str) -> int:
        """Return the variable registered under ``name``."""
        self._name_pending()
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise CnfError(f"no variable named {name!r}") from exc

    def reserve_through(self, variable: int) -> None:
        """Make sure the pool will not reuse indices up to ``variable``.

        A ``variable`` past :data:`MAX_VARIABLE` is refused, as by
        :meth:`new_block`.
        """
        if variable > MAX_VARIABLE:
            raise CnfError(
                f"variable {variable} is past {MAX_VARIABLE}, "
                "the largest a 32-bit literal holds"
            )
        if variable >= self._next:
            self._next = variable + 1

    def copy(self) -> "VariablePool":
        """Return a pool with the same variables and names, pending ones too."""
        fresh = VariablePool(self._next)
        fresh._names = dict(self._names)
        fresh._by_name = dict(self._by_name)
        fresh._block_starts = list(self._block_starts)
        fresh._blocks = list(self._blocks)
        return fresh


def split_clauses(literals: array) -> Iterator[list[int]]:
    """Yield the clauses of a zero-terminated literal stream as lists."""
    flat = literals.tolist()
    find = flat.index
    start = 0
    while start < len(flat):
        end = find(0, start)
        yield flat[start:end]
        start = end + 1


class Cnf:
    """A CNF formula: a clause stream plus a variable pool.

    Encoders append clauses; solvers read :attr:`literals` (or the
    :attr:`clauses` view) and :attr:`num_variables`.  Convenience helpers
    cover the common logical gadgets used by the pebbling encoding
    (implications, equivalences).
    """

    def __init__(self, pool: VariablePool | None = None) -> None:
        self.pool = pool if pool is not None else VariablePool()
        self.comments: list[str] = []
        #: Every clause's DIMACS literals followed by ``0``, in order.
        #: Append through the ``add_*`` methods only.
        self.literals = array("i")
        self._count = 0
        # Start offset of each clause, indexed lazily by _clause_offsets.
        self._offsets: list[int] = []

    def __repr__(self) -> str:
        return f"Cnf(variables={self.num_variables}, clauses={self._count})"

    @property
    def clauses(self) -> "ClauseView":
        """The clauses as :class:`Clause` objects, built on demand."""
        return ClauseView(self)

    @property
    def num_variables(self) -> int:
        """Highest variable index used by the formula."""
        return self.pool.num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses currently in the formula."""
        return self._count

    def new_variable(self, name: str | None = None) -> int:
        """Allocate a fresh variable through the pool."""
        return self.pool.new(name)

    def new_variables(self, count: int, prefix: str | None = None) -> list[int]:
        """Allocate ``count`` fresh variables through the pool."""
        return self.pool.new_many(count, prefix)

    def new_block(self, count: int, namer: Namer | None = None) -> int:
        """Allocate a block of variables through the pool; return the first."""
        return self.pool.new_block(count, namer)

    def add_clause(self, literals: Iterable[int]) -> Clause:
        """Add a clause (a disjunction of DIMACS literals) and return it.

        The literals are validated and deduplicated (:class:`Clause`)
        before anything is stored, and the pool is reserved through the
        clause's highest variable.
        """
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        max_var = max(map(abs, clause.literals), default=0)
        if max_var > MAX_VARIABLE:
            raise CnfError(f"variable {max_var} does not fit a 32-bit literal")
        self.pool.reserve_through(max_var)
        self.literals.extend(clause.literals)
        self.literals.append(0)
        self._count += 1
        return clause

    def add_generated(self, literals: Sequence[int]) -> None:
        """Append clauses an encoder generated, as one zero-terminated run.

        The fast path of this package's own encoders: ``literals`` holds
        whole clauses, each followed by ``0``, over variables this pool
        already allocated, so nothing is validated, deduplicated or
        reserved.  An unterminated run is refused: it would fuse with the
        next clause.
        """
        if literals and literals[-1] != 0:
            raise CnfError("generated clauses must end with a 0 terminator")
        self.literals.extend(literals)
        self._count += literals.count(0)

    def add_lanes(self, lanes: bytes, count: int) -> None:
        """Append ``count`` generated clauses given as raw int32 lanes.

        :meth:`add_generated` for a run already packed the way
        :attr:`literals` stores it (native byte order, one literal per
        lane): the bytes go in with one copy.  The caller vouches for the
        count and for every lane holding a valid literal or terminator;
        only the final terminator is checked.
        """
        width = self.literals.itemsize
        if len(lanes) % width or (lanes and any(lanes[-width:])):
            raise CnfError("generated lanes must be whole and end with a 0 terminator")
        self.literals.frombytes(lanes)
        self._count += count

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> None:
        """Add every clause in ``clause_list``."""
        for literals in clause_list:
            self.add_clause(literals)

    def add_unit(self, literal: int) -> Clause:
        """Force ``literal`` to be true."""
        return self.add_clause([literal])

    def add_implication(self, antecedent: int, consequent: int) -> Clause:
        """Add ``antecedent -> consequent``."""
        return self.add_clause([-antecedent, consequent])

    def add_equivalence(self, left: int, right: int) -> None:
        """Add ``left <-> right``."""
        self.add_clause([-left, right])
        self.add_clause([left, -right])

    def add_comment(self, text: str) -> None:
        """Record a human-readable comment (written out to DIMACS)."""
        self.comments.append(text)

    def variables(self) -> set[int]:
        """Return all variables mentioned in clauses."""
        result: set[int] = set()
        for clause in self.clauses:
            result.update(clause.variables())
        return result

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate the whole formula under a complete assignment."""
        return all(clause.evaluate(assignment) for clause in self.clauses)

    def copy(self) -> "Cnf":
        """Return a copy sharing no mutable state with ``self``."""
        fresh = Cnf(self.pool.copy())
        fresh.literals = array("i", self.literals)
        fresh._count = self._count
        fresh.comments = list(self.comments)
        return fresh

    def as_lists(self) -> list[list[int]]:
        """Return clauses as plain lists of ints (handy for solvers/tests)."""
        return [list(clause.literals) for clause in self.clauses]

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return self._count

    def stats(self) -> dict[str, int]:
        """Return a small dictionary of size statistics."""
        literal_count = sum(len(clause) for clause in self.clauses)
        return {
            "variables": self.num_variables,
            "clauses": self.num_clauses,
            "literals": literal_count,
        }

    def _clause_offsets(self) -> list[int]:
        """Start offset of every clause in :attr:`literals`."""
        offsets = self._offsets
        if len(offsets) < self._count:
            find = self.literals.index
            position = find(0, offsets[-1]) + 1 if offsets else 0
            for _ in range(self._count - len(offsets)):
                offsets.append(position)
                position = find(0, position) + 1
        return offsets


class ClauseView(SequenceABC):
    """The clauses of a :class:`Cnf` as :class:`Clause` objects.

    A live view, built on demand from :attr:`Cnf.literals`: ``len`` is
    O(1), iteration decodes the stream once, and indexing and slicing use
    clause offsets the :class:`Cnf` indexes when first asked.  A slice is
    a list; the view compares equal to a list or view of equal clauses.
    """

    __slots__ = ("_cnf",)

    def __init__(self, cnf: Cnf) -> None:
        self._cnf = cnf

    def __len__(self) -> int:
        return self._cnf.num_clauses

    def __iter__(self) -> Iterator[Clause]:
        return map(Clause, split_clauses(self._cnf.literals))

    def __getitem__(self, index):
        count = len(self)
        literals = self._cnf.literals
        if isinstance(index, slice):
            start, stop, step = index.indices(count)
            if step != 1:
                return [self[position] for position in range(start, stop, step)]
            if start >= stop:
                return []
            offsets = self._cnf._clause_offsets()
            end = offsets[stop] if stop < count else len(literals)
            return list(map(Clause, split_clauses(literals[offsets[start]:end])))
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("clause index out of range")
        start = self._cnf._clause_offsets()[index]
        return Clause(literals[start:literals.index(0, start)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ClauseView, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a list

    def __repr__(self) -> str:
        return f"ClauseView({list(self)!r})"


def clauses_from_lists(clause_lists: Sequence[Sequence[int]]) -> list[Clause]:
    """Convert raw literal lists into :class:`Clause` objects."""
    return [Clause(literals) for literals in clause_lists]
