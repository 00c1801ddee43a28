"""Reading and writing the DIMACS CNF exchange format.

The pebbling encoder can dump its CNF instances to DIMACS so they can be
inspected or solved with an external solver; the test-suite round-trips
formulas through this module.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from repro.errors import CnfError
from repro.sat.cnf import Cnf


def write_dimacs(cnf: Cnf, destination: str | Path | TextIO) -> None:
    """Write ``cnf`` in DIMACS format to a path or text stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as stream:
            _write(cnf, stream)
    else:
        _write(cnf, destination)


def dimacs_string(cnf: Cnf) -> str:
    """Return the DIMACS serialisation of ``cnf`` as a string."""
    buffer = io.StringIO()
    _write(cnf, buffer)
    return buffer.getvalue()


def _write(cnf: Cnf, stream: TextIO) -> None:
    for comment in cnf.comments:
        stream.write(f"c {comment}\n")
    stream.write(f"p cnf {cnf.num_variables} {cnf.num_clauses}\n")
    for clause in cnf.clauses:
        stream.write(" ".join(str(literal) for literal in clause.literals))
        stream.write(" 0\n")


def parse_dimacs(source: str | Path | TextIO) -> Cnf:
    """Parse a DIMACS CNF file, path or already-opened stream.

    Strings containing a newline are interpreted as DIMACS *content*;
    other strings are treated as file paths.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, str):
        text = source if "\n" in source or source.startswith(("c", "p")) else Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return _parse(text)


def _parse(text: str) -> Cnf:
    cnf = Cnf()
    declared_variables: int | None = None
    declared_clauses: int | None = None
    pending: list[int] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("c"):
            cnf.add_comment(line[1:].strip())
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {line_number}: malformed problem line {line!r}")
            try:
                declared_variables = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError as exc:
                raise CnfError(f"line {line_number}: malformed problem line {line!r}") from exc
            if declared_variables < 0 or declared_clauses < 0:
                raise CnfError(f"line {line_number}: negative count in problem line {line!r}")
            continue
        for token in line.split():
            try:
                literal = int(token)
            except ValueError as exc:
                raise CnfError(f"line {line_number}: non-integer token {token!r}") from exc
            if literal == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(literal)
    if pending:
        # DIMACS allows a final clause without the trailing 0 in practice.
        cnf.add_clause(pending)
    if declared_variables is not None:
        cnf.pool.reserve_through(declared_variables)
    if declared_clauses is not None and declared_clauses != cnf.num_clauses:
        # Only warn via comment: many real-world files get the count wrong.
        cnf.add_comment(
            f"warning: header declared {declared_clauses} clauses, parsed {cnf.num_clauses}"
        )
    return cnf
