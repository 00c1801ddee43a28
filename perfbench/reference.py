"""A fixed pure-Python reference task that gauges the host's speed.

The task builds a fixed random 3-CNF with its occurrence lists and runs
unit propagation on it from a fixed list of start assignments: the same
kind of interpreted allocation, dictionary and list traffic as the
program's own encoding and search, but none of the program's code, so a
change to the program cannot change its cost.  Building the formula
afresh each time spreads it over new memory, as a request's encoder and
solver are.

On a shared virtual machine the speed of the same code moves by up to a
factor of two within minutes (the same ``loose-budget`` requests ran 1.6
to 1.9 times as fast in one run as in another a few minutes away, while
this task's time moved by about as much).  The benchmark therefore
reports computation-bound times scaled to a host on which this task
takes ``NOMINAL_SECONDS``: a time measured in a process is multiplied by
:func:`scale` of the task's times around it.

The program slows less than this task when the host slows: between runs
in a fast and a slow state of the host, ``tight-budget``'s requests
moved as this task's time to the power 0.77 and ``loose-budget``'s to
the power 0.90, and over 43 ten-second windows of a seven-minute run
(task at 8-35 ms) fig2, c17, kummer-add and c432 requests each moved
with a fitted power of 0.62-0.67 (a slope that the noise in each
window's median biases low).  :func:`scale` uses ``EXPONENT`` = 0.8.
"""

from __future__ import annotations

import random
import statistics
import time

_VARIABLES = 500
_CLAUSES = 2000
_STARTS = 80

#: The reference task's time on the host the scaled times refer to.
NOMINAL_SECONDS = 0.010

#: How the program's times follow the reference task's (see above).
EXPONENT = 0.8


def _task() -> int:
    rng = random.Random(20240611)
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, _VARIABLES) for _ in range(3)]
        for _ in range(_CLAUSES)
    ]
    falsified_by: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for literal in clause:
            falsified_by.setdefault(-literal, []).append(index)
    propagated = 0
    for start in range(_STARTS):
        value: dict[int, bool] = {}
        trail: list[int] = []
        for bit in range(12):
            variable = 1 + (start * 7 + bit * 13) % _VARIABLES
            literal = variable if (start >> (bit % 6)) & 1 else -variable
            if variable not in value:
                value[variable] = literal > 0
                trail.append(literal)
        head = 0
        while head < len(trail):
            literal = trail[head]
            head += 1
            for index in falsified_by.get(literal, ()):
                open_literal, free = 0, 0
                for other in clauses[index]:
                    assigned = value.get(abs(other))
                    if assigned is None:
                        open_literal, free = other, free + 1
                    elif assigned == (other > 0):
                        break
                else:
                    if free == 1:
                        value[abs(open_literal)] = open_literal > 0
                        trail.append(open_literal)
        propagated += len(trail)
    return propagated


def reference_seconds() -> float:
    """Seconds one run of the reference task takes right now."""
    started = time.perf_counter()
    _task()
    return time.perf_counter() - started


def scale(samples: list[float]) -> float:
    """Factor that turns times measured beside ``samples`` into nominal-host times."""
    return (NOMINAL_SECONDS / statistics.median(samples)) ** EXPONENT
