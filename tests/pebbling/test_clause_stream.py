"""Golden clause streams: exactly what the live oracle hands its backend.

The frame-parity tests in ``test_encoding.py`` compare encodings up to
variable renaming and clause order.  These tests are stricter: they pin
the literal stream itself.  Each case poses the bounds ``1 .. K`` to the
live oracle one frame at a time and records every clause the backend
receives, as DIMACS literals with a ``0`` after each clause.  The golden
values are the number of clauses each frame hands over and a sha256 of
the whole stream written as decimal text, so any change to emission
order, variable numbering or frame boundaries shows here.

The C core must receive this same stream, so its conflicts repeat
exactly; the second test reads it off the core's own ABI calls.

Every case names its cardinality encoding, so a change of
:data:`~repro.pebbling.encoding.DEFAULT_CARDINALITY` moves no digest.  The
sequential-counter streams and the kummer-double totalizer stream were
recorded before the default became the totalizer.  The other totalizer
streams, all on frames of 6 or 8 nodes, were recorded again when the
totalizer began to emit the binomial clauses wherever they are no more
than its tree's clauses plus registers: their registers are gone, and
fig2 at 3 pebbles now hands over exactly the ``pairwise`` stream.
"""

from __future__ import annotations

import hashlib
from array import array

import pytest

from repro.pebbling import EncodingOptions, PebblingEncoder, ReversiblePebblingSolver
from repro.pebbling.solver import _LiveOracle
from repro.sat.cards import CardinalityEncoding
from repro.sat.dimacs import dimacs_string
from repro.sat.native import (
    NativeCdclSolver,
    build_library,
    load_library,
    native_unavailable_reason,
)
from repro.workloads import load_workload

SEQUENTIAL = EncodingOptions(cardinality=CardinalityEncoding.SEQUENTIAL)
TOTALIZER = EncodingOptions(cardinality=CardinalityEncoding.TOTALIZER)


def _weighted_fig2():
    dag = load_workload("fig2")
    dag.node("E").weight = 3.0
    return dag


#: name -> (dag factory, budget, options, bound).
CASES = {
    "fig2-p3": (lambda: load_workload("fig2"), 3, SEQUENTIAL, 8),
    "c17-p3": (lambda: load_workload("c17"), 3, SEQUENTIAL, 8),
    "and9-p4-single": (
        lambda: load_workload("and9"), 4,
        EncodingOptions(
            cardinality=CardinalityEncoding.SEQUENTIAL, max_moves_per_step=1
        ),
        8,
    ),
    "hadamard-p5": (lambda: load_workload("hadamard"), 5, SEQUENTIAL, 8),
    "kummer-double-p16": (lambda: load_workload("kummer-double"), 16, SEQUENTIAL, 8),
    "fig2-p3-totalizer": (lambda: load_workload("fig2"), 3, TOTALIZER, 8),
    "c17-p3-totalizer": (lambda: load_workload("c17"), 3, TOTALIZER, 8),
    "and9-p4-single-totalizer": (
        lambda: load_workload("and9"), 4,
        EncodingOptions(
            cardinality=CardinalityEncoding.TOTALIZER, max_moves_per_step=1
        ),
        8,
    ),
    "hadamard-p5-totalizer": (lambda: load_workload("hadamard"), 5, TOTALIZER, 8),
    "kummer-double-p16-totalizer": (
        lambda: load_workload("kummer-double"), 16, TOTALIZER, 8,
    ),
    "fig2-p3-pairwise": (
        lambda: load_workload("fig2"), 3,
        EncodingOptions(cardinality=CardinalityEncoding.PAIRWISE), 8,
    ),
    "fig2-w5-weighted": (_weighted_fig2, 5, EncodingOptions(weighted=True), 8),
    "fig2-p4-two-moves-no-idle": (
        lambda: load_workload("fig2"), 4,
        EncodingOptions(
            cardinality=CardinalityEncoding.SEQUENTIAL,
            max_moves_per_step=2,
            forbid_idle_steps=True,
        ),
        8,
    ),
    "fig2-p4-two-moves-no-idle-totalizer": (
        lambda: load_workload("fig2"), 4,
        EncodingOptions(
            cardinality=CardinalityEncoding.TOTALIZER,
            max_moves_per_step=2,
            forbid_idle_steps=True,
        ),
        8,
    ),
}

#: name -> (clauses handed over by each frame 1 .. K, sha256 of the stream).
#: Frame 1 also carries configuration 0 and its initial units.
GOLDEN = {
    "and9-p4-single": (
        [232, 157, 157, 157, 157, 157, 157, 157],
        "36d8041f156c4cab78621cbb08ee18eef0e59c59dcfce970a52bc02692cc258c",
    ),
    "and9-p4-single-totalizer": (
        [216, 152, 152, 152, 152, 152, 152, 152],
        "92eec4c41bc6907b4fbb087341bb0fd71f62584fcd7c2c5cbdf25fd1535df7a5",
    ),
    "c17-p3": (
        [112, 68, 68, 68, 68, 68, 68, 68],
        "7b1a8152ef98b60c3833f78adcc0b92f502642c61f358fa75b57ff59b86fdabe",
    ),
    "c17-p3-totalizer": (
        [66, 45, 45, 45, 45, 45, 45, 45],
        "b256dc49bae96819573ce2a35b7cbaa87f7f016b77538ef88206c735fa79c664",
    ),
    "fig2-p3": (
        [108, 64, 64, 64, 64, 64, 64, 64],
        "efc88fc501c55ec4c01674e7c16e247b3a17802a140f64b0433a1d8d7272d92a",
    ),
    "fig2-p3-pairwise": (
        [62, 41, 41, 41, 41, 41, 41, 41],
        "de2ecbc121d62e45ae111c879d8ed6fb21251742ed4c5d3dac6df0b4db7eaf28",
    ),
    "fig2-p3-totalizer": (
        [62, 41, 41, 41, 41, 41, 41, 41],
        "de2ecbc121d62e45ae111c879d8ed6fb21251742ed4c5d3dac6df0b4db7eaf28",
    ),
    "fig2-p4-two-moves-no-idle": (
        [182, 127, 127, 127, 127, 127, 127, 127],
        "8c909c8f7b75166a9a2c7c6d43dfd32982a57c1e75ec8a57154a6060cf8a40ef",
    ),
    "fig2-p4-two-moves-no-idle-totalizer": (
        [89, 77, 77, 77, 77, 77, 77, 77],
        "9cb10e159cde6d842e5d75bc662263da88cd0a10a81b64112a0f6ad291c7423d",
    ),
    "fig2-w5-weighted": (
        [152, 86, 86, 86, 86, 86, 86, 86],
        "f2eb69625d1a10aed6cb91a20782ec04bc019f0da660e784018ae50cb7d67619",
    ),
    "hadamard-p5": (
        [212, 122, 122, 122, 122, 122, 122, 122],
        "dcd9943a8bfbdd0868c648f03cdf6c50ba8e2e46c267f82c48c8055d599591fe",
    ),
    "hadamard-p5-totalizer": (
        [104, 68, 68, 68, 68, 68, 68, 68],
        "b5c950f65b2bfa31e0f2190fa504750432fda92a442d9d004e53e4e41ef7ecf2",
    ),
    "kummer-double-p16": (
        [2302, 1231, 1231, 1231, 1231, 1231, 1231, 1231],
        "dbcf75f952f64f707a3a67cdf6a0e46f101790c072f7b12ee97c3b258a994316",
    ),
    "kummer-double-p16-totalizer": (
        [1298, 729, 729, 729, 729, 729, 729, 729],
        "7d069d4bce3f9a9cc39e54daff44d49f4384536d389f4119f994de0d63ea5719",
    ),
}

#: Encoding -> sha256 of ``dimacs_string`` for and9, 4 pebbles, single-move,
#: 10 steps.
GOLDEN_DIMACS = {
    CardinalityEncoding.SEQUENTIAL:
        "6349ed064be9d6bb6da1bc54b02e80eaa6d5619ee114746ff1bf2346689ba963",
    CardinalityEncoding.TOTALIZER:
        "79745ecf29dbd0cdb07fe41871fe0692fe7cdd3562e046c9b03122cdc03bbcfd",
}


def _digest(stream) -> str:
    return hashlib.sha256(" ".join(map(str, stream)).encode("ascii")).hexdigest()


class _Recorder:
    """A backend stand-in that keeps every clause it is handed."""

    def __init__(self) -> None:
        self.stream: list[int] = []
        self.clauses = 0

    def add_clause(self, literals) -> bool:
        self.stream.extend(literals)
        self.stream.append(0)
        self.clauses += 1
        return True


class _TapLibrary:
    """The native library with its clause-adding entry points recorded."""

    def __init__(self, library) -> None:
        self._library = library
        self.stream = array("i")
        self.clauses = 0

    def __getattr__(self, name):
        return getattr(self._library, name)

    def cdcl_add_clause(self, handle, literals, size):
        self.stream.extend(literals[:size])
        self.stream.append(0)
        self.clauses += 1
        return self._library.cdcl_add_clause(handle, literals, size)

    def cdcl_add_clauses(self, handle, flat, size, count):
        chunk = array("i")
        chunk.frombytes(bytes(flat)[: size * chunk.itemsize])
        self.stream.extend(chunk)
        self.clauses += chunk.count(0)
        return self._library.cdcl_add_clauses(handle, flat, size, count)


def _pose_frames(name: str, backend, tap) -> tuple[list[int], str]:
    """Pose bounds 1..K to a live oracle over ``backend``; ``tap`` records."""
    factory, budget, options, bound = CASES[name]
    owner = ReversiblePebblingSolver(factory(), options=options, backend="cdcl:native=0")
    oracle = _LiveOracle(owner, budget)
    oracle.backend = backend
    counts = []
    for step in range(1, bound + 1):
        before = tap.clauses
        oracle.pose([step])
        counts.append(tap.clauses - before)
    return counts, _digest(tap.stream)


@pytest.mark.parametrize("name", sorted(CASES))
def test_live_oracle_hands_over_the_golden_stream(name):
    recorder = _Recorder()
    assert _pose_frames(name, recorder, recorder) == GOLDEN[name]


@pytest.mark.skipif(
    native_unavailable_reason() is not None, reason="native core unavailable"
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_native_core_receives_the_golden_stream(name):
    library, reason = build_library()
    assert library is not None, reason
    loaded, reason = load_library(library)
    assert loaded is not None, reason
    tap = _TapLibrary(loaded)
    assert _pose_frames(name, NativeCdclSolver(library=tap), tap) == GOLDEN[name]


def test_a_narrow_totalizer_frame_is_the_binomial_one():
    assert GOLDEN["fig2-p3-totalizer"] == GOLDEN["fig2-p3-pairwise"]


def test_one_shot_dimacs_matches_the_golden_digest():
    for cardinality, golden in GOLDEN_DIMACS.items():
        options = EncodingOptions(cardinality=cardinality, max_moves_per_step=1)
        encoding = PebblingEncoder(load_workload("and9"), options=options).encode(
            max_pebbles=4, num_steps=10
        )
        text = dimacs_string(encoding.cnf)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == golden, cardinality
