"""Expected answers and an independent witness replay.

``EXPECTED`` maps (source, budget, single_move) to the outcome and the
minimal step count the library's default search returns.  It was computed
once on the registry's own DAGs; relabelling and reordering cannot change
either value, so it holds for every seed.

:func:`replay` checks a witness against the shadow of the variant it was
computed on (see ``inputs.py``) without going through
``PebblingStrategy``: the run starts empty, every move (un)pebbles a node
whose dependencies are pebbled on both sides of the step, single-move
answers change one node per step, no configuration exceeds the budget,
and the last configuration is exactly the outputs.
"""

from __future__ import annotations

#: (source, budget, single_move) -> (outcome, minimal steps or None).
#: "step-limit" is an all-UNSAT sweep: every bound up to the solver's
#: runaway guard was refuted.
EXPECTED: dict[tuple[str, int, bool], tuple[str, int | None]] = {
    # tight-budget
    ("fig2", 3, False): ("step-limit", None),
    ("c17", 3, False): ("step-limit", None),
    ("and9", 4, False): ("step-limit", None),
    ("and9", 4, True): ("step-limit", None),
    ("hadamard", 5, False): ("step-limit", None),
    ("and9", 5, True): ("solution", 21),
    ("edwards-add", 11, False): ("solution", 13),
    ("kummer-double", 16, False): ("solution", 16),
    # loose-budget
    ("c432", 9, False): ("solution", 35),
    ("c499", 9, False): ("solution", 39),
    ("c1355", 12, False): ("solution", 19),
    ("c1908", 12, False): ("solution", 37),
    ("kummer-add", 20, False): ("solution", 15),
    ("kummer-double", 20, False): ("solution", 15),
    ("edwards-add", 14, False): ("solution", 11),
    # service-mix
    ("and9", 5, False): ("solution", 10),
    ("and9", 6, False): ("solution", 8),
    ("fig2", 4, False): ("solution", 6),
    ("hadamard", 6, False): ("solution", 4),
    ("hadamard", 7, False): ("solution", 4),
    ("c17", 4, False): ("solution", 8),
}


def replay(
    shadow: dict[str, object],
    configurations: list[list[str]],
    budget: int,
    single_move: bool,
) -> str | None:
    """Return why the witness is illegal, or ``None`` when it is legal."""
    deps: dict[str, list[str]] = shadow["deps"]  # type: ignore[assignment]
    outputs = set(shadow["outputs"])  # type: ignore[arg-type]
    steps = [set(configuration) for configuration in configurations]
    if not steps or steps[0]:
        return "the witness does not start from the empty configuration"
    if steps[-1] != outputs:
        return "the final configuration is not exactly the outputs"
    for index, configuration in enumerate(steps):
        if not configuration <= deps.keys():
            return f"configuration {index} pebbles unknown nodes"
        if len(configuration) > budget:
            return f"configuration {index} uses {len(configuration)} > {budget} pebbles"
    for index in range(len(steps) - 1):
        before, after = steps[index], steps[index + 1]
        changed = before ^ after
        if single_move and len(changed) > 1:
            return f"step {index} makes {len(changed)} moves in single-move mode"
        for node in changed:
            for dependency in deps[node]:
                if dependency not in before or dependency not in after:
                    return f"step {index} moves {node} without its dependency"
    return None


def check_answer(
    answer: dict[str, object],
    shadow: dict[str, object],
    witness: list[list[str]] | None,
) -> str | None:
    """Return why ``answer`` is wrong, or ``None`` when it is correct."""
    if answer.get("error"):
        return f"error: {answer['error']}"
    source, budget, single_move = answer["class"]  # type: ignore[misc]
    outcome, steps = EXPECTED[(source, budget, single_move)]
    if answer["outcome"] != outcome:
        return f"outcome {answer['outcome']!r}, expected {outcome!r}"
    if answer["steps"] != steps:
        return f"{answer['steps']} steps, expected {steps}"
    if not answer["complete"]:
        return "the search did not run to its end"
    if answer["kind"] == "compile" and shadow.get("gate_level") and not answer["verified"]:
        return "the compiled circuit came back unverified"
    if outcome == "solution":
        if witness is None:
            return "no witness to replay"
        if len(witness) - 1 != steps:
            return f"the witness has {len(witness) - 1} steps, expected {steps}"
        return replay(shadow, witness, budget, single_move)
    return None


def answer_key(answer: dict[str, object]) -> str:
    """Identity of a service request, shared by its repeats."""
    return f"{answer['kind']}|{answer['path']}|{answer['class'][1]}"
