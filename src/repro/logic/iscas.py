"""ISCAS-85 benchmark circuits: the real ``c17`` plus synthetic stand-ins.

Table I of the paper reports results on ISCAS-85 circuits whose dependency
DAGs were extracted as XOR-majority graphs with mockturtle.  The original
netlist files are not redistributable inside this offline reproduction, with
one exception: ``c17`` is six NAND gates and is printed in virtually every
textbook, so we include it verbatim.  For the larger circuits
(`c432` ... `c7552`) :func:`iscas_like_network` builds deterministic
*stand-ins*: layered random NAND/NOR/XOR networks with the same primary
input, primary output and (scaled) gate counts as the table rows.  The
pebbling experiment only consumes the dependency structure, so a stand-in
with matching size and shape statistics reproduces the qualitative
behaviour (see DESIGN.md, substitution table).

If the real ``.bench`` files are available, load them with
:func:`repro.logic.bench.network_from_bench` and pass the resulting network
to the same harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.logic.bench import parse_bench
from repro.logic.network import LogicNetwork

#: The most gates a scaled stand-in may have: about eight times c5315, the
#: largest circuit of Table I.  A larger scale is refused before anything
#: is generated.
MAX_GENERATED_GATES = 10_000

#: The genuine ISCAS-85 c17 netlist (six NAND gates).
C17_BENCH = """
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
""".strip()


@dataclass(frozen=True)
class IscasProfile:
    """Size profile of one ISCAS-85 circuit as used in Table I.

    ``nodes`` is the XMG node count the paper reports (the "nodes" column),
    which we use as the target gate count of the stand-in network.
    """

    name: str
    inputs: int
    outputs: int
    nodes: int
    depth: int


#: Paper's Table I rows for the ISCAS circuits (pi, po, nodes) plus a depth
#: estimate used to shape the synthetic stand-ins.
ISCAS_PROFILES: dict[str, IscasProfile] = {
    "c17": IscasProfile("c17", 5, 2, 12, 4),
    "c432": IscasProfile("c432", 36, 7, 208, 26),
    "c499": IscasProfile("c499", 41, 32, 219, 18),
    "c880": IscasProfile("c880", 60, 26, 334, 24),
    "c1355": IscasProfile("c1355", 41, 32, 219, 18),
    "c1908": IscasProfile("c1908", 33, 25, 220, 27),
    "c2670": IscasProfile("c2670", 157, 63, 554, 21),
    "c3540": IscasProfile("c3540", 50, 22, 856, 32),
    "c5315": IscasProfile("c5315", 178, 123, 1257, 26),
    "c6288": IscasProfile("c6288", 32, 32, 1011, 89),
    "c7552": IscasProfile("c7552", 207, 108, 1151, 28),
}


def list_iscas_names() -> list[str]:
    """Names of the ISCAS circuits referenced by Table I."""
    return list(ISCAS_PROFILES)


def c17_network() -> LogicNetwork:
    """Return the genuine c17 circuit."""
    return parse_bench(C17_BENCH, name="c17")


def iscas_like_network(
    name: str,
    *,
    scale: float = 1.0,
    seed: int | None = None,
) -> LogicNetwork:
    """Return a deterministic ISCAS-sized network.

    ``c17`` is always the real circuit.  For the other names a synthetic
    layered network is generated whose gate count is ``scale`` times the
    paper's node count (``scale < 1`` produces the laptop-sized instances
    used by the benchmark harness; ``scale = 1`` matches the paper's sizes).
    """
    if name not in ISCAS_PROFILES:
        raise WorkloadError(f"unknown ISCAS circuit {name!r}; valid: {list_iscas_names()}")
    if name == "c17":
        return c17_network()
    profile = ISCAS_PROFILES[name]
    if not scale > 0:  # NaN too
        raise WorkloadError("scale must be positive")
    gates = profile.nodes * scale
    if gates > MAX_GENERATED_GATES:
        raise WorkloadError(
            f"scale {scale:g} would generate {gates:.0f} gates for {name}; "
            f"a stand-in has at most {MAX_GENERATED_GATES}"
        )
    target_gates = max(2, int(round(gates)))
    # Primary inputs and outputs shrink along with the logic so that scaled
    # instances keep the original circuit's shape (a 20-gate cone with 32
    # primary outputs would be trivially un-pebbleable in any interesting way).
    target_inputs = max(2, min(profile.inputs, int(round(profile.inputs * scale)) or 2,
                               target_gates))
    target_outputs = max(1, min(profile.outputs, int(round(profile.outputs * scale)) or 1,
                                target_gates))
    target_depth = max(3, int(round(profile.depth * min(1.0, scale ** 0.5))))
    generation_seed = seed if seed is not None else _stable_seed(name)
    network = _layered_gate_network(
        name=f"{name}_like" if scale != 1.0 else name,
        num_inputs=target_inputs,
        num_outputs=target_outputs,
        num_gates=target_gates,
        depth=target_depth,
        seed=generation_seed,
    )
    return network


def _stable_seed(name: str) -> int:
    """A deterministic per-circuit seed (independent of PYTHONHASHSEED)."""
    value = 0
    for char in name:
        value = (value * 131 + ord(char)) % (2**31 - 1)
    return value


def _layered_gate_network(
    *,
    name: str,
    num_inputs: int,
    num_outputs: int,
    num_gates: int,
    depth: int,
    seed: int,
) -> LogicNetwork:
    """Build a layered random gate network with the requested size profile."""
    rng = random.Random(seed)
    network = LogicNetwork(name=name)
    inputs = [network.add_input(f"pi{i}") for i in range(num_inputs)]

    depth = max(1, min(depth, num_gates))
    layer_sizes = [1] * depth
    for _ in range(num_gates - depth):
        layer_sizes[rng.randrange(depth)] += 1

    gate_types = ["NAND", "NOR", "AND", "OR", "XOR"]
    weights = [0.35, 0.15, 0.2, 0.1, 0.2]
    previous_signals = list(inputs)
    all_signals = list(inputs)
    unconsumed: list[str] = []
    counter = 0
    for layer_index, size in enumerate(layer_sizes):
        current_layer: list[str] = []
        for _ in range(size):
            signal = f"g{counter}"
            counter += 1
            gate_type = rng.choices(gate_types, weights)[0]
            # Bias fan-ins towards signals nobody reads yet (real netlists
            # have no dangling logic), then towards the previous layer to
            # obtain realistic depth.
            fanins: list[str] = []
            for _ in range(2):
                if unconsumed and rng.random() < 0.6:
                    pool = unconsumed
                elif rng.random() < 0.75 or layer_index == 0:
                    pool = previous_signals
                else:
                    pool = all_signals
                fanins.append(rng.choice(pool))
            if fanins[0] == fanins[1]:
                alternatives = [s for s in all_signals if s != fanins[0]]
                if alternatives:
                    fanins[1] = rng.choice(alternatives)
            network.add_gate(signal, gate_type, list(dict.fromkeys(fanins)))
            for fanin in fanins:
                if fanin in unconsumed:
                    unconsumed.remove(fanin)
            current_layer.append(signal)
            all_signals.append(signal)
            unconsumed.append(signal)
        previous_signals = current_layer

    # Primary outputs: prefer the gates nobody reads (so that as little logic
    # as possible dangles), then fill the remaining slots with the deepest
    # signals.  Any gate that still ends up outside every output cone is
    # dropped when the network is converted to a pebbling DAG (see
    # repro.workloads.registry), mirroring the dangling-logic sweep every
    # synthesis tool performs.
    outputs = list(unconsumed[-num_outputs:])
    for signal in reversed(all_signals):
        if len(outputs) >= num_outputs:
            break
        if signal not in inputs and signal not in outputs:
            outputs.append(signal)
    for signal in outputs:
        network.add_output(signal)
    network.validate()
    return network
