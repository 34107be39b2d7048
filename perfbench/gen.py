"""Seeded multi-area instance generator for the ``scale`` workload.

Every area holds a chain of buses and a gas subgraph of ``nodes_per_area``
nodes. The gas subgraph is a random tree (each node hangs off a uniformly
chosen earlier node), or, for ``topology="mesh"``, that tree plus one extra
internal pipe that closes a cycle (``nodes_per_area`` must then be at least
3). Areas are joined in a chain by one tie line and one tie pipe each. Every
area has one non-gas unit, one gas-fueled unit drawing from a random node of
the area and one gas source at its first node.

Weymouth constants are drawn per pipe, so cycles are heterogeneous: their
relaxed flows generally admit no exact pressure assignment and recovery
returns ``Approximate``. Trees always admit one, so they certify ``Optimal``.
Pressure drops stay well inside the pressure boxes for the drawn ranges.

The instance is built as an ``ogpf.NetworkInstance``, so the program's own
validation runs on it.
"""

from __future__ import annotations

import numpy as np

import ogpf

TREE = "tree"
MESH = "mesh"
BUSES_PER_AREA = 3


def generate(seed: int, *, topology: str = TREE, num_areas: int = 2,
             nodes_per_area: int = 4) -> ogpf.NetworkInstance:
    """Build one validated instance; the same arguments give the same instance."""
    if topology not in (TREE, MESH):
        raise ValueError(f"unknown topology {topology!r}")
    rng = np.random.default_rng(seed)
    buses, lines, gens, nodes, pipes, sources = [], [], [], [], [], []

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    for a in range(1, num_areas + 1):
        bus_ids = [f"b{a}_{k}" for k in range(BUSES_PER_AREA)]
        for b in bus_ids:
            buses.append(ogpf.Bus(b, a, u(15.0, 40.0), -0.6, 0.6))
        for b0, b1 in zip(bus_ids, bus_ids[1:]):
            lines.append(ogpf.PowerLine(b0, b1, 0.004))

        node_ids = [f"n{a}_{k}" for k in range(nodes_per_area)]
        for n in node_ids:
            nodes.append(ogpf.GasNode(n, a, u(6.0, 14.0), 1.0, 900.0))
        linked = set()
        for k in range(1, nodes_per_area):
            parent = int(rng.integers(0, k))
            linked.add(frozenset((parent, k)))
            pipes.append(ogpf.Pipeline(node_ids[parent], node_ids[k], 200.0,
                                       weymouth_c=u(12.0, 20.0)))
        if topology == MESH:
            free = [(i, j) for i in range(nodes_per_area)
                    for j in range(i + 1, nodes_per_area)
                    if frozenset((i, j)) not in linked]
            i, j = free[int(rng.integers(0, len(free)))]
            pipes.append(ogpf.Pipeline(node_ids[i], node_ids[j], 200.0,
                                       weymouth_c=u(8.0, 20.0)))

        gens.append(ogpf.Generator(
            f"g{a}_c", bus_ids[0], "non_gas_fueled", 0.0, 150.0,
            cost_c2=u(1.0e-5, 2.0e-5), cost_c1=u(0.02, 0.027), cost_c0=0.0))
        gens.append(ogpf.Generator(
            f"g{a}_g", bus_ids[1], "gas_fueled", 0.0, u(50.0, 90.0),
            eta2=u(0.002, 0.004), eta1=u(0.85, 1.1), eta0=u(1.0, 2.0),
            gas_node=node_ids[int(rng.integers(0, nodes_per_area))]))
        sources.append(ogpf.GasSource(f"s{a}", node_ids[0], 0.0,
                                      u(160.0, 200.0), u(0.004, 0.009), 0.0))

        if a > 1:
            lines.append(ogpf.PowerLine(f"b{a - 1}_{BUSES_PER_AREA - 1}",
                                        bus_ids[0], 0.008))
            pipes.append(ogpf.Pipeline(f"n{a - 1}_{nodes_per_area - 1}",
                                       node_ids[0], 200.0))

    return ogpf.NetworkInstance(num_areas, tuple(buses), tuple(lines),
                                tuple(gens), tuple(nodes), tuple(pipes),
                                tuple(sources))
