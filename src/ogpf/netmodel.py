"""Domain types for a multi-area integrated electrical-gas system.

Buses, lines, generators, gas nodes, pipelines and gas sources are stored as
frozen dataclasses; a :class:`NetworkInstance` validates the full system on
construction and is immutable afterwards, so it can be shared read-only across
concurrent solver runs.

In the JSON file format each collection is an array of objects whose keys are
the entity's fields (``from``/``to`` for endpoints), optional exactly when the
field has a default.

Pressures are modeled directly in squared-pressure units, so the static pipe
flow relation reads ``phi = sgn(psi_i - psi_j) * c_f * sqrt(|psi_i - psi_j|)``
with no unit-conversion layer. Units of ``psi`` and ``c_f`` are treated as
consistent but otherwise arbitrary.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import NamedTuple

from .errors import ParseError, ValidationError

GAS_FUELED = "gas_fueled"
NON_GAS_FUELED = "non_gas_fueled"


def _require_finite(value, what: str, owner: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{what} of {owner} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class Bus:
    """Electrical bus: demand and voltage-angle box, assigned to one area."""

    id: str
    area: int
    demand_e: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        _require_finite(self.demand_e, "demand_e", self.id)
        if self.demand_e < 0:
            raise ValidationError(f"bus {self.id}: demand_e must be >= 0")
        if not self.theta_min < self.theta_max:
            raise ValidationError(f"bus {self.id}: theta_min must be < theta_max")


@dataclass(frozen=True)
class PowerLine:
    """Transmission line between two buses. Tie-line status is derived from
    the endpoint areas, never stored."""

    from_bus: str
    to_bus: str
    reactance: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: self loop")
        if not self.reactance > 0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: reactance must be > 0"
            )


@dataclass(frozen=True)
class Generator:
    """Dispatchable generator, either gas-fueled or non-gas-fueled.

    Non-gas units carry a convex quadratic production cost (cost_c2 > 0);
    gas units instead carry a convex quadratic power-to-gas conversion
    (eta2 > 0) and the gas node where that consumption is withdrawn.
    """

    id: str
    bus: str
    kind: str
    p_min: float
    p_max: float
    cost_c2: float | None = None
    cost_c1: float | None = None
    cost_c0: float | None = None
    eta2: float | None = None
    eta1: float | None = None
    eta0: float | None = None
    gas_node: str | None = None

    def __post_init__(self):
        if self.kind not in (GAS_FUELED, NON_GAS_FUELED):
            raise ValidationError(f"generator {self.id}: unknown kind {self.kind!r}")
        if not self.p_min < self.p_max:
            raise ValidationError(f"generator {self.id}: p_min must be < p_max")
        cost = (self.cost_c2, self.cost_c1, self.cost_c0)
        eta = (self.eta2, self.eta1, self.eta0)
        if self.kind == NON_GAS_FUELED:
            if any(v is None for v in cost) or any(v is not None for v in eta):
                raise ValidationError(
                    f"generator {self.id}: non_gas_fueled units carry cost "
                    "coefficients only"
                )
            if self.gas_node is not None:
                raise ValidationError(
                    f"generator {self.id}: non_gas_fueled units have no gas_node"
                )
            if not self.cost_c2 > 0:
                raise ValidationError(f"generator {self.id}: cost_c2 must be > 0")
        else:
            if any(v is None for v in eta) or any(v is not None for v in cost):
                raise ValidationError(
                    f"generator {self.id}: gas_fueled units carry eta "
                    "coefficients only"
                )
            if self.gas_node is None:
                raise ValidationError(
                    f"generator {self.id}: gas_fueled units need a gas_node"
                )
            if not self.eta2 > 0:
                raise ValidationError(f"generator {self.id}: eta2 must be > 0")

    @property
    def is_gas(self) -> bool:
        return self.kind == GAS_FUELED


@dataclass(frozen=True)
class GasNode:
    """Gas network node: demand and squared-pressure box, assigned to one area."""

    id: str
    area: int
    demand_g: float
    psi_min: float
    psi_max: float

    def __post_init__(self):
        _require_finite(self.demand_g, "demand_g", self.id)
        if self.demand_g < 0:
            raise ValidationError(f"gas node {self.id}: demand_g must be >= 0")
        if not self.psi_min < self.psi_max:
            raise ValidationError(f"gas node {self.id}: psi_min must be < psi_max")


@dataclass(frozen=True)
class Pipeline:
    """Pipeline between two gas nodes, stored undirected.

    Internal pipes (both endpoints in one area) follow the square-root
    pressure-drop law and must carry a Weymouth constant; tie pipes (endpoints
    in different areas) are actively controlled and must not.
    """

    from_node: str
    to_node: str
    flow_cap: float
    weymouth_c: float | None = None

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise ValidationError(
                f"pipe {self.from_node}-{self.to_node}: self loop"
            )
        if not self.flow_cap > 0:
            raise ValidationError(
                f"pipe {self.from_node}-{self.to_node}: flow_cap must be > 0"
            )
        if self.weymouth_c is not None and not self.weymouth_c > 0:
            raise ValidationError(
                f"pipe {self.from_node}-{self.to_node}: weymouth_c must be > 0"
            )


@dataclass(frozen=True)
class GasSource:
    """Gas production unit (well) with linear cost."""

    id: str
    node: str
    g_min: float
    g_max: float
    cost_c1: float
    cost_c0: float

    def __post_init__(self):
        if not self.g_min < self.g_max:
            raise ValidationError(f"source {self.id}: g_min must be < g_max")
        if self.cost_c1 < 0 or self.cost_c0 < 0:
            raise ValidationError(f"source {self.id}: cost coefficients must be >= 0")


@dataclass(frozen=True)
class NetworkInstance:
    """Validated multi-area electrical-gas system.

    Attributes:
        num_areas: number of areas m; bus and gas-node areas are 1..m.
        buses, lines, generators, gas_nodes, pipelines, gas_sources: the
            physical system, in file order (orderings are load-bearing for
            deterministic model builds).

    On construction the full set of structural invariants is checked:
    connectivity of both networks, area partitions (every area has at least
    one bus and more than one gas node), and referential integrity of
    generators and sources. Instances are immutable after validation.
    """

    num_areas: int
    buses: tuple[Bus, ...]
    lines: tuple[PowerLine, ...]
    generators: tuple[Generator, ...]
    gas_nodes: tuple[GasNode, ...]
    pipelines: tuple[Pipeline, ...]
    gas_sources: tuple[GasSource, ...]

    def __post_init__(self):
        # normalize sequences to tuples so instances are genuinely immutable
        for name in _COLLECTIONS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _validate_instance(self)


def _check_unique(ids, what: str):
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"duplicate {what} id {i!r}")
        seen.add(i)


def _connected(nodes: set[str], edges) -> bool:
    if not nodes:
        return False
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    stack = [next(iter(nodes))]
    seen = set()
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n])
    return seen == nodes


def _validate_instance(inst: NetworkInstance):
    if inst.num_areas < 1:
        raise ValidationError("num_areas must be >= 1")
    m = inst.num_areas

    _check_unique((b.id for b in inst.buses), "bus")
    _check_unique((n.id for n in inst.gas_nodes), "gas node")
    _check_unique((g.id for g in inst.generators), "generator")
    _check_unique((s.id for s in inst.gas_sources), "gas source")

    bus_ids = {b.id for b in inst.buses}
    node_ids = {n.id for n in inst.gas_nodes}

    for b in inst.buses:
        if not 1 <= b.area <= m:
            raise ValidationError(f"bus {b.id}: area {b.area} outside 1..{m}")
    for n in inst.gas_nodes:
        if not 1 <= n.area <= m:
            raise ValidationError(f"gas node {n.id}: area {n.area} outside 1..{m}")

    for ln in inst.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in bus_ids:
                raise ValidationError(
                    f"line {ln.from_bus}-{ln.to_bus}: unknown bus {end!r}"
                )
    seen_pairs = set()
    for p in inst.pipelines:
        for end in (p.from_node, p.to_node):
            if end not in node_ids:
                raise ValidationError(
                    f"pipe {p.from_node}-{p.to_node}: unknown gas node {end!r}"
                )
        key = frozenset((p.from_node, p.to_node))
        if key in seen_pairs:
            raise ValidationError(
                f"pipe {p.from_node}-{p.to_node}: duplicate pipeline"
            )
        seen_pairs.add(key)

    node_map = {n.id: n for n in inst.gas_nodes}
    for p in inst.pipelines:
        internal = node_map[p.from_node].area == node_map[p.to_node].area
        if internal and p.weymouth_c is None:
            raise ValidationError(
                f"pipe {p.from_node}-{p.to_node}: internal pipe needs weymouth_c"
            )
        if not internal and p.weymouth_c is not None:
            raise ValidationError(
                f"pipe {p.from_node}-{p.to_node}: tie pipe must not carry weymouth_c"
            )

    for g in inst.generators:
        if g.bus not in bus_ids:
            raise ValidationError(f"generator {g.id}: unknown bus {g.bus!r}")
        if g.is_gas and g.gas_node not in node_ids:
            raise ValidationError(f"generator {g.id}: unknown gas node {g.gas_node!r}")
    for s in inst.gas_sources:
        if s.node not in node_ids:
            raise ValidationError(f"source {s.id}: unknown gas node {s.node!r}")

    bus_areas = {a: 0 for a in range(1, m + 1)}
    for b in inst.buses:
        bus_areas[b.area] += 1
    for a, count in bus_areas.items():
        if count == 0:
            raise ValidationError(f"area {a} has no buses")
    node_areas = {a: 0 for a in range(1, m + 1)}
    for n in inst.gas_nodes:
        node_areas[n.area] += 1
    for a, count in node_areas.items():
        if count <= 1:
            raise ValidationError(
                f"area {a}: area gas subgraph size must exceed 1 (has {count})"
            )

    if not _connected(bus_ids, ((l.from_bus, l.to_bus) for l in inst.lines)):
        raise ValidationError("electrical graph is not connected")
    if not _connected(node_ids, ((p.from_node, p.to_node) for p in inst.pipelines)):
        raise ValidationError("gas graph is not connected")


# ---------------------------------------------------------------------------
# file interface
# ---------------------------------------------------------------------------

# JSON key of each entity collection -> (entity class, label in messages)
_COLLECTIONS = {
    "buses": (Bus, "bus"),
    "lines": (PowerLine, "line"),
    "generators": (Generator, "generator"),
    "gas_nodes": (GasNode, "gas node"),
    "pipelines": (Pipeline, "pipe"),
    "gas_sources": (GasSource, "source"),
}
# the only fields whose file key differs from the field name
_FILE_KEY = {"from_bus": "from", "to_bus": "to", "from_node": "from",
             "to_node": "to"}
# JSON type and its name by annotation (a string); other fields are numbers
_TYPES = {"str": (str, "a string"), "str | None": (str, "a string"),
          "int": (int, "an integer")}


def _value(entry: dict, key: str, annotation: str, what: str):
    v = entry[key]
    typ, name = _TYPES.get(annotation, ((int, float), "a number"))
    if isinstance(v, bool) or not isinstance(v, typ):
        raise ParseError(f"{what}: field {key!r} must be {name}, got {v!r}")
    if annotation in _TYPES:
        return v
    if not math.isfinite(v):
        raise ParseError(f"{what}: field {key!r} must be finite")
    return float(v)


def _check_fields(entry: dict, allowed: set[str], required: set[str], what: str):
    got = set(entry)
    extra = got - allowed
    if extra:
        raise ParseError(f"{what}: unknown fields {sorted(extra)}")
    missing = required - got
    if missing:
        raise ParseError(f"{what}: missing fields {sorted(missing)}")


def _read(cls, label: str, entry: dict):
    """One entity from its file entry: the keys are the fields of ``cls``,
    required exactly when the field has no default."""
    keys = [(f, _FILE_KEY.get(f.name, f.name)) for f in fields(cls)]
    allowed = {key for _, key in keys}
    what = (f"{label} {entry.get('id')}" if "id" in allowed
            else f"{label} {entry.get('from')}-{entry.get('to')}")
    _check_fields(entry, allowed,
                  {key for f, key in keys if f.default is MISSING}, what)
    return cls(**{f.name: _value(entry, key, f.type, what)
                  for f, key in keys if key in entry})


def _entries(raw: dict, key: str) -> list[dict]:
    """The entries of collection ``key``, each a JSON object."""
    entries = raw[key]
    if not isinstance(entries, list):
        raise ParseError(f"{key} must be a list of objects")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{key}[{k}] must be an object, got {entry!r}")
    return entries


def load_instance(path) -> NetworkInstance:
    """Load and validate a network instance from a JSON file.

    Raises ParseError for malformed files and ValidationError (naming the
    violated invariant and the offending entity) for structurally invalid
    systems.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"instance file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("instance file must contain a JSON object")
    top = {"num_areas", *_COLLECTIONS}
    _check_fields(raw, top, top, "instance")
    if isinstance(raw["num_areas"], bool) or not isinstance(raw["num_areas"], int):
        raise ParseError("num_areas must be an integer")
    return NetworkInstance(raw["num_areas"], **{
        key: tuple(_read(cls, label, e) for e in _entries(raw, key))
        for key, (cls, label) in _COLLECTIONS.items()})


def save_instance(inst: NetworkInstance, path):
    """Write an instance back to the JSON file format (round-trips exactly):
    each entity's fields that are not None, in field order."""
    doc = {"num_areas": inst.num_areas}
    for key in _COLLECTIONS:
        doc[key] = [{_FILE_KEY.get(k, k): v for k, v in asdict(e).items()
                     if v is not None}
                    for e in getattr(inst, key)]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# edge classification
# ---------------------------------------------------------------------------

class EdgeClassification(NamedTuple):
    tie_lines: tuple[PowerLine, ...]
    tie_pipes: tuple[Pipeline, ...]
    internal_pipes: tuple[Pipeline, ...]


def classify_edges(inst: NetworkInstance) -> EdgeClassification:
    """Split edges into tie and internal sets by endpoint areas, each in
    file order."""
    bus_area = {b.id: b.area for b in inst.buses}
    node_area = {n.id: n.area for n in inst.gas_nodes}

    tie_lines = tuple(
        l for l in inst.lines if bus_area[l.from_bus] != bus_area[l.to_bus]
    )
    tie_pipes, internal_pipes = [], []
    for p in inst.pipelines:
        (tie_pipes if node_area[p.from_node] != node_area[p.to_node]
         else internal_pipes).append(p)
    return EdgeClassification(tie_lines, tuple(tie_pipes),
                              tuple(internal_pipes))


def scale_demands(inst: NetworkInstance, bus_factors, node_factors) -> NetworkInstance:
    """Return a copy with electrical and gas demands scaled entry-wise.

    ``bus_factors`` / ``node_factors`` are sequences aligned with
    ``inst.buses`` / ``inst.gas_nodes``.
    """
    buses = tuple(
        replace(b, demand_e=b.demand_e * f)
        for b, f in zip(inst.buses, bus_factors, strict=True)
    )
    nodes = tuple(
        replace(n, demand_g=n.demand_g * f)
        for n, f in zip(inst.gas_nodes, node_factors, strict=True)
    )
    return NetworkInstance(inst.num_areas, buses, inst.lines, inst.generators,
                           nodes, inst.pipelines, inst.gas_sources)
