"""Independent checks of solver outputs, worked out from the instance data.

Nothing here calls the program's own feasibility check or model rows: the
balances, boxes, chords and objective are recomputed from the
``NetworkInstance`` fields. The program's ``VarIndex`` is used only to read
values out of the returned point.

Each ``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np

# relative tolerance on balances, boxes and reciprocity; consensus stops at
# its own primal residual (1e-6 of each boundary variable's box magnitude),
# so its points are only that feasible
EQ_TOL = {"centralized": 1e-7, "consensus": 1e-4}
CERT_TOL = 1e-8        # solve_two_stage's default certificate threshold
BOUND_TOL = 1e-9       # reported Approximate bound vs. recomputed residual
DEV_TOL = 1e-7         # deviation bracket and reported-vs-recomputed deviations
OBJ_TOL = 1e-9         # objective recomputation, relative
CONSENSUS_OBJ_TOL = 1e-4
ORACLE_OBJ_TOL = 1e-9
PRESS_TOL = 1e-9       # below this pressure difference a deviation is absolute


def _rel(value: float, scale: float) -> float:
    return abs(value) / (1.0 + abs(scale))


def chords(c_f: float, phi_cap: float, r: int) -> list[tuple[float, float, float, float]]:
    """``(lo, hi, a, b)`` of each chord of ``phi**2 / c_f**2`` on a uniform grid."""
    width = 2.0 * phi_cap / r
    out = []
    for m in range(r):
        lo = -phi_cap + m * width
        hi = phi_cap if m == r - 1 else -phi_cap + (m + 1) * width
        if m == r // 2 - 1:
            hi = 0.0
        if m == r // 2:
            lo = 0.0
        out.append((lo, hi, (lo + hi) / c_f ** 2, -lo * hi / c_f ** 2))
    return out


def chord_value(phi: float, table) -> float:
    for lo, hi, a, b in table:
        if lo <= phi <= hi:
            return a * phi + b
    raise ValueError(f"flow {phi} outside the chord grid")


def internal_pipes(inst) -> list:
    area = {n.id: n.area for n in inst.gas_nodes}
    return [p for p in inst.pipelines if area[p.from_node] == area[p.to_node]]


def has_cycle(inst) -> bool:
    """True when some area's internal gas graph is not a forest."""
    parent = {n.id: n.id for n in inst.gas_nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for p in internal_pipes(inst):
        a, b = find(p.from_node), find(p.to_node)
        if a == b:
            return True
        parent[a] = b
    return False


def objective(inst, x, index) -> float:
    total = 0.0
    for g in inst.generators:
        if not g.is_gas:
            p = x[index.col("p", g.id)]
            total += g.cost_c2 * p * p + g.cost_c1 * p + g.cost_c0
    for s in inst.gas_sources:
        total += s.cost_c1 * x[index.col("gs", s.id)] + s.cost_c0
    return float(total)


def _flow(x, index, a, b) -> float:
    """Symmetrized flow a->b, the mean of the two orientations' readings."""
    return 0.5 * (float(x[index.col("phi", (a, b))])
                  - float(x[index.col("phi", (b, a))]))


def check_feasibility(inst, x, index, tol: float) -> list[str]:
    """Balances, boxes, conversion curves and flow reciprocity at ``x``."""
    bad = []
    val = lambda kind, owner: float(x[index.col(kind, owner)])  # noqa: E731

    def box(what, v, lo, hi):
        if v < lo - tol * (1.0 + abs(lo)) or v > hi + tol * (1.0 + abs(hi)):
            bad.append(f"{what}={v:.12g} outside [{lo}, {hi}]")

    for b in inst.buses:
        box(f"theta[{b.id}]", val("theta", b.id), b.theta_min, b.theta_max)
    for g in inst.generators:
        p = val("p", g.id)
        box(f"p[{g.id}]", p, g.p_min, g.p_max)
        dgu = val("dgu", g.id)
        if g.is_gas:
            need = g.eta2 * p * p + g.eta1 * p + g.eta0
            if (need - dgu) / (1.0 + abs(need)) > tol:
                bad.append(f"gas use of {g.id}: {dgu:.12g} < {need:.12g}")
        elif dgu != 0.0:
            bad.append(f"non-gas unit {g.id} burns gas {dgu!r}")
    for s in inst.gas_sources:
        box(f"gs[{s.id}]", val("gs", s.id), s.g_min, s.g_max)
    for n in inst.gas_nodes:
        box(f"psi[{n.id}]", val("psi", n.id), n.psi_min, n.psi_max)
    for p in inst.pipelines:
        for a, b in ((p.from_node, p.to_node), (p.to_node, p.from_node)):
            box(f"phi[{a}->{b}]", val("phi", (a, b)), -p.flow_cap, p.flow_cap)
        fwd, back = val("phi", (p.from_node, p.to_node)), \
            val("phi", (p.to_node, p.from_node))
        if _rel(fwd + back, p.flow_cap) > tol:
            bad.append(f"reciprocity {p.from_node}-{p.to_node}: {fwd!r} vs {back!r}")

    # power balance with DC line flows (theta_i - theta_j) / X
    inject = {b.id: 0.0 for b in inst.buses}
    scale = {b.id: b.demand_e for b in inst.buses}
    for g in inst.generators:
        inject[g.bus] += val("p", g.id)
    for ln in inst.lines:
        f = (val("theta", ln.from_bus) - val("theta", ln.to_bus)) / ln.reactance
        inject[ln.from_bus] -= f
        inject[ln.to_bus] += f
        scale[ln.from_bus] = max(scale[ln.from_bus], abs(f))
        scale[ln.to_bus] = max(scale[ln.to_bus], abs(f))
    for b in inst.buses:
        if _rel(inject[b.id] - b.demand_e, scale[b.id]) > tol:
            bad.append(f"power balance at {b.id}: {inject[b.id]:.12g} "
                       f"vs demand {b.demand_e:.12g}")

    # gas balance: production - gas-fueled use - outflows = demand
    net = {n.id: 0.0 for n in inst.gas_nodes}
    gscale = {n.id: n.demand_g for n in inst.gas_nodes}
    for s in inst.gas_sources:
        net[s.node] += val("gs", s.id)
    for g in inst.generators:
        if g.is_gas:
            net[g.gas_node] -= val("dgu", g.id)
    for p in inst.pipelines:
        for a, b in ((p.from_node, p.to_node), (p.to_node, p.from_node)):
            f = val("phi", (a, b))
            net[a] -= f
            gscale[a] = max(gscale[a], abs(f))
    for n in inst.gas_nodes:
        if _rel(net[n.id] - n.demand_g, gscale[n.id]) > tol:
            bad.append(f"gas balance at {n.id}: {net[n.id]:.12g} "
                       f"vs demand {n.demand_g:.12g}")
    return bad


def chord_residuals(inst, x, index, r: int) -> dict[tuple[str, str], float]:
    """Per internal pipe, ``|s (psi_i - psi_j) - chord(phi)|`` with ``s`` the
    flow sign: the linearized flow equality at the returned point."""
    out = {}
    for p in internal_pipes(inst):
        i, j = p.from_node, p.to_node
        phi = min(max(_flow(x, index, i, j), -p.flow_cap), p.flow_cap)
        sign = 1.0 if phi >= 0.0 else -1.0
        drop = float(x[index.col("psi", i)]) - float(x[index.col("psi", j)])
        target = chord_value(phi, chords(p.weymouth_c, p.flow_cap, r))
        out[(i, j)] = abs(sign * drop - target)
    return out


def deviations(inst, x, index) -> dict[tuple[str, str], tuple[float, float | None]]:
    """Per directed internal pipe: ``(phi, relative deviation)`` of the flow
    from ``sgn(dpsi) c_f sqrt(|dpsi|)``; the deviation is None where the
    pressure difference is below ``PRESS_TOL``."""
    out = {}
    for p in internal_pipes(inst):
        for a, b in ((p.from_node, p.to_node), (p.to_node, p.from_node)):
            phi = _flow(x, index, a, b)
            d = float(x[index.col("psi", a)]) - float(x[index.col("psi", b)])
            if abs(d) < PRESS_TOL:
                out[(a, b)] = (phi, None)
                continue
            ref = math.copysign(p.weymouth_c * math.sqrt(abs(d)), d)
            out[(a, b)] = (phi, (phi - ref) / ref)
    return out


def check_two_stage(inst, r: int, res, mode: str) -> tuple[list[str], float]:
    """Check one two-stage result; returns the problems found and the mean
    absolute relative deviation of the flows from the square-root law."""
    x = np.asarray(res.recovery.u_star, dtype=float)
    index = res.index
    bad = check_feasibility(inst, x, index, EQ_TOL[mode])

    obj = objective(inst, x, index)
    if _rel(obj - res.objective, obj) > OBJ_TOL:
        bad.append(f"objective {res.objective!r} != recomputed {obj!r}")

    residuals = chord_residuals(inst, x, index, r)
    worst = max(residuals.values(), default=0.0)
    cert = res.certificate
    if cert.kind == "Optimal":
        # 0.1% slack for the rounding between this and the program's row sums
        if worst > CERT_TOL * 1.001:
            bad.append(f"Optimal but chord residual {worst:.3e}")
    elif cert.kind == "Approximate":
        if abs(cert.bound - worst) > BOUND_TOL * (1.0 + worst):
            bad.append(f"bound {cert.bound!r} != worst chord residual {worst!r}")
    else:
        bad.append(f"unknown certificate {cert.kind!r}")

    width = {}
    for p in internal_pipes(inst):
        w = 2.0 * p.flow_cap / r
        width[(p.from_node, p.to_node)] = width[(p.to_node, p.from_node)] = w
    mine = deviations(inst, x, index)
    reported = res.recovery.deviations
    if set(reported) != set(mine):
        bad.append("deviations reported for a different pipe set")
        return bad, math.nan
    for key, (phi, dev) in mine.items():
        entry = reported[key]
        if dev is None:
            if entry["kind"] != "absolute":
                bad.append(f"deviation kind of {key}: {entry['kind']}")
            continue
        if entry["kind"] != "relative" or abs(entry["value"] - dev) > DEV_TOL:
            bad.append(f"deviation of {key}: reported {entry['value']!r}, "
                       f"recomputed {dev!r}")
        if cert.kind == "Optimal":
            lo = abs(phi) / math.sqrt(phi * phi + width[key] ** 2 / 4.0) - 1.0
            if not lo - DEV_TOL <= dev <= DEV_TOL:
                bad.append(f"deviation {dev!r} of {key} outside [{lo!r}, 0]")
    # the mean skips pipes whose recovered pressure drop is zero: there the
    # program reports the flow itself, which is not a relative error
    rel = [abs(dev) for _, dev in mine.values() if dev is not None]
    return bad, float(np.mean(rel)) if rel else 0.0


def check_consensus(central_objective: float, res) -> list[str]:
    if abs(res.objective - central_objective) > \
            CONSENSUS_OBJ_TOL * abs(central_objective):
        return [f"consensus objective {res.objective!r} vs centralized "
                f"{central_objective!r}"]
    return []


def check_oracle(inst, r: int, oracle, two_stage_objective: float) -> list[str]:
    bad = []
    expected = r ** len(internal_pipes(inst))
    if oracle.num_configurations != expected or len(oracle.log) != expected:
        bad.append(f"enumerated {oracle.num_configurations} configurations "
                   f"({len(oracle.log)} logged), expected {expected}")
    best = oracle.best_objective
    gap = two_stage_objective - best
    tol = ORACLE_OBJ_TOL * (1.0 + abs(best))
    if has_cycle(inst):
        if gap > tol:
            bad.append(f"two-stage {two_stage_objective!r} above oracle {best!r}")
    elif abs(gap) > tol:
        bad.append(f"two-stage {two_stage_objective!r} != oracle {best!r}")
    return bad
