"""Solution recovery: a region configuration from first-stage flows,
pressure recomputation by minimizing the infinity norm of the flow
equalities (``pwa_flow`` rows) of the paper's model at that configuration,
certification and flow-deviation metrics.

With the flows fixed, each ``pwa_flow`` row fixes the difference of its two
end pressures. On a pipe forest the pressures are therefore propagated from
one node per component, each component at the lowest offset its boxes
allow, and the norm closes to rounding; a cycle, or boxes that leave a
component no offset, go to an epigraph linear program (HiGHS).

Stage 2 recovers the binaries in the form the oracle enumerates: one active
region per internal pipe, a configuration ``{pipe: region}``.
``mipbuild.config_model`` reads the paper's model at that configuration
off the stage-1 model; the pressure problem is its ``pwa_flow`` rows with
the flows fixed, and the assembled point is checked against it.
The region follows the flow's sign (the sign binary is 1 exactly when the
oriented flow is nonnegative, the only orientation under which the flow
equality is consistent); at a flow exactly on a shared breakpoint the active
region follows the sign binary's side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import CertificationBug, OutOfRange, SolverFailure
from .mipbuild import (COL, EQ, IN, PHI, PSI, QUAD, StandardModel, VarIndex,
                       check_point)
from .pwa import PwaCurve

CERT_OPTIMAL = "Optimal"
CERT_APPROXIMATE = "Approximate"

# flow-sign tolerance of the recovery and floor of the certification re-check
FEAS_TOL = 1e-6
# pressure drop below which a Weymouth deviation is reported as absolute
PRESS_TOL = 1e-9
# relative spread within which flow-equality mismatches tie in worst_pipes
_TIE_REL = 1e-9


def recover_binaries(phi_star: dict[tuple[str, str], float],
                     curves: dict[tuple[str, str], PwaCurve]
                     ) -> dict[tuple[str, str], int]:
    """Read the region configuration off the first-stage flows.

    One region per internal pipe (i, j) of ``curves``, read off the flow
    ``phi_star[i, j]``: the region containing the flow, with a flow on a
    breakpoint taking the region on the sign binary's side (above it for
    ``phi >= 0``, below it otherwise). Reading each pipe off one orientation
    keeps the sign link exact even for flows of magnitude below solver noise.
    Raises OutOfRange when a flow exceeds the approximated range beyond
    ``FEAS_TOL``.
    """
    config: dict[tuple[str, str], int] = {}
    for key, curve in curves.items():
        phi = float(phi_star[key])
        cap = curve.phi_cap
        if abs(phi) > cap + FEAS_TOL:
            raise OutOfRange(
                f"flow {phi} on {key} outside [-{cap}, {cap}]")
        config[key] = curve.region(min(max(phi, -cap), cap))
    return config


# ---------------------------------------------------------------------------
# pressure recomputation
# ---------------------------------------------------------------------------

@dataclass
class PressureLp:
    """The infinity-norm pressure problem ``min |a psi - b|_inf`` over the
    boxes ``lo <= psi <= hi`` of the pressures of ``nodes``.

    ``a psi = b`` are a configuration model's ``pwa_flow`` rows, one per
    internal pipe, with every column but the pressures fixed at ``point``;
    ``columns`` are the pressures' columns, in the order of ``nodes``. Each
    row has two entries, of opposite sign, on its pipe's end pressures, so
    ``solve_pressure_lp`` propagates the pressures where the rows form a
    forest and solves an LP only otherwise.
    """

    nodes: list[str]
    columns: np.ndarray
    point: np.ndarray
    a: sp.csr_matrix
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def build_pressure_lp(u0: np.ndarray, phi_star: dict[tuple[str, str], float],
                      *, model: StandardModel, index: VarIndex) -> PressureLp:
    """The pressure problem of a configuration model at the stage-1 point
    ``u0``, its internal flows taken at the symmetrized ``phi_star``."""
    point = np.array(u0, dtype=float)
    point[[index.col(PHI, key) for key in phi_star]] = list(phi_star.values())
    psi = index.columns(PSI)
    entities = index.entities
    nodes = [entities[e][1] for e in index.owners(COL)[psi]]
    rows = index.rows(EQ, "pwa_flow")
    a = model.a_eq[rows]
    fixed = point.copy()
    fixed[psi] = 0.0
    return PressureLp(nodes, psi, point, a[:, psi],
                      model.b_eq[rows] - a @ fixed, model.lb[psi],
                      model.ub[psi])


def propagate_pressures(lp: PressureLp) -> np.ndarray | None:
    """The pressures of a forest of difference rows, or None.

    Applies when every row of ``lp.a`` reads ``c (psi_i - psi_j) = b`` on
    two distinct nodes and a traversal from one node per component uses
    every row, that is, when the rows form a spanning forest of the nodes.
    The rows then fix each component's pressures up to one offset, and each
    component takes the lowest offset its boxes allow, so a node without
    rows sits at its lower bound. Returns None, for the LP to decide, on
    rows of any other shape, a cycle (parallel rows included), or a
    component whose boxes leave no offset.
    """
    a = lp.a
    n = len(lp.nodes)
    if not (np.diff(a.indptr) == 2).all():
        return None
    ends, coef = a.indices.reshape(-1, 2), a.data.reshape(-1, 2)
    if (ends[:, 0] == ends[:, 1]).any() or (coef[:, 0] != -coef[:, 1]).any():
        return None
    # psi_i - psi_j = drop: the row's target in its first node's sign
    drop = (lp.b / coef[:, 0]).tolist()
    adjacent: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    for row, (i, j) in enumerate(ends.tolist()):
        adjacent[i].append((j, row, -1.0))
        adjacent[j].append((i, row, 1.0))
    rel = [0.0] * n        # pressure relative to the component's root
    root = [-1] * n
    used = [False] * len(drop)
    for start in range(n):
        if root[start] >= 0:
            continue
        root[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v, row, sign in adjacent[u]:
                if used[row]:
                    continue
                if root[v] >= 0:
                    return None
                used[row] = True
                root[v] = start
                rel[v] = rel[u] + sign * drop[row]
                stack.append(v)
    rel_arr, comp = np.array(rel), np.array(root)
    low = np.full(n, -np.inf)
    high = np.full(n, np.inf)
    np.maximum.at(low, comp, lp.lo - rel_arr)
    np.minimum.at(high, comp, lp.hi - rel_arr)
    offset = low[comp]
    if not (np.isfinite(offset).all() and (offset <= high[comp]).all()):
        return None
    return np.clip(rel_arr + offset, lp.lo, lp.hi)


def solve_pressure_lp(lp: PressureLp) -> tuple[np.ndarray, float]:
    """Minimize the worst row mismatch over the pressure boxes.

    Returns the recomputed squared pressures, in the order of ``lp.nodes``,
    and the achieved infinity norm, evaluated directly at the solution. On
    a forest whose boxes admit an offset per component the pressures are
    propagated exactly (``propagate_pressures``) and the norm closes to
    rounding. Otherwise, on a cycle or where the boxes bind, the problem is
    solved in epigraph form as a plain LP (HiGHS), which returns vertex
    solutions, so consistent targets come back with a norm at numerical
    zero.
    """
    psi = propagate_pressures(lp)
    if psi is None:
        n = len(lp.nodes)
        e_rows = lp.a.toarray()
        k = e_rows.shape[0]
        # columns: psi (n), t (1)
        minus_t = -np.ones((k, 1))
        a_ub = np.block([[e_rows, minus_t], [-e_rows, minus_t]])
        b_ub = np.concatenate([lp.b, -lp.b])
        c = np.append(np.zeros(n), 1.0)
        bnds = [(lp.lo[i], lp.hi[i]) for i in range(n)] + [(0.0, None)]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bnds, method="highs")
        if res.status != 0:
            raise SolverFailure(
                f"pressure LP unexpectedly failed: {res.message}")
        psi = res.x[:n]
    return psi, float(np.abs(lp.a @ psi - lp.b).max(initial=0.0))


# ---------------------------------------------------------------------------
# assembly and certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    kind: str      # CERT_OPTIMAL | CERT_APPROXIMATE
    bound: float   # worst flow-equality violation (the pressure optimum)

    @property
    def is_optimal(self) -> bool:
        return self.kind == CERT_OPTIMAL


@dataclass
class RecoveryResult:
    """Outcome of the second stage.

    ``configuration`` is the recovered region per internal pipe, keyed by
    its ``(from_node, to_node)``. ``u_star`` lies on the configuration
    model's columns, those of the stage-1 model: the stage-1 point with the
    internal flows symmetrized and the pressures recomputed, every other
    component bit for bit. The certificate is Optimal exactly when the
    pressure problem closed to within ``cert_tol``; in that case the point
    has passed an independent check of every row and box of the
    configuration model.
    """

    configuration: dict[tuple[str, str], int]
    psi_tilde: dict[str, float]
    certificate: Certificate
    u_star: np.ndarray
    deviations: dict = field(default_factory=dict)
    # Approximate only: up to three [pwa_flow row label, mismatch] pairs
    # above cert_tol, largest first, ties (within 1e-9 relative) in row order
    worst_pipes: list = field(default_factory=list)


def assemble_and_certify(lp: PressureLp, psi_tilde: np.ndarray,
                         configuration: dict[tuple[str, str], int],
                         cert_tol: float, *, model: StandardModel,
                         index: VarIndex, feas_tol: float) -> RecoveryResult:
    """Assemble the final point, ``lp.point`` with the pressures
    ``psi_tilde``, and certify it on the configuration model ``model``.

    The certificate bound is the pressure objective at the assembled point,
    the worst residual of the ``pwa_flow`` rows; it is Optimal iff the bound
    is at most ``cert_tol``. A certified point is re-checked against every
    row and box of the model at ``feas_tol``, which the caller sets to
    ``FEAS_TOL`` widened to the stage-1 residual (CertificationBug on
    failure, which would indicate an implementation error: cost-relevant
    components are untouched, the recovered regions hold the flows, and a
    closed pressure problem meets the flow equalities).
    """
    # only the pressures are written, so the others keep the point bit for bit
    u_star = lp.point.copy()
    u_star[lp.columns] = psi_tilde
    rows = index.rows(EQ, "pwa_flow")
    mismatch = np.abs(model.a_eq[rows] @ u_star - model.b_eq[rows])
    bound = float(mismatch.max(initial=0.0))
    cert = Certificate(CERT_OPTIMAL if bound <= cert_tol else CERT_APPROXIMATE,
                       bound)
    worst = [[index.row_name(EQ, rows[k]), float(mismatch[k])]
             for k in _worst_rows(mismatch, cert_tol)]
    result = RecoveryResult(dict(configuration),
                            dict(zip(lp.nodes, psi_tilde.tolist())), cert,
                            u_star, worst_pipes=worst)
    if cert.is_optimal:
        rep = check_point(model, u_star, feas_tol * (1.0 + 1e-9))
        if not rep.ok:
            where = [(index.row_name(block, k) if block in (EQ, IN, QUAD)
                      else f"{block}[{index.name(k)}]", v)
                     for block, k, v in rep.worst[:3]]
            raise CertificationBug(f"certified point violates {where}")
    return result


def _worst_rows(mismatch: np.ndarray, cert_tol: float) -> list[int]:
    """Positions of up to three mismatches above ``cert_tol``, largest
    first. Mismatches within ``_TIE_REL`` of the largest one left are ties
    and come in row order: the pressure LP equalizes the mismatches around
    a cycle, and rounding at 1e-13 must not pick the pipes named."""
    left = np.flatnonzero(mismatch > cert_tol)
    out: list[int] = []
    while left.size and len(out) < 3:
        tied = mismatch[left] >= mismatch[left].max() * (1.0 - _TIE_REL)
        out += left[tied].tolist()
        left = left[~tied]
    return out[:3]


def weymouth_deviation(phi_star: dict[tuple[str, str], float],
                       psi_tilde: dict[str, float],
                       c_f: dict[tuple[str, str], float]) -> dict:
    """Relative mismatch between decided flows and the square-root pressure
    law at the recovered pressures.

    For each directed internal pipe the reference flow is
    ``sgn(psi_i - psi_j) * c_f * sqrt(|psi_i - psi_j|)``; the deviation is
    the relative error against it. Below ``PRESS_TOL`` of pressure difference
    the ratio is undefined and the absolute residual (the flow itself) is
    returned, flagged ``absolute``.
    """
    out = {}
    for key, phi in phi_star.items():
        d = psi_tilde[key[0]] - psi_tilde[key[1]]
        if abs(d) < PRESS_TOL:
            out[key] = {"value": float(phi), "kind": "absolute"}
            continue
        ref = np.sign(d) * c_f[key] * np.sqrt(abs(d))
        out[key] = {"value": float((phi - ref) / ref), "kind": "relative"}
    return out


def _relative_values(deviations: dict) -> list[float]:
    return [abs(e["value"]) for e in deviations.values()
            if e["kind"] == "relative"]


def mean_abs_deviation(deviations: dict) -> float:
    """Mean absolute relative deviation; ``absolute`` entries (flows across
    a vanishing pressure drop) are in flow units and are left out."""
    values = _relative_values(deviations)
    return float(np.mean(values)) if values else 0.0


def max_abs_deviation(deviations: dict) -> float:
    """Largest absolute relative deviation; ``absolute`` entries are left
    out."""
    values = _relative_values(deviations)
    return float(np.max(values)) if values else 0.0
