"""Solution recovery: a region configuration from first-stage flows,
pressure recomputation via an infinity-norm linear program, certification and
flow-deviation metrics.

Stage 2 recovers the binaries in the form the oracle enumerates: one active
region per undirected pipe, a configuration ``{stored orientation:
region}``. ``pwa.config_columns`` turns it into the binaries and product
auxiliaries of both orientations. The sign binary is 1 exactly when the
oriented flow is nonnegative, matching the logic blocks of the constraint
model (the flow equality is only consistent under this orientation); at a
flow exactly on a shared breakpoint the active region follows the sign
binary's side.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import CertificationBug, OutOfRange, SolverFailure
from .mipbuild import (EQ, IN, PHI, PSI, QUAD, StandardModel, VarIndex,
                       check_point)
from .pwa import PwaCurve, config_columns, orientation_regions

CERT_OPTIMAL = "Optimal"
CERT_APPROXIMATE = "Approximate"

# flow-sign tolerance of the recovery and floor of the certification re-check
FEAS_TOL = 1e-6
# pressure drop below which a Weymouth deviation is reported as absolute
PRESS_TOL = 1e-9


def recover_binaries(phi_star: dict[tuple[str, str], float],
                     curves: dict[tuple[str, str], PwaCurve]
                     ) -> dict[tuple[str, str], int]:
    """Read the region configuration off the first-stage flows.

    One region per undirected pipe, read off the flow of its first-listed
    (stored) orientation: the region containing the flow, with a flow on a
    breakpoint taking the region on the sign binary's side (above it for
    ``phi >= 0``, below it otherwise). Reading each pair off one orientation
    keeps the sign link exact even for flows of magnitude below solver noise.
    Raises OutOfRange when a flow exceeds the approximated range beyond
    ``FEAS_TOL``.
    """
    config: dict[tuple[str, str], int] = {}
    for key, curve in curves.items():
        if (key[1], key[0]) in config:
            continue
        phi = float(phi_star[key])
        cap = curve.phi_cap
        if abs(phi) > cap + FEAS_TOL:
            raise OutOfRange(
                f"flow {phi} on {key} outside [-{cap}, {cap}]")
        phi = min(max(phi, -cap), cap)
        side = bisect_right if phi >= 0.0 else bisect_left
        config[key] = min(max(side(curve.breakpoints, phi), 1), curve.r)
    return config


# ---------------------------------------------------------------------------
# pressure recomputation
# ---------------------------------------------------------------------------

@dataclass
class PressureLp:
    """Epigraph form of the infinity-norm pressure problem.

    One row per directed internal pipe: the signed node-incidence row
    ``(2*delta_psi - 1) * (psi_i - psi_j)`` against the active-segment value
    of the first-stage flow. ``min t  s.t.  -t <= E psi - theta <= t`` within
    the pressure boxes; always feasible for nonempty boxes.
    """

    nodes: list[str]
    pipes: list[tuple[str, str]]
    e_rows: np.ndarray
    theta: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def build_pressure_lp(configuration: dict[tuple[str, str], int],
                      phi_star: dict[tuple[str, str], float],
                      curves: dict[tuple[str, str], PwaCurve],
                      bounds: dict[str, tuple[float, float]]) -> PressureLp:
    """Assemble the incidence rows and active-segment targets, one row per
    orientation of every pipe in the configuration."""
    nodes = list(bounds)
    pos = {node: k for k, node in enumerate(nodes)}
    orientations = list(orientation_regions(configuration, curves))
    pipes = [key for key, _, _ in orientations]
    e_rows = np.zeros((len(pipes), len(nodes)))
    theta = np.zeros(len(pipes))
    for k, (key, region, delta_psi) in enumerate(orientations):
        sign = 2.0 * delta_psi - 1.0
        e_rows[k, pos[key[0]]] = sign
        e_rows[k, pos[key[1]]] = -sign
        seg = curves[key].segments[region - 1]
        theta[k] = seg.a * float(phi_star[key]) + seg.b
    lo = np.array([bounds[nd][0] for nd in nodes])
    hi = np.array([bounds[nd][1] for nd in nodes])
    return PressureLp(nodes, pipes, e_rows, theta, lo, hi)


def solve_pressure_lp(lp: PressureLp) -> tuple[dict[str, float], float]:
    """Minimize the worst row mismatch over the pressure boxes.

    Returns the recomputed squared pressures and the achieved infinity norm,
    evaluated directly at the solution. Solved as a plain LP (HiGHS), which
    returns vertex solutions, so consistent targets come back with a norm at
    numerical zero.
    """
    n = len(lp.nodes)
    k = lp.e_rows.shape[0]
    if k == 0:
        psi = {nd: float(np.clip(0.0, lp.lo[i], lp.hi[i]))
               for i, nd in enumerate(lp.nodes)}
        return psi, 0.0
    # columns: psi (n), t (1)
    a_ub = np.vstack([
        np.hstack([lp.e_rows, -np.ones((k, 1))]),
        np.hstack([-lp.e_rows, -np.ones((k, 1))]),
    ])
    b_ub = np.concatenate([lp.theta, -lp.theta])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    bnds = [(lp.lo[i], lp.hi[i]) for i in range(n)] + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bnds, method="highs")
    if res.status != 0:
        raise SolverFailure(f"pressure LP unexpectedly failed: {res.message}")
    psi_vec = res.x[:n]
    j_psi = float(np.abs(lp.e_rows @ psi_vec - lp.theta).max())
    psi = {nd: float(psi_vec[i]) for i, nd in enumerate(lp.nodes)}
    return psi, j_psi


# ---------------------------------------------------------------------------
# assembly and certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    kind: str      # CERT_OPTIMAL | CERT_APPROXIMATE
    bound: float   # worst flow-equality violation (the LP optimum)

    @property
    def is_optimal(self) -> bool:
        return self.kind == CERT_OPTIMAL


@dataclass
class RecoveryResult:
    """Outcome of the second stage.

    ``configuration`` is the recovered region per undirected pipe, keyed by
    its stored orientation. ``u_star`` keeps every first-stage component
    bit-for-bit and replaces only the pressures, product auxiliaries and
    binaries. The certificate is Optimal exactly when the pressure problem
    closed to within ``cert_tol``; in that case the point has passed an
    independent full-constraint check.
    """

    configuration: dict[tuple[str, str], int]
    psi_tilde: dict[str, float]
    j_psi: float
    certificate: Certificate
    u_star: np.ndarray
    deviations: dict = field(default_factory=dict)
    # Approximate only: up to three [pwa_flow row label, mismatch] pairs
    # above cert_tol, largest first
    worst_pipes: list = field(default_factory=list)


def assemble_and_certify(u0: np.ndarray,
                         configuration: dict[tuple[str, str], int],
                         psi_tilde: dict[str, float],
                         phi_star: dict[tuple[str, str], float],
                         cert_tol: float, *, model: StandardModel,
                         index: VarIndex, feas_tol: float) -> RecoveryResult:
    """Assemble the final point and certify it.

    Writes the recovered pressures, then the binaries and product
    auxiliaries that ``pwa.config_columns`` derives from the configuration;
    the auxiliaries are evaluated at the stage-1 point with the recovered
    pressures and the symmetrized flows ``phi_star``.

    The certificate is Optimal iff the pressure objective is at most
    ``cert_tol``; a certified point is re-checked against every model row at
    ``feas_tol``, which the caller sets to ``FEAS_TOL`` widened to the
    stage-1 residual (CertificationBug on failure, which would indicate an
    implementation error, since cost-relevant components are untouched and
    the recovered gas-side components satisfy the logic blocks by
    construction).
    """
    u_star = np.asarray(u0, dtype=float).copy()
    for node, val in psi_tilde.items():
        u_star[index.col(PSI, node)] = val
    point = u_star.copy()
    for key, phi in phi_star.items():
        point[index.col(PHI, key)] = phi
    fixed, aliases = config_columns(configuration, index.curves, index.col)
    for j, val in fixed.items():
        u_star[j] = val
    for j, (src, coef) in aliases.items():
        u_star[j] = coef * point[src]

    # certify from the assembled point itself: worst residual of the coupled
    # flow equalities equals the pressure objective at the recovered point
    rows = index.rows(EQ, "pwa_flow")
    mismatch = np.abs(model.a_eq[rows] @ u_star - model.b_eq[rows])
    j_direct = float(mismatch.max(initial=0.0))
    kind = CERT_OPTIMAL if j_direct <= cert_tol else CERT_APPROXIMATE
    cert = Certificate(kind, j_direct)
    worst = np.argsort(-mismatch, kind="stable")[:3]
    result = RecoveryResult(configuration=dict(configuration),
                            psi_tilde=dict(psi_tilde), j_psi=j_direct,
                            certificate=cert, u_star=u_star,
                            worst_pipes=[[index.row_name(EQ, rows[k]),
                                          float(mismatch[k])]
                                         for k in worst
                                         if mismatch[k] > cert_tol])
    if cert.is_optimal:
        rep = check_point(model, u_star, feas_tol * (1.0 + 1e-9),
                          check_integrality=True)
        if not rep.ok:
            where = [(index.row_name(block, k) if block in (EQ, IN, QUAD)
                      else f"{block}[{index.name(k)}]", v)
                     for block, k, v in rep.worst[:3]]
            raise CertificationBug(f"certified point violates {where}")
    return result


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
