"""Solution recovery: binaries from first-stage flows, pressure recomputation
via an infinity-norm linear program, auxiliary updates, certification and
flow-deviation metrics.

Sign convention: the pressure-order binary is 1 exactly when the oriented
flow is nonnegative, matching the logic blocks of the constraint model (the
flow equality is only consistent under this orientation). At a flow exactly
on a shared region breakpoint the active region follows the sign binary's
side, and the per-region alpha/beta indicators follow the chosen region so
that the recovered assignment always satisfies the region-logic inequalities.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import CertificationBug, ModelError, OutOfRange, SolverFailure
from .mipbuild import (ALPHA, BETA, DM, DPSI, EQ, IN, PSI, QUAD, StandardModel,
                       VarIndex, YM, YPSI, check_point)
from .pwa import PwaCurve

CERT_OPTIMAL = "Optimal"
CERT_APPROXIMATE = "Approximate"


@dataclass
class PipeBinaries:
    """Recovered 0/1 decisions for one directed orientation."""

    delta_psi: int
    region: int
    deltas: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray


@dataclass
class BinaryAssignment:
    """Recovered binaries per directed internal pipe.

    Invariants (checked in ``validate``, which raises ModelError): one active
    region per orientation; alpha >= delta, beta >= delta and
    alpha + beta - delta <= 1 per region; the two orientations of a pipe
    carry complementary sign binaries.
    """

    entries: dict[tuple[str, str], PipeBinaries]

    def validate(self):
        for key, e in self.entries.items():
            if e.deltas.sum() != 1:
                raise ModelError(f"{key}: region simplex violated")
            bad = (e.alphas < e.deltas) | (e.betas < e.deltas) \
                | (e.alphas + e.betas - e.deltas > 1)
            if bad.any():
                raise ModelError(f"{key}: region logic violated")
            mirror = (key[1], key[0])
            if mirror in self.entries:
                if e.delta_psi + self.entries[mirror].delta_psi != 1:
                    raise ModelError(f"{key}: sign link violated")

    def column_values(self, index: VarIndex) -> dict[int, float]:
        vals: dict[int, float] = {}
        for key, e in self.entries.items():
            vals[index.col(DPSI, key)] = float(e.delta_psi)
            for m in range(1, e.deltas.size + 1):
                vals[index.col(DM, key, m)] = float(e.deltas[m - 1])
                vals[index.col(ALPHA, key, m)] = float(e.alphas[m - 1])
                vals[index.col(BETA, key, m)] = float(e.betas[m - 1])
        return vals


def _recover_one(phi: float, curve: PwaCurve, delta_psi: int) -> PipeBinaries:
    breaks = curve.breakpoints
    r = curve.r
    if delta_psi == 1:
        m = bisect_right(breaks, phi)
    else:
        m = bisect_left(breaks, phi)
    m = min(max(m, 1), r)
    deltas = np.zeros(r, dtype=int)
    deltas[m - 1] = 1
    ks = np.arange(1, r + 1)
    alphas = (ks >= m).astype(int)
    betas = (ks <= m).astype(int)
    return PipeBinaries(delta_psi, m, deltas, alphas, betas)


def recover_binaries(phi_star: dict[tuple[str, str], float],
                     curves: dict[tuple[str, str], PwaCurve],
                     feas_tol: float = 1e-6) -> BinaryAssignment:
    """Read the binary decisions off the first-stage flows.

    Per orientation: the sign binary is 1 iff the flow is >= 0; the active
    region is the one containing the flow (breakpoint ties resolved toward
    the sign binary's side); alpha_k indicates regions at or above the active
    one, beta_k regions at or below, which reproduces the threshold logic
    [alpha_k = 1 iff phi <= hi_k], [beta_k = 1 iff phi >= lo_k] away from
    ties while keeping the assignment logic-consistent at them.

    Orientation pairs are processed jointly off the first-listed orientation,
    so the complementary sign link holds even for flows of magnitude below
    solver noise. Raises OutOfRange when a flow exceeds the approximated
    range beyond ``feas_tol``.
    """
    entries: dict[tuple[str, str], PipeBinaries] = {}
    done = set()
    for key, curve in curves.items():
        if key in done:
            continue
        phi = float(phi_star[key])
        cap = curve.phi_cap
        if abs(phi) > cap + feas_tol:
            raise OutOfRange(
                f"flow {phi} on {key} outside [-{cap}, {cap}]")
        phi = min(max(phi, -cap), cap)
        delta_psi = 1 if phi >= 0.0 else 0
        entries[key] = _recover_one(phi, curve, delta_psi)
        done.add(key)
        mirror = (key[1], key[0])
        if mirror in curves:
            entries[mirror] = _recover_one(-phi, curve, 1 - delta_psi)
            done.add(mirror)
    out = BinaryAssignment(entries)
    out.validate()
    return out


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


def build_pressure_lp(assignment: BinaryAssignment,
                      phi_star: dict[tuple[str, str], float],
                      curves: dict[tuple[str, str], PwaCurve],
                      bounds: dict[str, tuple[float, float]]) -> PressureLp:
    """Assemble the incidence rows and active-segment targets."""
    nodes = list(bounds)
    pos = {node: k for k, node in enumerate(nodes)}
    pipes = list(assignment.entries)
    e_rows = np.zeros((len(pipes), len(nodes)))
    theta = np.zeros(len(pipes))
    for k, key in enumerate(pipes):
        e = assignment.entries[key]
        sign = 2.0 * e.delta_psi - 1.0
        e_rows[k, pos[key[0]]] = sign
        e_rows[k, pos[key[1]]] = -sign
        seg = curves[key].segments[e.region - 1]
        theta[k] = seg.a * float(phi_star[key]) + seg.b
    lo = np.array([bounds[nd][0] for nd in nodes])
    hi = np.array([bounds[nd][1] for nd in nodes])
    return PressureLp(nodes, pipes, e_rows, theta, lo, hi)


def solve_pressure_lp(lp: PressureLp, opts=None) -> tuple[dict[str, float], float]:
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


def update_aux(assignment: BinaryAssignment, psi_tilde: dict[str, float],
               phi_star: dict[tuple[str, str], float]) -> dict:
    """Recompute the product auxiliaries from their definitions:
    ``ypsi = delta_psi * psi_i`` and ``y_m = delta_m * phi``."""
    ypsi = {}
    ym = {}
    for key, e in assignment.entries.items():
        ypsi[key] = float(e.delta_psi) * psi_tilde[key[0]]
        phi = float(phi_star[key])
        ym[key] = e.deltas.astype(float) * phi
    return {"ypsi": ypsi, "ym": ym}


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

    ``u_star`` keeps every first-stage component bit-for-bit and replaces only
    the pressures, product auxiliaries and binaries. The certificate is
    Optimal exactly when the pressure problem closed to within ``cert_tol``;
    in that case the point has passed an independent full-constraint check.
    """

    psi_tilde: dict[str, float]
    j_psi: float
    certificate: Certificate
    u_star: np.ndarray
    deviations: dict = field(default_factory=dict)


def assemble_and_certify(u0: np.ndarray, assignment: BinaryAssignment,
                         psi_tilde: dict[str, float], aux: dict,
                         cert_tol: float, *, model: StandardModel,
                         index: VarIndex, feas_tol: float = 1e-6) -> RecoveryResult:
    """Assemble the final point and certify it.

    The certificate is Optimal iff the pressure objective is at most
    ``cert_tol``; a certified point is re-checked against every model row at
    ``feas_tol`` (CertificationBug on failure, which would indicate an
    implementation error, since cost-relevant components are untouched and
    the recovered gas-side components satisfy the logic blocks by
    construction).
    """
    u_star = np.asarray(u0, dtype=float).copy()
    for node, val in psi_tilde.items():
        u_star[index.col(PSI, node)] = val
    for key, val in aux["ypsi"].items():
        u_star[index.col(YPSI, key)] = val
    for key, vals in aux["ym"].items():
        for m in range(1, vals.size + 1):
            u_star[index.col(YM, key, m)] = vals[m - 1]
    for j, val in assignment.column_values(index).items():
        u_star[j] = val

    # certify from the assembled point itself: worst residual of the coupled
    # flow equalities equals the pressure objective at the recovered point
    rows = index.rows(EQ, "pwa_flow")
    j_direct = float(np.abs(model.a_eq[rows] @ u_star - model.b_eq[rows])
                     .max(initial=0.0))
    kind = CERT_OPTIMAL if j_direct <= cert_tol else CERT_APPROXIMATE
    cert = Certificate(kind, j_direct)
    result = RecoveryResult(psi_tilde=dict(psi_tilde), j_psi=j_direct,
                            certificate=cert, u_star=u_star)
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
                       c_f: dict[tuple[str, str], float],
                       press_tol: float = 1e-9) -> dict:
    """Relative mismatch between decided flows and the square-root pressure
    law at the recovered pressures.

    For each directed internal pipe the reference flow is
    ``sgn(psi_i - psi_j) * c_f * sqrt(|psi_i - psi_j|)``; the deviation is
    the relative error against it. Below ``press_tol`` of pressure difference
    the ratio is undefined and the absolute residual (the flow itself) is
    returned, flagged ``absolute``.
    """
    out = {}
    for key, phi in phi_star.items():
        d = psi_tilde[key[0]] - psi_tilde[key[1]]
        if abs(d) < press_tol:
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
