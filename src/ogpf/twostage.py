"""End-to-end two-stage solve: convex relaxation, then recovery.

Stage 1 solves a convex relaxation of the mixed-integer model with the
interior point, either on the whole KKT system (centralized) or with each
area factoring its own KKT block and the coupling rows joining them
(consensus); both take the same iterations to the same optimum. The
relaxation is, by default, the convex hull of each pipe's signed chord
graph over its flow and end pressures (``HULL``, ``mipbuild.hull_model``),
whose size does not grow with ``r``; ``BIGM`` relaxes the paper's big-M model
instead, clearing its integrality, and its point is gathered onto the hull
model's columns. Stage 2 is the same under both: it reads a region
configuration off the stage-1 flows and the paper's model at that
configuration, over those columns, off the stage-1 model
(``mipbuild.config_model``), so a solve assembles one model. It recomputes
pressures through the infinity-norm problem over that model's flow-equality
(``pwa_flow``) rows with the flows fixed: propagated exactly on a pipe forest
whose pressure boxes admit it, an LP on a cycle or where the boxes bind
(``recovery.solve_pressure_lp``). It then assembles the final point (the
stage-1 point, its flows symmetrized and its pressures replaced) and
certifies it against that model.

A positive pressure residual is reported as an Approximate certificate with
the flows kept as decided; no repair pass re-solves stage 1 under the
recovered binaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .convexsolve import INFEASIBLE, Solution, solve_consensus, solve_convex
from .errors import ConfigError, OgpfError
from .mipbuild import (COL, PHI, StandardModel, VarIndex, area_views,
                       build_model, config_model, hull_model, relax)
from .netmodel import NetworkInstance
from .pwa import PwaConfig
from .recovery import (FEAS_TOL, RecoveryResult, assemble_and_certify,
                       build_pressure_lp, recover_binaries, solve_pressure_lp,
                       weymouth_deviation)

CENTRALIZED = "centralized"
CONSENSUS = "consensus"
# stage-1 relaxations
HULL = "hull"
BIGM = "bigm"

# sign-convention note echoed into reports: the flow-direction binary is tied
# to nonnegative oriented flow, the only orientation consistent with the
# linearized flow equality.
SIGN_CONVENTION = "delta_psi = 1 <=> oriented flow >= 0"


@dataclass
class TwoStageResult:
    """Outcome of ``solve_two_stage``. ``model`` and ``index`` are the
    configuration model's, the paper's model at the recovered configuration
    over the hull model's columns; ``solution.x`` is the stage-1 point on
    those columns, while ``solution.duals`` and ``solution.residuals`` are
    those of the stage-1 model."""

    solution: Solution
    recovery: RecoveryResult
    model: StandardModel
    index: VarIndex
    build_time_s: float       # the stage-1 model's build, before stage 1
    stage1_time_s: float
    stage2_time_s: float
    mode: str                 # CENTRALIZED or CONSENSUS
    stage1: str               # HULL or BIGM

    @property
    def objective(self) -> float:
        return self.solution.objective

    @property
    def certificate(self):
        return self.recovery.certificate


def solve_two_stage(inst: NetworkInstance, r: int, *, epsilon: float = 1e-6,
                    cert_tol: float = 1e-8, mode: str = CENTRALIZED,
                    stage1: str = HULL) -> TwoStageResult:
    """Run both stages on an instance and return the assembled outcome.

    Raises OgpfError subclasses on configuration or infeasibility problems
    (ConfigError, before the build, on a mode other than CENTRALIZED or
    CONSENSUS or a stage 1 other than HULL or BIGM); an Approximate
    certificate is a normal return, not an error.
    """
    if mode not in (CENTRALIZED, CONSENSUS):
        raise ConfigError(f"unknown solve mode {mode!r}")
    if stage1 not in (HULL, BIGM):
        raise ConfigError(f"unknown stage 1 {stage1!r}")
    cfg = PwaConfig(r=r, epsilon=epsilon)
    t_build = time.perf_counter()
    if stage1 == HULL:
        relaxed, index = hull_model(inst, cfg)
    else:
        model, index = build_model(inst, cfg)
        relaxed = relax(model)
    curves = index.curves

    t0 = time.perf_counter()
    if mode == CONSENSUS:
        sol = solve_consensus(relaxed, area_views(relaxed, inst, index))
    else:
        sol = solve_convex(relaxed)
    t1 = time.perf_counter()
    if sol.status == INFEASIBLE:
        raise OgpfError("stage 1: relaxed problem is infeasible")

    # stage-2 quantities use reciprocity-symmetrized flows so that solver
    # noise between the two orientations does not leak into the pressure
    # targets; exact solves are unaffected
    phi_star, c_f = {}, {}
    for key, curve in curves.items():
        mirror = (key[1], key[0])
        phi = 0.5 * (float(sol.x[index.col(PHI, key)])
                     - float(sol.x[index.col(PHI, mirror)]))
        phi_star[key], phi_star[mirror] = phi, -phi
        c_f[key] = c_f[mirror] = curve.c_f

    # certification re-checks the point against every row; that can only be
    # as tight as stage 1 actually solved (a MaxIter stage 1 returns its best
    # iterate)
    stage1_res = max(sol.residuals.max_eq, sol.residuals.max_ineq)
    check_tol = max(FEAS_TOL, 2.0 * stage1_res)

    configuration = recover_binaries(phi_star, curves)
    model, config_index = config_model(relaxed, index, configuration)
    x = sol.x[[index.col(*key) for key in config_index.keys(COL)]]
    sol = replace(sol, x=x, objective=model.objective(x))
    lp = build_pressure_lp(x, phi_star, model=model, index=config_index)
    psi_tilde, _ = solve_pressure_lp(lp)
    recovery = assemble_and_certify(lp, psi_tilde, configuration, cert_tol,
                                    model=model, index=config_index,
                                    feas_tol=check_tol)
    recovery.deviations = weymouth_deviation(phi_star, recovery.psi_tilde,
                                             c_f)
    t2 = time.perf_counter()

    return TwoStageResult(solution=sol, recovery=recovery, model=model,
                          index=config_index, build_time_s=t0 - t_build,
                          stage1_time_s=t1 - t0,
                          stage2_time_s=t2 - t1, mode=mode, stage1=stage1)
