"""Brute-force mixed-integer optimum for desk-scale instances.

Fixing the active region of each internal pipe fixes every binary in the
model, both orientations' included: ``pwa.config_columns`` turns such
a region configuration into column fixes and aliases of the big-M model
(``mipbuild.build_model``). Enumerating regions per pipe and
solving the continuous subproblem of each configuration therefore covers all
feasible binary assignments with ``r ** num_pipes`` convex solves. Most
configurations are infeasible, and two tests over the linear rows and boxes
reject those before the interior point runs. Bound propagation
(``propagation_infeasible``) on the relaxed model, with the configuration's
fixed columns written into its boxes, comes first and settles most of them
in a fraction of a millisecond. It leaves out the configuration's aliases,
which only restrict (with the binaries fixed, the big-M rows already give
``ym = phi`` and ``ypsi = psi``), so it judges a relaxation of the reduced
model. Only the configurations it leaves undecided are reduced by
``substitute_columns`` and go to a HiGHS LP (``linear_infeasible``), which
costs several milliseconds a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .convexsolve import (INFEASIBLE, OPTIMAL, linear_infeasible,
                          propagation_infeasible, solve_convex)
from .errors import AllInfeasible, CapExceeded, ModelError
from .mipbuild import StandardModel, VarIndex, relax, substitute_columns
from .pwa import PwaCurve, config_columns


@dataclass
class OracleResult:
    """Best enumerated configuration and the full per-configuration log."""

    best_objective: float
    best_configuration: dict[tuple[str, str], int]
    num_configurations: int
    log: list[dict] = field(default_factory=list)


def _reduce(relaxed: StandardModel, fixed: dict[int, float],
            aliases: dict[int, tuple[int, float]]) -> StandardModel | None:
    """The reduced model of one configuration, or None when it is proved
    infeasible: by bound propagation with the fixed values as boxes, by the
    presolve, or by the HiGHS LP, in that order."""
    cols = list(fixed)
    lb, ub = relaxed.lb.copy(), relaxed.ub.copy()
    lb[cols] = ub[cols] = list(fixed.values())
    if propagation_infeasible(replace(relaxed, lb=lb, ub=ub)):
        return None
    red = substitute_columns(relaxed, fixed, aliases)
    if not red.feasible or linear_infeasible(red.model):
        return None
    return red.model


def enumerate_solve(model: StandardModel, index: VarIndex,
                    curves: dict[tuple[str, str], PwaCurve],
                    cap: int = 100_000) -> OracleResult:
    """Enumerate region configurations and solve each continuous subproblem.

    ``curves`` holds one curve per internal pipe, with the pipes and region
    count of the model's own curves (``index.curves``); each pipe's region
    is enumerated and its mirror orientation forced consistently
    (sign-inconsistent combinations are never generated); without internal
    pipes the one empty configuration is solved. Configurations whose solve
    ends MaxIter are logged (status MaxIter, objective None) but never chosen
    as best, even when feasible.
    Raises CapExceeded when ``r ** num_pipes`` exceeds ``cap``,
    AllInfeasible when no configuration admits a feasible point and
    ModelError when ``curves`` does not match ``index.curves``.
    """
    if curves.keys() != index.curves.keys() or any(
            curve.r != index.curves[key].r for key, curve in curves.items()):
        raise ModelError("curves do not match the model's pipes and region "
                         "count")
    pipes = list(curves)
    r = max((curve.r for curve in curves.values()), default=1)
    required = r ** len(pipes)
    if required > cap:
        raise CapExceeded(required, cap)

    relaxed = relax(model)
    best_obj = np.inf
    best_cfg = None
    log = []
    for combo in product(range(1, r + 1), repeat=len(pipes)):
        cfg = dict(zip(pipes, combo))
        reduced = _reduce(relaxed, *config_columns(cfg, curves, index.col))
        if reduced is None:
            log.append({"config": cfg, "status": INFEASIBLE, "objective": None})
            continue
        sol = solve_convex(reduced)
        entry = {"config": cfg, "status": sol.status,
                 "objective": sol.objective if sol.status == OPTIMAL else None}
        log.append(entry)
        if sol.status == OPTIMAL and sol.objective < best_obj:
            best_obj = sol.objective
            best_cfg = cfg

    if best_cfg is None:
        raise AllInfeasible(
            f"all {required} configurations infeasible")
    return OracleResult(float(best_obj), best_cfg, required, log)
