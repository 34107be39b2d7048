"""Brute-force mixed-integer optimum for desk-scale instances.

Fixing the active region of each undirected internal pipe fixes every binary
in the model: the region's sign pins the flow-direction binary, the mirrored
orientation's region and sign follow from reciprocity, and the threshold
indicators are implied by the region index. Enumerating regions per pipe and
solving the continuous subproblem of each configuration therefore covers all
feasible binary assignments with ``r ** num_pipes`` convex solves. Most
configurations are infeasible; a HiGHS LP over the linear rows and boxes
rejects those before the interior point runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .convexsolve import (INFEASIBLE, OPTIMAL, SolveOptions,
                          linear_infeasible, solve_convex)
from .errors import AllInfeasible, CapExceeded, ModelError
from .mipbuild import (ALPHA, BETA, DM, DPSI, PHI, PSI, StandardModel,
                       VarIndex, YM, YPSI, relax, substitute_columns)
from .pwa import PwaCurve


@dataclass
class OracleResult:
    """Best enumerated configuration and the full per-configuration log."""

    best_objective: float
    best_configuration: dict[tuple[str, str], int]
    num_configurations: int
    log: list[dict] = field(default_factory=list)


def _config_columns(index: VarIndex, key: tuple[str, str], region: int,
                    r: int) -> tuple[dict[int, float], dict[int, tuple[int, float]]]:
    """Column fixes and aliases implied by an active region on one orientation.

    Binaries are fixed outright; the product auxiliaries collapse onto the
    flow and pressure columns (``y_m = phi`` on the active region, 0 off it;
    ``ypsi = psi_i`` when the sign binary is 1, 0 otherwise), which keeps the
    reduced subproblem strictly interior-feasible.
    """
    delta_psi = 1 if region > r // 2 else 0
    fixed = {index.col(DPSI, key): float(delta_psi)}
    aliases: dict[int, tuple[int, float]] = {}
    for m in range(1, r + 1):
        fixed[index.col(DM, key, m)] = 1.0 if m == region else 0.0
        fixed[index.col(ALPHA, key, m)] = 1.0 if m >= region else 0.0
        fixed[index.col(BETA, key, m)] = 1.0 if m <= region else 0.0
        jm = index.col(YM, key, m)
        if m == region:
            aliases[jm] = (index.col(PHI, key), 1.0)
        else:
            fixed[jm] = 0.0
    jpsi = index.col(YPSI, key)
    if delta_psi:
        aliases[jpsi] = (index.col(PSI, key[0]), 1.0)
    else:
        fixed[jpsi] = 0.0
    return fixed, aliases


def enumerate_solve(model: StandardModel, index: VarIndex,
                    curves: dict[tuple[str, str], PwaCurve],
                    opts: SolveOptions | None = None,
                    cap: int = 100_000) -> OracleResult:
    """Enumerate region configurations and solve each continuous subproblem.

    ``curves`` provides both orientations per pipe; the first-listed
    orientation of each pair is enumerated and the mirror is forced
    consistently (sign-inconsistent combinations are never generated).
    Configurations whose solve ends MaxIter are logged (status MaxIter,
    objective None) but never chosen as best, even when feasible. Raises
    CapExceeded when ``r ** num_pipes`` exceeds ``cap``, AllInfeasible when
    no configuration admits a feasible point and ModelError when a curve
    lacks its mirror orientation.
    """
    opts = opts or SolveOptions(feas_tol=1e-10, opt_tol=1e-10)
    pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []
    seen = set()
    r = None
    for key in curves:
        if key in seen:
            continue
        mirror = (key[1], key[0])
        if mirror not in curves:
            raise ModelError(f"missing mirror orientation for {key}")
        pairs.append((key, mirror))
        seen.update((key, mirror))
        r = curves[key].r

    if not pairs:
        sol = solve_convex(relax(model), opts)
        if sol.status == INFEASIBLE:
            raise AllInfeasible("continuous problem infeasible")
        return OracleResult(sol.objective, {}, 1,
                            [{"config": {}, "status": sol.status,
                              "objective": sol.objective}])

    required = r ** len(pairs)
    if required > cap:
        raise CapExceeded(required, cap)

    relaxed = relax(model)
    best_obj = np.inf
    best_cfg = None
    log = []
    for combo in product(range(1, r + 1), repeat=len(pairs)):
        fixed: dict[int, float] = {}
        aliases: dict[int, tuple[int, float]] = {}
        cfg = {}
        for (key, mirror), region in zip(pairs, combo):
            cfg[key] = region
            f, a = _config_columns(index, key, region, r)
            fixed.update(f)
            aliases.update(a)
            mirror_region = curves[key].mirror_region(region)
            f, a = _config_columns(index, mirror, mirror_region, r)
            fixed.update(f)
            aliases.update(a)
        red = substitute_columns(relaxed, fixed, aliases)
        if not red.feasible or linear_infeasible(red.model, opts):
            log.append({"config": cfg, "status": INFEASIBLE, "objective": None})
            continue
        sol = solve_convex(red.model, opts)
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
