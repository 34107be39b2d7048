"""Brute-force mixed-integer optimum for desk-scale instances.

Fixing the active region of each internal pipe fixes every binary of the
paper's big-M model, both orientations' included, and leaves the
configuration model (``mipbuild.config_model``): the columns and rows every
model of the instance shares, and per pipe a flow box, one chord row and one
pressure-order row (``pwa.emit_config``). Enumerating regions per pipe and
solving each configuration model therefore covers all feasible binary
assignments with ``r ** num_pipes`` convex solves. The configuration models
are read off the model the caller holds, big-M or hull, whose shared part is
restricted once per enumeration. Most configurations are infeasible, and two
tests over the linear rows and boxes reject those before the interior point
runs. Bound propagation (``propagation_infeasible``) comes first and settles
most of them in a fraction of a millisecond; only the configurations it
leaves undecided go to a HiGHS LP (``linear_infeasible``), which costs
several milliseconds a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .convexsolve import (INFEASIBLE, OPTIMAL, linear_infeasible,
                          propagation_infeasible, solve_convex)
from .errors import AllInfeasible, CapExceeded, ModelError
from .mipbuild import StandardModel, VarIndex, config_model
from .pwa import PwaCurve


@dataclass
class OracleResult:
    """Best enumerated configuration and the full per-configuration log."""

    best_objective: float
    best_configuration: dict[tuple[str, str], int]
    num_configurations: int
    log: list[dict] = field(default_factory=list)


def enumerate_solve(model: StandardModel, index: VarIndex,
                    curves: dict[tuple[str, str], PwaCurve],
                    cap: int = 100_000) -> OracleResult:
    """Enumerate region configurations and solve each configuration model.

    ``model`` and ``index`` are a model of the instance built together
    (``mipbuild.build_model`` or ``mipbuild.hull_model``), which the
    configuration models are read off. ``curves`` holds one curve per
    internal pipe, with the pipes and region count of the model's own curves
    (``index.curves``); each pipe's region is enumerated and its mirror
    orientation forced consistently (sign-inconsistent combinations are
    never generated); without internal pipes the one empty configuration is
    solved. Configurations whose solve ends MaxIter are logged (status
    MaxIter, objective None) but never chosen as best, even when feasible.
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

    best_obj = np.inf
    best_cfg = None
    log = []
    for combo in product(range(1, r + 1), repeat=len(pipes)):
        cfg = dict(zip(pipes, combo))
        sub, _ = config_model(model, index, cfg)
        if propagation_infeasible(sub) or linear_infeasible(sub):
            log.append({"config": cfg, "status": INFEASIBLE, "objective": None})
            continue
        sol = solve_convex(sub)
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
