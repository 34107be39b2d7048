"""Convex solves for the relaxed dispatch model.

``solve_convex`` runs the bundled interior-point engine. Its presolve
reports an empty box or an inconsistent vanished row as infeasible; when
the iterations do not converge, Kelley's cutting planes over HiGHS LPs
(``feasibility_probe``) look for a proof that the model is infeasible.
``solve_consensus`` is the same solve with the interior point's KKT system
split by area: each area factors its own block and only the coupling rows,
through one small Schur complement, join them. ``propagation_infeasible``
and ``linear_infeasible`` judge the linear rows and boxes alone, before any
solve; the enumeration oracle runs them in that order.

Every solve stops by the interior point's one rule (``ipm``: scaled
primal residual and relative gap within 1e-10, dual residual within 1e-9,
or 200 iterations); the verdicts share one threshold, ``probe_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .ipm import EngineResult, solve_ipm
from .mipbuild import StandardModel, check_point, entry_rows

OPTIMAL = "Optimal"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"

# cap on the sweeps of ``propagation_infeasible``. The bundled oracles'
# rejections take at most 4 sweeps (18 on loop1area at r=8); where nothing
# empties, bounds creep round a cycle of rows until the cap.
_MAX_SWEEPS = 20

# cap on the cut rounds of ``feasibility_probe``; the bundled oracles'
# stalls are decided in at most 4 LPs
_MAX_CUT_ROUNDS = 20


@dataclass
class Residuals:
    max_eq: float
    max_ineq: float


@dataclass
class Solution:
    """Primal point with objective, status and residual summary.

    ``duals`` carries equality, inequality, bound and quadratic-row
    multipliers for stationarity checks. Solver tolerances apply to the
    internally equilibrated system; ``residuals`` report raw row violations;
    ``iterations`` counts interior-point iterations.
    """

    x: np.ndarray
    objective: float
    status: str
    residuals: Residuals
    iterations: int
    duals: dict = field(default_factory=dict)


def _solution_from_engine(model: StandardModel, res: EngineResult,
                          status: str) -> Solution:
    rep = check_point(model, res.x, tol=np.inf)
    return Solution(
        x=res.x,
        objective=model.objective(res.x),
        status=status,
        residuals=Residuals(max_eq=rep.max_eq,
                            max_ineq=max(rep.max_in, rep.max_quad,
                                         rep.max_bound)),
        iterations=res.iterations,
        duals={"eq": res.nu, "ineq": res.lam_in, "lb": res.lam_lb,
               "ub": res.lam_ub, "quad": res.mu_quad},
    )


def probe_threshold(model: StandardModel) -> float:
    """Tolerance of the infeasibility verdicts: HiGHS's primal feasibility
    tolerance, and the row violation above which propagation or a cutting
    plane counts."""
    return 1e-6 * (1.0 + np.abs(model.b_eq).max(initial=0.0))


def propagation_infeasible(model: StandardModel) -> bool:
    """True when bound propagation over the linear rows empties a row or a
    box.

    Each equality row counts as two ``<=`` rows next to ``G x <= h``; the
    quadratic rows are dropped. A sweep computes every row's least activity
    over the boxes and tightens each column's box by what the row, relaxed
    by the tolerance, leaves for it (a row with one infinite contribution
    still bounds that column). A least activity above the right-hand side,
    or crossed bounds, by more than ``probe_threshold`` proves the model
    infeasible. Sweeps stop when no bound moves or after ``_MAX_SWEEPS``;
    on a cycle the bounds can creep round it without end. False means
    undecided, not feasible. The model is not changed.
    """
    tol = probe_threshold(model)
    a_eq, g_in = model.a_eq, model.g_in
    n, mi = model.num_vars, model.num_in
    row = np.concatenate([entry_rows(g_in), mi + entry_rows(a_eq),
                          mi + model.num_eq + entry_rows(a_eq)])
    col = np.concatenate([g_in.indices, a_eq.indices, a_eq.indices])
    coef = np.concatenate([g_in.data, a_eq.data, -a_eq.data])
    rhs = np.concatenate([model.h_in, model.b_eq, -model.b_eq]) + tol
    live = coef != 0.0
    row, col, coef = row[live], col[live], coef[live]
    # both bounds in one array that only shrinks, (-lb, ub): an entry's
    # least activity reads the bound its sign picks and its room caps the
    # other one
    bnd = np.concatenate([-model.lb, model.ub])
    least_at = np.where(coef > 0, col, n + col)
    room_at = np.where(coef > 0, n + col, col)
    size = np.abs(coef)
    for _ in range(_MAX_SWEEPS):
        least = -size * bnd[least_at]
        inf = np.isinf(least)
        least[inf] = 0.0
        slack = rhs - np.bincount(row, least, minlength=rhs.size)
        num_inf = np.bincount(row, inf, minlength=rhs.size)
        if np.any(slack[num_inf == 0] < 0.0):
            return True
        # what the row leaves for each column once the others take their
        # least share: nothing is known unless this column holds the row's
        # only infinite contribution, or the row has none
        room = np.where(num_inf[row] == inf, slack[row] + least, np.inf)
        new = bnd.copy()
        np.minimum.at(new, room_at, room / size)
        if np.any(new[:n] + new[n:] < -tol):
            return True
        if np.array_equal(new, bnd):
            return False
        bnd = new
    return False


def _cutting_planes(model: StandardModel, rounds: int) -> bool | None:
    """Kelley's cutting planes over the quadratic rows, one HiGHS LP a round.

    Each LP has a zero objective, the model's linear rows and boxes, and
    ``probe_threshold`` as primal feasibility tolerance. After each LP but
    the last, every quadratic row violated at the LP point ``x0`` by more
    than the threshold gains the tangent cut ``J_k x <= J_k x0 - q_k(x0)``,
    which keeps every point of the convex row. True: an LP is infeasible,
    which proves the model infeasible. False: ``x0`` is a witness, judged by
    its worst quadratic-row violation (not a sum) against the threshold.
    None: HiGHS ended otherwise, or the rounds ran out.
    """
    tol = probe_threshold(model)
    quad = model.quad_ineq
    a_ub, b_ub = model.g_in, model.h_in
    for k in range(rounds + 1):
        res = linprog(np.zeros(model.num_vars), A_ub=a_ub, b_ub=b_ub,
                      A_eq=model.a_eq, b_eq=model.b_eq,
                      bounds=np.column_stack([model.lb, model.ub]),
                      method="highs",
                      options={"primal_feasibility_tolerance": tol})
        if res.status != 0:
            return True if res.status == 2 else None
        q0 = quad.value(res.x)
        cut = q0 > tol
        if not cut.any():
            return False
        if k == rounds:
            return None
        jv = quad.jac(res.x)
        jac = sp.csr_matrix((jv, (quad.j_row, quad.j_col)),
                            shape=(len(quad), model.num_vars))
        a_ub = sp.vstack([a_ub, jac[cut]], format="csr")
        b_ub = np.concatenate([b_ub, (quad.jac_mul(jv, res.x) - q0)[cut]])


def linear_infeasible(model: StandardModel) -> bool:
    """True when the linear rows and boxes alone admit no point: round 0 of
    ``_cutting_planes``, one LP and no cut, so ``feasibility_probe`` rejects
    whatever it rejects. False means undecided, not feasible. The oracle
    calls it only on the configurations that ``propagation_infeasible``
    leaves undecided: a call costs several milliseconds, over ten times a
    rejection by propagation.
    """
    return _cutting_planes(model, 0) is True


def feasibility_probe(model: StandardModel) -> bool | None:
    """Verdict on a model whose interior point did not converge: True
    proves it infeasible, False and None leave its feasibility unproven
    (``_cutting_planes`` with ``_MAX_CUT_ROUNDS`` rounds)."""
    return _cutting_planes(model, _MAX_CUT_ROUNDS)


def solve_convex(model: StandardModel,
                 areas: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> Solution:
    """Solve a relaxed standard-form model by the interior point's stopping
    rule.

    Returns a Solution with status Optimal, MaxIter (best iterate, residuals
    reported) or Infeasible (an empty box or an inconsistent vanished row
    found by the interior point's presolve, without the probe; or, when the
    interior point does not converge, a ``feasibility_probe`` LP that HiGHS
    proves infeasible). ``areas`` (column and equality-row areas, see
    ``ipm.solve_ipm``) splits the interior point's KKT factorization by
    area; the probe reads the whole model. Deterministic for identical
    inputs. Raises ConfigError on a model with integral columns.
    """
    res = solve_ipm(model, areas)
    if res.status == "infeasible":
        return Solution(np.zeros(model.num_vars), np.nan, INFEASIBLE,
                        Residuals(np.inf, np.inf), 0)
    if res.status == "optimal":
        return _solution_from_engine(model, res, OPTIMAL)

    # engine did not converge: only a proof of infeasibility changes that
    if feasibility_probe(model):
        return Solution(res.x, np.nan, INFEASIBLE,
                        Residuals(np.inf, np.inf), res.iterations)
    return _solution_from_engine(model, res, MAX_ITER)


def solve_consensus(model: StandardModel,
                    areas: tuple[np.ndarray, np.ndarray]) -> Solution:
    """Area-decomposed solve of a relaxed model: ``solve_convex`` with each
    area's KKT block factored on its own.

    ``areas`` is ``(col_area, eq_area)`` from ``mipbuild.area_views``: the
    block of every column and equality row, -1 for the coupling rows (tie-bus
    balances and tie reciprocity rows). Every area's columns and own
    equality rows form one block of the interior point's KKT system; the
    coupling rows form the border, the only rows that join areas, and one
    small Schur complement on them gives each Newton step
    (``ipm.KktPartition``). The iterates are the centralized ones up to
    rounding, so status, iterations, feasibility probe and ``Solution`` are
    those of ``solve_convex``; with a single area it is exactly the
    centralized solve. Raises ModelError when a row other than a coupling
    row spans two areas.
    """
    return solve_convex(model, areas)
