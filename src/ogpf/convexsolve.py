"""Convex solves for the relaxed dispatch model.

``solve_convex`` runs the bundled interior-point engine. Its presolve
reports an empty box or an inconsistent vanished row as infeasible; when
the iterations do not converge, an elastic feasibility probe tells an
infeasible model from a slow one. ``solve_consensus`` runs an
area-decomposed scaled consensus ADMM over the boundary variables
referenced by the coupling rows, as a fixed-point iteration on the
consensus values and scaled duals accelerated by safeguarded type-II
Anderson acceleration. Within one evaluation of the ADMM map the area
subproblems are independent and synchronize at its barrier. Each area keeps
one prepared interior point (``ipm.prepare``) for the whole run,
warm-starts every solve from the iterate its previous solve recorded and
solves only as accurately as the last residuals warrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import ConfigError, ModelError, NonConvergence
from .ipm import EngineResult, col_scale, prepare, solve_ipm
from .mipbuild import AreaView, QuadBlock, StandardModel, check_point

OPTIMAL = "Optimal"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration cap for one convex solve."""

    feas_tol: float = 1e-8
    opt_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.feas_tol <= 0 or self.opt_tol <= 0 or self.max_iter <= 0:
            raise ConfigError("solve options must be positive")


@dataclass
class Residuals:
    max_eq: float
    max_ineq: float
    gap: float


@dataclass
class Solution:
    """Primal point with objective, status and residual summary.

    ``duals`` carries equality, inequality, bound and quadratic-row
    multipliers for stationarity checks. Solver tolerances apply to the
    internally equilibrated system; ``residuals`` report raw row violations.
    Consensus solves additionally record the primal/dual residual pair of
    every evaluation of the ADMM map in ``history``; ``iterations`` counts
    those evaluations.
    """

    x: np.ndarray
    objective: float
    status: str
    residuals: Residuals
    iterations: int
    duals: dict = field(default_factory=dict)
    history: list = field(default_factory=list)


def _solution_from_engine(model: StandardModel, res: EngineResult,
                          status: str) -> Solution:
    rep = check_point(model, res.x, tol=np.inf)
    return Solution(
        x=res.x,
        objective=model.objective(res.x),
        status=status,
        residuals=Residuals(max_eq=rep.max_eq,
                            max_ineq=max(rep.max_in, rep.max_quad,
                                         rep.max_bound),
                            gap=res.relgap),
        iterations=res.iterations,
        duals={"eq": res.nu, "ineq": res.lam_in, "lb": res.lam_lb,
               "ub": res.lam_ub, "quad": res.mu_quad},
    )


def _elastic_model(model: StandardModel) -> StandardModel:
    """Feasibility-probe model: every row is relaxed by a penalized slack.

    Variable boxes stay hard (``solve_convex`` probes only models whose boxes
    passed the interior point's presolve), so the probe is always
    feasible and its optimum measures the least total constraint violation.
    """
    n = model.num_vars
    me, mi, mq = model.num_eq, model.num_in, len(model.quad_ineq)
    n_new = n + 2 * me + mi + mq
    lb = np.concatenate([model.lb, np.zeros(2 * me + mi + mq)])
    ub = np.concatenate([model.ub, np.full(2 * me + mi + mq, np.inf)])
    obj_lin = np.concatenate([np.zeros(n), np.ones(2 * me + mi + mq)])

    a_eq = sp.hstack([model.a_eq, sp.identity(me), -sp.identity(me),
                      sp.csr_matrix((me, mi + mq))], format="csr") \
        if me else sp.csr_matrix((0, n_new))
    g_in = sp.hstack([model.g_in, sp.csr_matrix((mi, 2 * me)),
                      -sp.identity(mi), sp.csr_matrix((mi, mq))],
                     format="csr") if mi else sp.csr_matrix((0, n_new))
    qb = model.quad_ineq
    rows = np.arange(mq)
    quad = QuadBlock(n_new, qb.q_row, qb.q_col, qb.q_coef,
                     np.concatenate([qb.l_row, rows]),
                     np.concatenate([qb.l_col, n + 2 * me + mi + rows]),
                     np.concatenate([qb.l_coef, -np.ones(mq)]), qb.d)

    return StandardModel(
        n_new, np.zeros(n_new), obj_lin, 0.0, a_eq, model.b_eq.copy(),
        g_in, model.h_in.copy(), quad, lb, ub, np.zeros(n_new, dtype=bool))


def feasibility_probe(model: StandardModel, opts: SolveOptions) -> float:
    """Least total (L1) constraint violation subject to the variable boxes.

    Decides feasible-but-slow versus infeasible, so moderate accuracy is
    enough.
    """
    probe = _elastic_model(model)
    # the probe must reach a verdict even when the caller capped iterations
    res = solve_ipm(probe, feas_tol=max(opts.feas_tol, 1e-8),
                    opt_tol=max(opts.opt_tol, 1e-8),
                    max_iter=max(opts.max_iter, 100))
    return float(probe.objective(res.x))


def probe_threshold(model: StandardModel, opts: SolveOptions) -> float:
    """Least total violation above which a model counts as infeasible."""
    return max(1e-6, 100.0 * opts.feas_tol) * (
        1.0 + np.abs(model.b_eq).max(initial=0.0))


def linear_infeasible(model: StandardModel, opts: SolveOptions) -> bool:
    """True when the linear rows and boxes alone admit no point.

    Drops the quadratic rows, so the zero-objective LP solved by HiGHS is a
    relaxation of the model: an infeasible LP proves the model infeasible.
    HiGHS works to the probe's own threshold as its primal feasibility
    tolerance, so whatever it rejects the feasibility probe would reject too.
    False means undecided, not feasible.
    """
    res = linprog(np.zeros(model.num_vars), A_ub=model.g_in, b_ub=model.h_in,
                  A_eq=model.a_eq, b_eq=model.b_eq,
                  bounds=np.column_stack([model.lb, model.ub]), method="highs",
                  options={"primal_feasibility_tolerance":
                           probe_threshold(model, opts)})
    return res.status == 2


def solve_convex(model: StandardModel, opts: SolveOptions | None = None) -> Solution:
    """Solve a relaxed standard-form model to the requested tolerances.

    Returns a Solution with status Optimal, MaxIter (best iterate, residuals
    reported) or Infeasible (an empty box or an inconsistent vanished row
    found by the interior point's presolve, without the probe; or a
    feasibility probe that certifies positive minimum violation).
    Deterministic for identical inputs. Raises ConfigError on a model with
    integral columns.
    """
    opts = opts or SolveOptions()
    res = solve_ipm(model, feas_tol=opts.feas_tol, opt_tol=opts.opt_tol,
                    max_iter=opts.max_iter)
    if res.status == "infeasible":
        return Solution(np.zeros(model.num_vars), np.nan, INFEASIBLE,
                        Residuals(np.inf, np.inf, np.inf), 0)
    if res.status == "optimal":
        return _solution_from_engine(model, res, OPTIMAL)

    # engine did not converge: decide feasible-but-slow vs infeasible
    if feasibility_probe(model, opts) > probe_threshold(model, opts):
        return Solution(res.x, np.nan, INFEASIBLE,
                        Residuals(np.inf, np.inf, np.inf), res.iterations)
    return _solution_from_engine(model, res, MAX_ITER)


# ---------------------------------------------------------------------------
# consensus mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsensusOptions:
    """Scaled consensus ADMM knobs."""

    rho: float = 1.0
    max_outer: int = 500
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6
    inner: SolveOptions = field(default_factory=lambda: SolveOptions(
        feas_tol=1e-9, opt_tol=1e-9))

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigError("rho must be > 0")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be >= 1")
        if self.primal_tol <= 0 or self.dual_tol <= 0:
            raise ConfigError("consensus tolerances must be > 0")


# Anderson acceleration of the consensus map: memory (0 switches it off),
# Tikhonov weight, and the A2DR safeguard's D, R and epsilon
_AA_MEMORY = 5
_AA_REG = 1e-4
_AA_SAFE_D = 1e6
_AA_SAFE_R = 10
_AA_SAFE_EPS = 1e-6
# inexact area solves run to min(_INEXACT_CAP, _INEXACT * min(r, d)) of the
# last evaluation's residuals, never tighter than the inner tolerances
# (0 switches it off)
_INEXACT = 0.01
_INEXACT_CAP = 1e-4


class _AreaProblem:
    """Submodel of one area plus borrowed copies of boundary columns.

    The consensus penalty is weighted per variable by the inverse squared box
    magnitude, so angle copies (order 0.1) and flow copies (order 100) feel
    comparable stiffness in their own units. Only the objective of the
    shared columns changes between outer iterations, so the interior point
    is prepared once and each solve warm-starts from the iterate the last
    one recorded.
    """

    def __init__(self, model: StandardModel, view: AreaView, shared: list[int]):
        n = model.num_vars
        owned = np.asarray(view.owned_cols, dtype=int)
        is_owned = np.zeros(n, dtype=bool)
        is_owned[owned] = True
        self.shared_global = np.array(shared, dtype=int)
        self.global_cols = np.concatenate(
            [owned, self.shared_global[~is_owned[self.shared_global]]])
        nloc = self.global_cols.size
        local_of = np.full(n, -1, dtype=np.intp)
        local_of[self.global_cols] = np.arange(nloc)
        self.shared_local = local_of[self.shared_global]
        scale = col_scale(model.lb[self.shared_global],
                          model.ub[self.shared_global])
        self.weights = 1.0 / (scale * scale)

        rows_eq = np.asarray(view.owned_eq_rows, dtype=int)
        rows_in = np.asarray(view.owned_in_rows, dtype=int)
        a_eq = model.a_eq[rows_eq][:, self.global_cols].tocsr() if rows_eq.size \
            else sp.csr_matrix((0, nloc))
        g_in = model.g_in[rows_in][:, self.global_cols].tocsr() if rows_in.size \
            else sp.csr_matrix((0, nloc))
        quad = model.quad_ineq.take(view.owned_quad_rows)
        # owned rows must not reference columns outside the local set
        if (rows_eq.size and model.a_eq[rows_eq].getnnz() != a_eq.getnnz()) \
                or (rows_in.size
                    and model.g_in[rows_in].getnnz() != g_in.getnnz()) \
                or (local_of[quad.q_col] < 0).any() \
                or (local_of[quad.l_col] < 0).any():
            raise ModelError(
                f"area {view.area}: owned rows reference columns outside "
                "the area and its shared copies")
        quad = quad.substitute(local_of, np.ones(n), np.zeros(n), nloc)

        self.owned_local = is_owned[self.global_cols]
        obj_quad = np.where(self.owned_local,
                            model.obj_quad[self.global_cols], 0.0)
        obj_lin = np.where(self.owned_local,
                           model.obj_lin[self.global_cols], 0.0)

        self.base = StandardModel(
            nloc, obj_quad, obj_lin, 0.0, a_eq,
            model.b_eq[rows_eq].copy() if rows_eq.size else np.zeros(0),
            g_in, model.h_in[rows_in].copy() if rows_in.size else np.zeros(0),
            quad, model.lb[self.global_cols].copy(),
            model.ub[self.global_cols].copy(), np.zeros(nloc, dtype=bool))
        self.prepared = prepare(self.base)
        self.start = None      # warm-start iterate of the last solve
        self.feasible = None   # feasibility-probe verdict, once decided
        self.x = np.zeros(nloc)

    def solve(self, z_vals: np.ndarray, u: np.ndarray, rho: float,
              opts: SolveOptions, tol: float) -> None:
        """Prox step at consensus values ``z_vals`` and scaled duals ``u``,
        to the inner tolerances loosened to at most ``tol``."""
        sl = self.shared_local
        w = rho * self.weights
        obj_quad = self.base.obj_quad.copy()
        obj_lin = self.base.obj_lin.copy()
        obj_quad[sl] += 0.5 * w
        obj_lin[sl] += -w * (z_vals - u)
        res = self.prepared.solve(obj_quad, obj_lin, max(opts.feas_tol, tol),
                                  max(opts.opt_tol, tol), opts.max_iter,
                                  self.start)
        if res.status != "optimal":
            # the presolve and the probe read only the constraints, so one
            # verdict serves every outer iteration
            if self.feasible is None:
                self.feasible = res.status != "infeasible" and (
                    feasibility_probe(self.base, opts)
                    <= probe_threshold(self.base, opts))
            if not self.feasible:
                raise NonConvergence(
                    "area subproblem infeasible during consensus iteration")
        self.x = res.x
        if res.warm is not None:
            self.start = res.warm

    def shared_values(self) -> np.ndarray:
        return self.x[self.shared_local]


def _anderson_step(s_mem: list, y_mem: list, g: np.ndarray) -> np.ndarray:
    """Type-II Anderson correction ``(S - Y) gamma`` for the residual ``g``,
    with ``gamma`` the Tikhonov-regularized least-squares fit
    ``(Y^T Y + eta (|S|^2 + |Y|^2) I) gamma = Y^T g`` (Zhang, O'Donoghue &
    Boyd, SIAM J. Optim. 2020)."""
    S = np.column_stack(s_mem)
    Y = np.column_stack(y_mem)
    reg = _AA_REG * (np.vdot(S, S) + np.vdot(Y, Y))
    gamma = np.linalg.solve(Y.T @ Y + reg * np.eye(Y.shape[1]), Y.T @ g)
    return (S - Y) @ gamma


def solve_consensus(model: StandardModel, views: list[AreaView],
                    opts: ConsensusOptions | None = None) -> Solution:
    """Area-decomposed solve of a relaxed model via scaled consensus ADMM.

    Boundary variables (columns referenced by coupling rows owned by another
    area) are duplicated per touching area and reconciled through averaged
    consensus values with scaled dual updates. With a single area this
    reduces to one centralized solve.

    The outer loop iterates the ADMM map ``T`` on ``v = (z, u_1..u_A)``, the
    consensus values and every area's scaled duals, each entry measured in
    units of its shared column's box magnitude. One evaluation ``T(v)``
    (area solves, averaging, dual update) records one ``(r_norm, d_norm)``
    pair in ``history`` and counts as one of ``iterations``. From the
    last accepted point and its ``f = T(v)``, type-II Anderson acceleration
    (memory ``_AA_MEMORY``) proposes ``f - (S - Y) gamma`` from the
    differences of the last accepted points and of their residuals
    ``v - T(v)``. The candidate is accepted when its own residual passes the
    A2DR safeguard (Fu, Zhang & Boyd 2020); a rejected one costs its
    evaluation and the plain step ``T(f)`` follows. Every tenth evaluation
    the penalty is rebalanced from the primal/dual residual ratio, which
    rescales the duals and clears the memory.

    Area solves run to the inner tolerances loosened to
    ``min(_INEXACT_CAP, _INEXACT * min(r_norm, d_norm))`` of the last
    evaluation (Eckstein & Bertsekas 1992). The run stops when
    ``r_norm <= primal_tol`` and ``d_norm <= dual_tol`` on an evaluation
    whose area solves ran at the full inner tolerances, and returns that
    evaluation's point. With ``_AA_MEMORY = 0`` and ``_INEXACT = 0`` this is
    plain ADMM.

    Raises NonConvergence when the iteration cap is hit with residuals still
    far from tolerance (increase rho or the cap).
    """
    opts = opts or ConsensusOptions()

    all_coupling = [k for v in views for k in v.coupling_eq_rows]
    if not all_coupling or len(views) == 1:
        sol = solve_convex(model, opts.inner)
        sol.iterations = 1
        return sol

    # shared column -> areas that need a copy (owner + borrowers)
    col_owner = {}
    for v in views:
        for j in v.owned_cols:
            col_owner[int(j)] = v.area
    shared_map: dict[int, set[int]] = {}
    for v in views:
        for j in v.foreign_cols:
            shared_map.setdefault(int(j), {col_owner[int(j)]}).add(v.area)
    shared_cols = sorted(shared_map)

    probs = [_AreaProblem(model, v,
                          [j for j in shared_cols if v.area in shared_map[j]])
             for v in views]
    shared = np.array(shared_cols, dtype=int)
    nz = shared.size
    # position of each area's shared columns in the consensus vector, and
    # of its scaled duals in the state v = (z, u_1, ..., u_A)
    pos = [np.searchsorted(shared, p.shared_global) for p in probs]
    offsets = np.cumsum([nz] + [k.size for k in pos])
    spans = list(zip(offsets[:-1], offsets[1:]))
    copies = np.array([len(shared_map[j]) for j in shared_cols], dtype=float)

    # consensus state, initialized at box centers with zero duals
    lo, hi = model.lb[shared], model.ub[shared]
    boxed = np.isfinite(lo) & np.isfinite(hi)
    v = np.zeros(offsets[-1])
    v[:nz][boxed] = 0.5 * (lo[boxed] + hi[boxed])
    rho = opts.rho
    scale_z = col_scale(lo, hi)
    # every entry of v measured in its shared column's units
    v_scale = np.concatenate([scale_z] + [scale_z[k] for k in pos])
    full_tol = min(opts.inner.feas_tol, opts.inner.opt_tol)

    def evaluate(v, rho, tol):
        """One ADMM pass T(v): area solves, averaging, dual update."""
        z = v[:nz]
        for p, k, (a, b) in zip(probs, pos, spans):
            p.solve(z[k], v[a:b], rho, opts.inner, tol)
        sums = np.zeros(nz)
        for p, k, (a, b) in zip(probs, pos, spans):
            np.add.at(sums, k, p.shared_values() + v[a:b])
        f = np.empty_like(v)
        f[:nz] = sums / copies
        r_norm = 0.0
        for p, k, (a, b) in zip(probs, pos, spans):
            diff = p.shared_values() - f[:nz][k]
            f[a:b] = v[a:b] + diff
            r_norm = max(r_norm, float(
                (np.abs(diff) / scale_z[k]).max(initial=0.0)))
        d_norm = rho * float(
            (np.abs(f[:nz] - z) / scale_z).max(initial=0.0))
        return f, r_norm, d_norm

    status = MAX_ITER
    it = 0
    r_norm = d_norm = np.inf
    history = []
    # last accepted point: (v, T(v), scaled residual v - T(v)), and the
    # Anderson memory of scaled differences between accepted points
    base = None
    s_mem, y_mem = [], []
    g0 = None
    n_aa = 0
    candidate = False
    for it in range(1, opts.max_outer + 1):
        tol = min(_INEXACT_CAP, _INEXACT * min(r_norm, d_norm)) \
            if _INEXACT else 0.0
        f, r_norm, d_norm = evaluate(v, rho, tol)
        history.append((r_norm, d_norm))

        if r_norm <= opts.primal_tol and d_norm <= opts.dual_tol \
                and tol <= full_tol:
            status = OPTIMAL
            break

        g = (v - f) / v_scale
        g_norm = float(np.linalg.norm(g))
        if candidate and g_norm > _AA_SAFE_D * g0 * (
                n_aa / _AA_SAFE_R + 1.0) ** -(1.0 + _AA_SAFE_EPS):
            # safeguard: drop the candidate for the plain step
            v = base[1]
            candidate = False
        else:
            n_aa += candidate
            if base is not None and _AA_MEMORY:
                s_mem = (s_mem + [(v - base[0]) / v_scale])[-_AA_MEMORY:]
                y_mem = (y_mem + [g - base[2]])[-_AA_MEMORY:]
            if g0 is None:
                g0 = g_norm
            base = (v, f, g)
            candidate = bool(s_mem)
            v = f - v_scale * _anderson_step(s_mem, y_mem, g) if candidate \
                else f

        if it % 10 == 0:
            step = (2.0 if r_norm > 10.0 * d_norm and rho < 1e6 else
                    0.5 if d_norm > 10.0 * r_norm and rho > 1e-4 else 1.0)
            if step != 1.0:
                # rescale the duals of the plain step; the memory holds
                # differences taken at the old rho
                rho *= step
                v = base[1].copy()
                v[nz:] /= step
                base, s_mem, y_mem, candidate = None, [], [], False

    if status == MAX_ITER and r_norm > 1e3 * opts.primal_tol:
        raise NonConvergence(
            f"consensus residual {r_norm:.2e} after {it} iterations; "
            "consider increasing rho")

    x = np.zeros(model.num_vars)
    for p in probs:
        x[p.global_cols[p.owned_local]] = p.x[p.owned_local]
    x[shared] = f[:nz]

    rep = check_point(model, x, tol=np.inf)
    return Solution(
        x=x, objective=model.objective(x), status=status,
        residuals=Residuals(rep.max_eq,
                            max(rep.max_in, rep.max_quad, rep.max_bound),
                            r_norm),
        iterations=it, history=history)
