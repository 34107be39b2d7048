"""Primal-dual interior-point engine for convex quadratic programs with
convex quadratic inequality rows.

Solves the standard form used by the model builder::

    minimize    sum_j q_j x_j^2 + c^T x
    subject to  A x = b
                G x <= h            (slack form G x + s = h, s >= 0)
                qc_k(x) <= 0        (convex, diagonal quadratic part)
                lb <= x <= ub

The presolve is the model builder's one column-elimination routine,
``mipbuild.substitute_columns``: it fixes the pinned (``lb == ub``) columns,
drops the rows whose support vanished and reports an inconsistent vanished
row or an empty box as status ``infeasible``; its index maps carry the
solution and every dual back to the full model.

The implementation is an infeasible-start Mehrotra predictor-corrector:
bounds are folded into the inequality block, variables and rows are
equilibrated, and each iteration solves one condensed KKT system for the
affine and corrector directions. The KKT matrix is sparse with a fixed
pattern: the pattern and the maps from every product term to its slot are
built once, each iteration only refills the values. Quadratic rows arrive
as the model's coordinate block (``mipbuild.QuadBlock``) and enter through
their gradients plus a second-order correction in the corrector, which is
exact for quadratics.

Factoring goes through one seam, ``KktPartition.factor``, which splits the
KKT indices into blocks plus a border. Without area labels K is one block
with an empty border and is factored whole. With the area of every column
and equality row (``solve_ipm(..., areas=...)``), each area's columns and
own equality rows form a block and the coupling equality rows form the
border: every block is factored on its own and one small Schur complement
on the border couples them (a block-bordered interior point, as in Gondzio
& Grothey, Comput. Manag. Sci. 2009). Both give the same Newton step up to
rounding. Every factor goes through ``_lu``: SuperLU in its symmetric
mode, with minimum-degree ordering of ``K + K^T`` applied to rows and
columns alike and a diagonal pivot kept unless it is below 0.01 of its
column's largest entry. K is symmetric quasi-definite (Vanderbei, SIAM J.
Optim. 1995), so most pivots stay on the diagonal and the factor follows the
symmetric ordering; default partial pivoting ignores the symmetry and is
slower. A threshold of 0 would be faster still but, with only the static
regularization below, unstable. Static regularization and one refinement
pass against the whole K follow.
Cold start from the box midpoints. Determinism: fixed ordering and
iteration order, no randomness.

There is one stopping rule, the module constants ``_FEAS_TOL``,
``_OPT_TOL`` and ``_MAX_ITER``: status ``optimal`` once the primal
residual is within 1e-10 of ``1 + max(|b|, |h|)``, the dual residual within
1e-9 of ``1 + max|c|`` (scaled system) and the relative gap within 1e-10;
status ``max_iter``, with the best iterate, after 200 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, ModelError
from .mipbuild import (QuadBlock, StandardModel, csr_from_rows, entry_rows,
                       substitute_columns)

_REG_PRIMAL = 1e-10
_REG_DUAL = 1e-10
_W_CAP = 1e14
_DIAG_PIVOT_THRESH = 0.01

# the stopping rule (see the module docstring); ``_iterate`` alone reads it
_FEAS_TOL = 1e-10
_OPT_TOL = 1e-10
_MAX_ITER = 200


@dataclass
class EngineResult:
    """Raw solver outcome in original (unscaled) variables."""

    x: np.ndarray
    nu: np.ndarray            # equality duals
    lam_in: np.ndarray        # duals of model inequality rows
    lam_lb: np.ndarray        # duals of active lower bounds (per column)
    lam_ub: np.ndarray        # duals of active upper bounds (per column)
    mu_quad: np.ndarray       # duals of quadratic rows
    status: str               # "optimal" | "max_iter" | "stalled"
    #                           | "infeasible" (proven by the presolve)
    iterations: int


def _row_pairs(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair of entries within each row of a CSR-style layout:
    ``(row, first entry, second entry)``."""
    counts = np.diff(indptr)
    npairs = counts * counts
    row = np.repeat(np.arange(counts.size), npairs)
    local = np.arange(row.size) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    k = counts[row]
    start = indptr[:-1][row]
    return row, start + local // k, start + local % k


class Kkt:
    """Condensed KKT matrix
    ``K = [[G^T W G + diag(H) + J^T V J, A^T], [A, -reg I]]`` in CSC form.

    The pattern and the slot of every term of ``G^T W G`` (pairs of
    nonzeros within each row of ``G``), the diagonal, ``J^T V J`` (pairs
    within each row of the gradient pattern) and the constant ``A`` blocks
    are built once; ``fill`` only recomputes ``K.data``.
    """

    def __init__(self, G: sp.csr_matrix, A: sp.csr_matrix, quad: QuadBlock):
        n = G.shape[1]
        me = A.shape[0]
        size = n + me
        g_row, g_a, g_b = _row_pairs(G.indptr)
        self._g_row = g_row
        self._g_prod = G.data[g_a] * G.data[g_b]
        j_ptr = np.concatenate([[0], np.cumsum(
            np.bincount(quad.j_row, minlength=len(quad)))])
        self._j_row, self._j_a, self._j_b = _row_pairs(j_ptr)
        diag = np.arange(n)
        A = A.tocoo()
        dual = n + np.arange(me)
        rows = np.concatenate([G.indices[g_a], diag, quad.j_col[self._j_a],
                               n + A.row, A.col, dual])
        cols = np.concatenate([G.indices[g_b], diag, quad.j_col[self._j_b],
                               A.col, n + A.row, dual])
        # column-major keys sort straight into canonical CSC order
        keys = cols.astype(np.int64) * size + rows
        uniq, slot = np.unique(keys, return_inverse=True)
        nnz = uniq.size
        n_var = g_row.size + n + self._j_row.size
        self._slot_var = slot[:n_var]
        self._base = np.bincount(
            slot[n_var:], np.concatenate([A.data, A.data,
                                          np.full(me, -_REG_DUAL)]),
            minlength=nnz)
        indptr = np.concatenate([[0], np.cumsum(
            np.bincount(uniq // size, minlength=size))])
        self.K = sp.csc_matrix(
            (self._base.copy(), (uniq % size).astype(np.int32),
             indptr.astype(np.int32)), shape=(size, size))

    def fill(self, W: np.ndarray, H: np.ndarray, V: np.ndarray,
             jv: np.ndarray) -> sp.csc_matrix:
        """Refill ``K.data`` for row weights ``W``, diagonal ``H``, quadratic
        row weights ``V`` and gradient values ``jv``; returns ``K``."""
        w = np.concatenate([W[self._g_row] * self._g_prod, H,
                            V[self._j_row] * jv[self._j_a] * jv[self._j_b]])
        self.K.data[:] = self._base + np.bincount(
            self._slot_var, w, minlength=self._base.size)
        return self.K


class KktPartition:
    """The KKT indices split into blocks plus a border, with the maps from
    K's slots to each block and to its border columns, built once from K's
    fixed pattern.

    ``label[i]`` is the block of KKT index ``i``, -1 for the border. Every
    entry of K outside the border rows and columns must lie within one
    block, so after permutation K is block diagonal but for the border;
    ``__init__`` raises ModelError otherwise. That check guards the exact
    Newton step: any entry between two blocks, from an inequality,
    equality or quadratic row, would be lost to the block factors. Which
    area owns a row is ``mipbuild.area_views``'s check, not this one.
    ``factor`` factors each block ``K_aa`` on its own and the dense Schur
    complement ``S = K_bb - sum_a K_ab^T K_aa^-1 K_ab`` of the border (K is
    symmetric); with one block and an empty border it factors K itself.
    Every factor is SuperLU with threshold diagonal pivoting in its
    symmetric mode (``_lu``).
    """

    def __init__(self, K: sp.csc_matrix, label: np.ndarray):
        size = K.shape[0]
        rows = K.indices
        cols = np.repeat(np.arange(size), np.diff(K.indptr))
        lr, lc = label[rows], label[cols]
        if ((lr >= 0) & (lc >= 0) & (lr != lc)).any():
            raise ModelError("a row outside the coupling rows spans two "
                             "areas")
        self.border = np.flatnonzero(label < 0)
        nb = self.border.size
        # position of each index within its block, or within the border
        pos = np.zeros(size, dtype=np.intp)
        pos[self.border] = np.arange(nb)
        bb = np.flatnonzero((lr < 0) & (lc < 0))
        self._bb = bb, pos[rows[bb]] * nb + pos[cols[bb]]
        self.blocks = []
        for a in np.unique(label[label >= 0]):
            idx = np.flatnonzero(label == a)
            pos[idx] = np.arange(idx.size)
            if idx.size == size:
                mat, inner = K, None    # one block: K itself, no copy
            else:
                inner = np.flatnonzero((lr == a) & (lc == a))
                # K's canonical CSC order carries over to the block
                indptr = np.concatenate([[0], np.cumsum(
                    np.bincount(pos[cols[inner]], minlength=idx.size))])
                mat = sp.csc_matrix(
                    (np.zeros(inner.size), pos[rows[inner]].astype(np.int32),
                     indptr.astype(np.int32)), shape=(idx.size, idx.size))
            ab = np.flatnonzero((lr == a) & (lc < 0))
            touch = np.unique(pos[cols[ab]])
            self.blocks.append(_Block(
                idx, inner, mat, touch, ab, pos[rows[ab]] * touch.size
                + np.searchsorted(touch, pos[cols[ab]])))

    def factor(self, K: sp.csc_matrix) -> _Factor:
        """Factor K (refilled on the pattern the partition was built from).

        A singular block or border raises RuntimeError, as SuperLU does for
        a singular K; so does a non-finite border.
        """
        data = K.data
        lus = []
        for blk in self.blocks:
            if blk.inner is not None:
                blk.mat.data[:] = data[blk.inner]
            lus.append(_lu(blk.mat))
        nb = self.border.size
        if not nb:
            return _Factor(self, lus, [], None)
        S = np.zeros(nb * nb)
        S[self._bb[1]] = data[self._bb[0]]
        S = S.reshape(nb, nb)
        coupling = []
        for blk, lu in zip(self.blocks, lus):
            kab = np.zeros((blk.idx.size, blk.touch.size))
            kab.flat[blk.ab_flat] = data[blk.ab]
            z = lu.solve(kab)
            S[np.ix_(blk.touch, blk.touch)] -= kab.T @ z
            coupling.append((kab, z))
        if not np.isfinite(S).all():
            raise RuntimeError("non-finite border Schur complement")
        return _Factor(self, lus, coupling, _lu(sp.csc_matrix(S)))


def _lu(mat: sp.csc_matrix):
    """SuperLU factor of a symmetric KKT block: minimum-degree ordering of
    ``mat + mat^T`` applied to rows and columns alike, keeping a diagonal
    pivot unless it is below ``_DIAG_PIVOT_THRESH`` times the largest entry
    of its column (SuperLU's symmetric mode)."""
    return splu(mat, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                options={"SymmetricMode": True})


@dataclass
class _Block:
    """One block of a ``KktPartition``: its KKT indices, the slots of its
    own entries in K (None when the block is all of K) and the matrix they
    refill, the border positions its
    ``K_ab`` touches, and the slots of ``K_ab`` with their flat positions in
    the dense ``len(idx) x len(touch)`` array."""

    idx: np.ndarray
    inner: np.ndarray | None
    mat: sp.csc_matrix
    touch: np.ndarray
    ab: np.ndarray
    ab_flat: np.ndarray


@dataclass
class _Factor:
    """Factors of a partitioned K: the LU of every block and, with a
    border, per block ``K_ab`` and ``K_aa^-1 K_ab`` (on the border positions
    it touches) and the LU of the border's Schur complement."""

    partition: KktPartition
    lus: list
    coupling: list            # empty without a border
    schur: object             # None without a border

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``K^-1 rhs`` by block elimination of the border."""
        blocks = self.partition.blocks
        if self.schur is None and len(blocks) == 1:
            return self.lus[0].solve(rhs)     # the block is K itself
        ys = [lu.solve(rhs[blk.idx]) for blk, lu in zip(blocks, self.lus)]
        out = np.empty(rhs.size)
        if self.schur is not None:
            border = self.partition.border
            rb = rhs[border]
            for blk, (kab, _), y in zip(blocks, self.coupling, ys):
                rb[blk.touch] -= kab.T @ y
            xb = self.schur.solve(rb)
            out[border] = xb
            for blk, (_, z), y in zip(blocks, self.coupling, ys):
                y -= z @ xb[blk.touch]
        for blk, y in zip(blocks, ys):
            out[blk.idx] = y
        return out


def _initial_x(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Analytic-center-flavored start: box midpoints, pushed off one-sided
    bounds, zero for free columns."""
    x = np.zeros(lb.size)
    both = np.isfinite(lb) & np.isfinite(ub)
    x[both] = 0.5 * (lb[both] + ub[both])
    lo_only = np.isfinite(lb) & ~np.isfinite(ub)
    x[lo_only] = lb[lo_only] + 1.0
    hi_only = ~np.isfinite(lb) & np.isfinite(ub)
    x[hi_only] = ub[hi_only] - 1.0
    return x


def _col_scale(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Box magnitude ``max(1, |lb|, |ub|)`` per column; infinite bounds
    count as 0."""
    d = np.ones(lb.size)
    fl = np.isfinite(lb)
    fu = np.isfinite(ub)
    d[fl] = np.maximum(d[fl], np.abs(lb[fl]))
    d[fu] = np.maximum(d[fu], np.abs(ub[fu]))
    return d


def solve_ipm(model: StandardModel,
              areas: tuple[np.ndarray, np.ndarray] | None = None
              ) -> EngineResult:
    """Solve ``model`` with its own objective, cold from the box midpoints.

    The presolve is ``substitute_columns`` with the pinned (``lb == ub``)
    columns fixed: pinned columns and vanished rows both destroy the strict
    interior the barrier needs (paired zero slacks). When it proves the
    model infeasible (an inconsistent vanished row or an empty box), returns
    status ``infeasible`` without iterating.

    ``areas`` is ``(col_area, eq_area)``, the block of every model column
    and of every equality row (integers >= 0; -1 puts an equality row in
    the border, as a coupling row), as ``mipbuild.area_views`` returns them
    with area ``a`` as block ``a - 1``. The KKT step then factors each block
    on its own and couples them through the border (``KktPartition``);
    without it K is one block.
    Raises ConfigError on a model with integral columns and ModelError when
    some row other than a border row spans two blocks.
    """
    if model.integrality.any():
        raise ConfigError("relax the model before solving")
    n = model.num_vars
    pinned = np.flatnonzero(np.isfinite(model.lb) & (model.lb == model.ub))
    red = substitute_columns(
        model, dict(zip(pinned.tolist(), model.lb[pinned].tolist())), {})
    if not red.feasible:
        return EngineResult(_initial_x(model.lb, model.ub),
                            np.zeros(model.num_eq), np.zeros(model.num_in),
                            np.zeros(n), np.zeros(n),
                            np.zeros(len(model.quad_ineq)), "infeasible", 0)

    label = np.zeros(red.keep.size + red.eq_rows.size, dtype=np.intp) \
        if areas is None else np.concatenate([areas[0][red.keep],
                                              areas[1][red.eq_rows]])
    res = _iterate(red.model, label)
    x = np.zeros(n)
    x[red.keep] = res.x
    x[pinned] = model.lb[pinned]
    nu = np.zeros(model.num_eq)
    nu[red.eq_rows] = res.nu
    lam = np.zeros(model.num_in)
    lam[red.in_rows] = res.lam_in
    mu = np.zeros(len(model.quad_ineq))
    mu[red.quad_rows] = res.mu_quad
    lam_lb = np.zeros(n)
    lam_ub = np.zeros(n)
    lam_lb[red.keep] = res.lam_lb
    lam_ub[red.keep] = res.lam_ub
    return EngineResult(x, nu, lam, lam_lb, lam_ub, mu, res.status,
                        res.iterations)


def _equilibrate(mat: sp.csr_matrix, d: np.ndarray
                 ) -> tuple[sp.csr_matrix, np.ndarray]:
    """``diag(rs) @ mat @ diag(d)``, where ``rs`` divides every row by its
    largest magnitude (at least 1), and ``rs``. Every entry is computed as
    ``rs * (a * d)``; entries that come out zero are dropped. Each row lists
    its entries by descending column: every product with the matrix sums in
    that order, and the stage-1 points recorded in the tests depend on it."""
    m, n = mat.shape
    row = entry_rows(mat)
    col = mat.indices
    data = mat.data * d[col]
    nz = np.flatnonzero(data)
    nz = nz[np.argsort(row[nz] * n + (n - 1 - col[nz]), kind="stable")]
    row, col, data = row[nz], col[nz], data[nz]
    mags = np.ones(m)
    np.maximum.at(mags, row, np.abs(data))
    rs = 1.0 / mags
    data = rs[row] * data
    nz = data != 0
    return csr_from_rows(row[nz], col[nz], data[nz], mat.shape), rs


def _iterate(model: StandardModel, label: np.ndarray) -> EngineResult:
    """Mehrotra predictor-corrector on a presolved model, cold from the box
    midpoints.

    Columns are scaled by box magnitude, rows to unit max coefficient, and
    finite bounds are folded into the inequality block; the KKT pattern and
    its partition by ``label`` (see ``KktPartition``) are built once."""
    n = model.num_vars
    if n == 0:
        return EngineResult(np.zeros(0), np.zeros(0), np.zeros(0),
                            np.zeros(0), np.zeros(0), np.zeros(0), "optimal",
                            0)

    d = _col_scale(model.lb, model.ub)
    q = model.obj_quad * d * d
    c = model.obj_lin * d
    lb = model.lb / d
    ub = model.ub / d
    A, rs_a = _equilibrate(model.a_eq, d)
    Gm, rs_g = _equilibrate(model.g_in, d)
    b = model.b_eq * rs_a
    quad, rs_q = model.quad_ineq.scaled(d)
    # fold finite bounds into the inequality block: x_j <= ub_j rows, then
    # -x_j <= -lb_j rows
    fu = np.flatnonzero(np.isfinite(ub))
    fl = np.flatnonzero(np.isfinite(lb))
    nb = fu.size + fl.size
    G = sp.csr_matrix(
        (np.concatenate([Gm.data, np.ones(fu.size), -np.ones(fl.size)]),
         np.concatenate([Gm.indices, fu, fl]),
         np.concatenate([Gm.indptr, Gm.nnz + 1 + np.arange(nb)])),
        shape=(Gm.shape[0] + nb, n))
    h = np.concatenate([model.h_in * rs_g, ub[fu], -lb[fl]])
    GT = G.T.tocsr()
    AT = A.T.tocsr()
    kkt = Kkt(G, A, quad)
    partition = KktPartition(kkt.K, label)
    mi = G.shape[0]
    mq = len(quad)

    x = _initial_x(lb, ub)
    nu = np.zeros(A.shape[0])
    s = np.maximum(h - G @ x, 1.0)
    lam = np.ones(mi)
    t = np.maximum(-quad.value(x), 1.0)
    mu = np.ones(mq)

    scale_p = 1.0 + max(np.abs(b).max(initial=0.0), np.abs(h).max(initial=0.0))
    scale_d = 1.0 + np.abs(c).max(initial=0.0)
    m_total = mi + mq

    def residuals(x, nu, lam, mu, jv, qv):
        rd = 2.0 * q * x + c + AT @ nu + GT @ lam + quad.jac_t(jv, mu)
        return rd, A @ x - b, G @ x + s - h, qv + t

    def factor(W, H, V, jv):
        """Refill and factor K; a singular factor raises RuntimeError here,
        a non-finite one shows as a non-finite solution in ``solve_kkt``."""
        K = kkt.fill(W, H, V, jv)
        return K, partition.factor(K)

    best = None
    best_merit = np.inf
    status = "max_iter"
    stall = 0
    iters_done = 0
    pres_hist: list[float] = []

    # pure equality-constrained QP: single KKT solve
    if m_total == 0:
        _, lu = factor(np.zeros(0), 2.0 * q + _REG_PRIMAL, np.zeros(0),
                       np.zeros(0))
        sol = lu.solve(np.concatenate([-c, b]))
        x, nu = sol[:n], sol[n:]
        return EngineResult(
            x * d, nu * rs_a, np.zeros(0), np.zeros(n),
            np.zeros(n), np.zeros(0), "optimal", 1)

    for it in range(_MAX_ITER):
        iters_done = it + 1
        qv = quad.value(x)
        jv = quad.jac(x)
        rd, rp, rg, rq = residuals(x, nu, lam, mu, jv, qv)

        gap_total = float(s @ lam + t @ mu)
        gap = gap_total / m_total
        fx = float(q @ (x * x) + c @ x)
        pres = max(np.abs(rp).max(initial=0.0), np.abs(rg).max(initial=0.0),
                   np.abs(rq).max(initial=0.0))
        dres = float(np.abs(rd).max(initial=0.0))
        relgap = gap_total / (1.0 + abs(fx))

        merit = pres / scale_p + dres / scale_d + relgap
        if merit < best_merit:
            best_merit = merit
            best = (x.copy(), nu.copy(), lam.copy(), mu.copy())

        if (pres <= _FEAS_TOL * scale_p and dres <= _OPT_TOL * scale_d * 10.0
                and relgap <= _OPT_TOL):
            status = "optimal"
            break

        # infeasible problems show up as diverging duals with a primal
        # residual that stops improving; bail out early and let the caller
        # judge the stall (convexsolve.feasibility_probe, HiGHS LPs)
        dual_norm = max(np.abs(lam).max(initial=0.0),
                        np.abs(mu).max(initial=0.0),
                        np.abs(nu).max(initial=0.0))
        if dual_norm > 1e9 and pres > 10.0 * _FEAS_TOL * scale_p:
            status = "stalled"
            break
        pres_hist.append(pres)
        if (len(pres_hist) >= 24 and pres > 1e3 * _FEAS_TOL * scale_p
                and min(pres_hist[-12:]) > 0.8 * min(pres_hist[-24:-12])):
            status = "stalled"
            break

        # condensed KKT matrix, shared by predictor and corrector
        W = np.minimum(lam / s, _W_CAP)
        V = np.minimum(mu / t, _W_CAP)
        Hd = 2.0 * q + _REG_PRIMAL + quad.hess_diag(mu)
        try:
            K, lu = factor(W, Hd, V, jv)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            status = "stalled"
            break

        def solve_kkt(rhs):
            with np.errstate(all="ignore"):
                sol = lu.solve(rhs)
                if not np.isfinite(sol).all():
                    raise FloatingPointError("non-finite KKT solution")
                # one refinement pass
                sol = sol + lu.solve(rhs - K @ sol)
            if not np.isfinite(sol).all():
                raise FloatingPointError("non-finite KKT solution")
            return sol[:n], sol[n:]

        def direction(sigma_gap, corr_s, corr_t, rq_eff):
            rcs = sigma_gap - s * lam - corr_s
            rct = sigma_gap - t * mu - corr_t
            rhs_x = (-rd - GT @ ((rcs + lam * rg) / s)
                     - quad.jac_t(jv, (rct + mu * rq_eff) / t))
            rhs = np.concatenate([rhs_x, -rp])
            dx, dnu = solve_kkt(rhs)
            ds = -rg - G @ dx
            dlam = (rcs - lam * ds) / s
            dt = -rq_eff - quad.jac_mul(jv, dx)
            dmu = (rct - mu * dt) / t
            return dx, dnu, ds, dlam, dt, dmu

        # every slack and multiplier, for one ratio test per step
        v = np.concatenate([s, lam, t, mu])

        def max_step(*dv):
            """Longest step in (0, 1] along ``dv`` (the directions of s, lam,
            t and mu) that keeps them all nonnegative."""
            dv = np.concatenate(dv)
            neg = dv < 0
            if not neg.any():
                return 1.0
            return float(min(1.0, (-v[neg] / dv[neg]).min()))

        # predictor
        try:
            dxa, dnua, dsa, dlama, dta, dmua = direction(
                0.0, np.zeros(mi), np.zeros(mq), rq)
            a_aff = max_step(dsa, dlama, dta, dmua)
            gap_aff = (float((s + a_aff * dsa) @ (lam + a_aff * dlama))
                       + float((t + a_aff * dta) @ (mu + a_aff * dmua))
                       ) / m_total
            sigma = min(max((gap_aff / gap) ** 3, 1e-8), 1.0 - 1e-8)

            # corrector with second-order terms (exact for quadratic rows)
            dx, dnu, ds, dlam, dt, dmu = direction(
                sigma * gap, dsa * dlama, dta * dmua,
                rq + quad.curvature(dxa))
        except FloatingPointError:
            status = "stalled"
            break

        tau = 0.995 if gap > 1e-6 else 0.9995
        alpha = tau * max_step(ds, dlam, dt, dmu)
        alpha = min(alpha, 1.0)
        if alpha < 1e-9:
            stall += 1
            if stall >= 3:
                status = "stalled"
                break
        else:
            stall = 0

        x = x + alpha * dx
        nu = nu + alpha * dnu
        s = s + alpha * ds
        lam = lam + alpha * dlam
        t = t + alpha * dt
        mu = mu + alpha * dmu

    if status != "optimal" and best is not None:
        x, nu, lam, mu = best

    # split folded duals back out and undo scaling
    num_in = model.num_in
    lam_ub = np.zeros(n)
    lam_lb = np.zeros(n)
    lam_ub[fu] = lam[num_in:num_in + fu.size]
    lam_lb[fl] = lam[num_in + fu.size:]
    return EngineResult(x * d, nu * rs_a, lam[:num_in] * rs_g, lam_lb / d,
                        lam_ub / d, mu * rs_q, status, iters_done)
