"""Assembly of the mixed-integer dispatch model and its convex relaxation.

The model is kept in a plain standard form:

    minimize    sum_i q_i x_i^2 + c^T x + c0
    subject to  A_eq x = b_eq
                G_in x <= h_in
                quadratic rows:  sum_k p_k x_k^2 + l^T x + d <= 0  (convex)
                lb <= x <= ub, integrality mask over columns

with a stable, deterministic variable index. Per orientation of each internal
pipe the model carries the flow, one pressure product, ``r`` flow products and
``1 + 3r`` binaries; tie pipes carry two directed flow variables linked by a
reciprocity row and no pressure coupling. The orientation-coupled flow
equality is emitted once per undirected internal pipe (the mirrored copy is
implied by reciprocity and the sign link once binaries are integral, and
emitting both would make the equality block rank-deficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ModelError
from .netmodel import NetworkInstance, classify_edges
from .pwa import PwaConfig, PwaCurve, Row, emit_mld, fit_pwa

# variable kinds
P = "p"          # generator output
DGU = "dgu"      # generator gas consumption
THETA = "theta"  # bus voltage angle
GS = "gs"        # source gas production
PSI = "psi"      # squared nodal pressure
PHI = "phi"      # directed pipe flow
YPSI = "ypsi"    # dpsi * psi_i product
YM = "ym"        # dm * phi product
DPSI = "dpsi"    # pressure-order / flow-sign binary
ALPHA = "alpha"  # [phi <= hi_m] binary
BETA = "beta"    # [phi >= lo_m] binary
DM = "dm"        # region indicator binary

_BINARY_KINDS = (DPSI, ALPHA, BETA, DM)


class VarIndex:
    """Bijective map between semantic variables and dense column indices.

    Keys are ``(kind, owner)`` or ``(kind, owner, region)``; owners are entity
    ids, or ``(from, to)`` tuples for directed pipe variables. Ordering is the
    insertion order of the build and therefore deterministic for a given
    instance and configuration.
    """

    def __init__(self):
        self._fwd: dict[tuple, int] = {}
        self._rev: list[tuple] = []

    def add(self, kind: str, owner, m: int | None = None) -> int:
        key = (kind, owner) if m is None else (kind, owner, m)
        if key in self._fwd:
            raise ValueError(f"duplicate variable {key}")
        j = len(self._rev)
        self._fwd[key] = j
        self._rev.append(key)
        return j

    def col(self, kind: str, owner, m: int | None = None) -> int:
        key = (kind, owner) if m is None else (kind, owner, m)
        return self._fwd[key]

    def key(self, j: int) -> tuple:
        return self._rev[j]

    def name(self, j: int) -> str:
        key = self._rev[j]
        owner = key[1]
        owner = f"{owner[0]}->{owner[1]}" if isinstance(owner, tuple) else owner
        if len(key) == 3:
            return f"{key[0]}[{owner},{key[2]}]"
        return f"{key[0]}[{owner}]"

    def columns(self, kind: str) -> list[int]:
        return [j for j, key in enumerate(self._rev) if key[0] == kind]

    def __len__(self) -> int:
        return len(self._rev)

    def __contains__(self, key) -> bool:
        return key in self._fwd

    def items(self):
        return ((key, j) for j, key in enumerate(self._rev))


@dataclass(frozen=True)
class QuadRow:
    """Convex quadratic inequality ``sum coef*x[idx]^2 + lin . x + const <= 0``."""

    quad_idx: tuple[int, ...]
    quad_coef: tuple[float, ...]
    lin_idx: tuple[int, ...]
    lin_coef: tuple[float, ...]
    const: float
    label: str

    def value(self, x: np.ndarray) -> float:
        v = self.const
        for j, c in zip(self.quad_idx, self.quad_coef):
            v += c * x[j] * x[j]
        for j, c in zip(self.lin_idx, self.lin_coef):
            v += c * x[j]
        return v

    def grad(self, x: np.ndarray, n: int) -> np.ndarray:
        g = np.zeros(n)
        for j, c in zip(self.quad_idx, self.quad_coef):
            g[j] += 2.0 * c * x[j]
        for j, c in zip(self.lin_idx, self.lin_coef):
            g[j] += c
        return g


@dataclass
class StandardModel:
    """Standard-form optimization model with sparse row storage."""

    num_vars: int
    obj_quad: np.ndarray
    obj_lin: np.ndarray
    obj_const: float
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    g_in: sp.csr_matrix
    h_in: np.ndarray
    quad_ineq: list[QuadRow]
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    eq_labels: list[str]
    in_labels: list[str]

    @property
    def num_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def num_in(self) -> int:
        return self.g_in.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return float(self.obj_quad @ (x * x) + self.obj_lin @ x + self.obj_const)

    def copy(self) -> "StandardModel":
        return StandardModel(
            self.num_vars, self.obj_quad.copy(), self.obj_lin.copy(),
            self.obj_const, self.a_eq.copy(), self.b_eq.copy(),
            self.g_in.copy(), self.h_in.copy(), list(self.quad_ineq),
            self.lb.copy(), self.ub.copy(), self.integrality.copy(),
            list(self.eq_labels), list(self.in_labels))


class _RowStore:
    def __init__(self):
        self.rows: list[Row] = []

    def add(self, cols, coefs, rhs, label):
        self.rows.append(Row(tuple(cols), tuple(coefs), float(rhs), label))

    def extend(self, rows):
        self.rows.extend(rows)

    def to_csr(self, n: int) -> tuple[sp.csr_matrix, np.ndarray, list[str]]:
        data, ri, ci = [], [], []
        rhs = np.zeros(len(self.rows))
        labels = []
        for k, row in enumerate(self.rows):
            if len(row.cols) != len(row.coefs):
                raise ModelError(f"row {row.label}: {len(row.cols)} columns "
                                 f"but {len(row.coefs)} coefficients")
            ri.extend([k] * len(row.cols))
            ci.extend(row.cols)
            data.extend(row.coefs)
            rhs[k] = row.rhs
            labels.append(row.label)
        if ci and not 0 <= min(ci) <= max(ci) < n:
            raise ModelError(f"a row references a column outside 0..{n - 1}")
        mat = sp.csr_matrix((data, (ri, ci)), shape=(len(self.rows), n))
        mat.sum_duplicates()
        return mat, rhs, labels


def fit_all_curves(inst: NetworkInstance, cfg: PwaConfig) -> dict[tuple, PwaCurve]:
    """Chord curves for every directed internal-pipe orientation."""
    edges = classify_edges(inst)
    return {
        dp.key: fit_pwa(dp.weymouth_c, dp.flow_cap, cfg, pipe=dp.key)
        for dp in edges.internal_pipes_directed
    }


def build_model(inst: NetworkInstance, cfg: PwaConfig) -> tuple[StandardModel, VarIndex]:
    """Assemble the full mixed-integer dispatch model.

    Rows, in order: one power balance per bus, one gas balance per gas node,
    one reciprocity row per tie pipe, then per internal pipe the reciprocity /
    coupled flow equality / sign link plus both orientations' simplex rows;
    all big-M logic blocks as inequalities; one convex quadratic conversion
    row per gas-fueled generator. Non-gas units have their gas consumption
    pinned to zero through the variable box.
    """
    edges = classify_edges(inst)
    curves = fit_all_curves(inst, cfg)
    index = VarIndex()

    for g in inst.generators:
        index.add(P, g.id)
        index.add(DGU, g.id)
    for b in inst.buses:
        index.add(THETA, b.id)
    for s in inst.gas_sources:
        index.add(GS, s.id)
    for n in inst.gas_nodes:
        index.add(PSI, n.id)
    for p in edges.tie_pipes:
        index.add(PHI, (p.from_node, p.to_node))
        index.add(PHI, (p.to_node, p.from_node))
    for dp in edges.internal_pipes_directed:
        index.add(PHI, dp.key)
        index.add(YPSI, dp.key)
        for m in range(1, cfg.r + 1):
            index.add(YM, dp.key, m)
        index.add(DPSI, dp.key)
        for m in range(1, cfg.r + 1):
            index.add(ALPHA, dp.key, m)
        for m in range(1, cfg.r + 1):
            index.add(BETA, dp.key, m)
        for m in range(1, cfg.r + 1):
            index.add(DM, dp.key, m)

    n = len(index)
    obj_quad = np.zeros(n)
    obj_lin = np.zeros(n)
    obj_const = 0.0
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    integrality = np.zeros(n, dtype=bool)

    for g in inst.generators:
        jp = index.col(P, g.id)
        jd = index.col(DGU, g.id)
        lb[jp], ub[jp] = g.p_min, g.p_max
        if g.is_gas:
            lb[jd], ub[jd] = 0.0, np.inf
        else:
            lb[jd] = ub[jd] = 0.0
            obj_quad[jp] = g.cost_c2
            obj_lin[jp] = g.cost_c1
            obj_const += g.cost_c0
    for b in inst.buses:
        jt = index.col(THETA, b.id)
        lb[jt], ub[jt] = b.theta_min, b.theta_max
    for s in inst.gas_sources:
        jg = index.col(GS, s.id)
        lb[jg], ub[jg] = s.g_min, s.g_max
        obj_lin[jg] = s.cost_c1
        obj_const += s.cost_c0
    for nd in inst.gas_nodes:
        jn = index.col(PSI, nd.id)
        lb[jn], ub[jn] = nd.psi_min, nd.psi_max
    for p in edges.tie_pipes:
        for key in ((p.from_node, p.to_node), (p.to_node, p.from_node)):
            jf = index.col(PHI, key)
            lb[jf], ub[jf] = -p.flow_cap, p.flow_cap
    node_map = {nd.id: nd for nd in inst.gas_nodes}
    for dp in edges.internal_pipes_directed:
        jf = index.col(PHI, dp.key)
        lb[jf], ub[jf] = -dp.flow_cap, dp.flow_cap
        jy = index.col(YPSI, dp.key)
        nd = node_map[dp.from_node]
        lb[jy], ub[jy] = min(0.0, nd.psi_min), max(0.0, nd.psi_max)
        for m in range(1, cfg.r + 1):
            jm = index.col(YM, dp.key, m)
            lb[jm], ub[jm] = -dp.flow_cap, dp.flow_cap
        for kind in _BINARY_KINDS:
            ms = (None,) if kind == DPSI else range(1, cfg.r + 1)
            for m in ms:
                jz = index.col(kind, dp.key, m)
                lb[jz], ub[jz] = 0.0, 1.0
                integrality[jz] = True

    eq = _RowStore()
    ineq = _RowStore()

    # power balance per bus: sum(p at bus) - sum((theta_i - theta_j)/X) = demand
    gens_at_bus: dict[str, list] = {b.id: [] for b in inst.buses}
    for g in inst.generators:
        gens_at_bus[g.bus].append(g)
    lines_at_bus: dict[str, list] = {b.id: [] for b in inst.buses}
    for ln in inst.lines:
        lines_at_bus[ln.from_bus].append((ln, ln.to_bus))
        lines_at_bus[ln.to_bus].append((ln, ln.from_bus))
    for b in inst.buses:
        cols: dict[int, float] = {}
        for g in gens_at_bus[b.id]:
            jp = index.col(P, g.id)
            cols[jp] = cols.get(jp, 0.0) + 1.0
        ji = index.col(THETA, b.id)
        for ln, other in lines_at_bus[b.id]:
            w = 1.0 / ln.reactance
            jo = index.col(THETA, other)
            cols[ji] = cols.get(ji, 0.0) - w
            cols[jo] = cols.get(jo, 0.0) + w
        eq.add(list(cols), list(cols.values()), b.demand_e,
               f"power_balance[{b.id}]")

    # gas balance per node: sum(g) - sum(dgu) - sum(phi out) = demand
    sources_at: dict[str, list] = {nd.id: [] for nd in inst.gas_nodes}
    for s in inst.gas_sources:
        sources_at[s.node].append(s)
    gas_gens_at: dict[str, list] = {nd.id: [] for nd in inst.gas_nodes}
    for g in inst.generators:
        if g.is_gas:
            gas_gens_at[g.gas_node].append(g)
    out_flows: dict[str, list] = {nd.id: [] for nd in inst.gas_nodes}
    for p in inst.pipelines:
        out_flows[p.from_node].append((p.from_node, p.to_node))
        out_flows[p.to_node].append((p.to_node, p.from_node))
    for nd in inst.gas_nodes:
        cols, coefs = [], []
        for s in sources_at[nd.id]:
            cols.append(index.col(GS, s.id))
            coefs.append(1.0)
        for g in gas_gens_at[nd.id]:
            cols.append(index.col(DGU, g.id))
            coefs.append(-1.0)
        for key in out_flows[nd.id]:
            cols.append(index.col(PHI, key))
            coefs.append(-1.0)
        eq.add(cols, coefs, nd.demand_g, f"gas_balance[{nd.id}]")

    # tie reciprocity
    for p in edges.tie_pipes:
        eq.add((index.col(PHI, (p.from_node, p.to_node)),
                index.col(PHI, (p.to_node, p.from_node))),
               (1.0, 1.0), 0.0, f"tie_reciprocity[{p.from_node}->{p.to_node}]")

    # internal pipe blocks; stored orientation carries the pair-level rows
    psi_bounds = {nd.id: (nd.psi_min, nd.psi_max) for nd in inst.gas_nodes}
    for k, dp in enumerate(edges.internal_pipes_directed):
        block = emit_mld(dp, curves[dp.key], cfg, index.col, psi_bounds,
                         pair_rows=(k % 2 == 0))
        eq.extend(block.eq_rows)
        ineq.extend(block.ineq_rows)

    # gas conversion: eta2 p^2 + eta1 p + eta0 - dgu <= 0
    quad_rows = []
    for g in inst.generators:
        if g.is_gas:
            jp = index.col(P, g.id)
            jd = index.col(DGU, g.id)
            quad_rows.append(QuadRow((jp,), (g.eta2,), (jp, jd),
                                     (g.eta1, -1.0), g.eta0,
                                     f"gas_conversion[{g.id}]"))

    a_eq, b_eq, eq_labels = eq.to_csr(n)
    g_in, h_in, in_labels = ineq.to_csr(n)
    model = StandardModel(n, obj_quad, obj_lin, obj_const, a_eq, b_eq,
                          g_in, h_in, quad_rows, lb, ub, integrality,
                          eq_labels, in_labels)
    return model, index


def relax(model: StandardModel) -> StandardModel:
    """Convex relaxation: clear the integrality mask, keep everything else.

    Binary columns are already boxed to [0, 1], so the relaxed feasible set is
    the interval hull of the mixed-integer one. Idempotent.
    """
    out = model.copy()
    out.integrality = np.zeros(model.num_vars, dtype=bool)
    return out


def fix_columns(model: StandardModel, fixed: dict[int, float]) -> tuple[StandardModel, np.ndarray]:
    """Substitute fixed values for a set of columns.

    Returns the reduced model over the remaining columns and the array of
    kept original column indices (for mapping solutions back).
    """
    n = model.num_vars
    mask = np.zeros(n, dtype=bool)
    vals = np.zeros(n)
    for j, v in fixed.items():
        mask[j] = True
        vals[j] = v
    keep = np.flatnonzero(~mask)

    b_eq = model.b_eq - model.a_eq[:, mask] @ vals[mask]
    h_in = model.h_in - model.g_in[:, mask] @ vals[mask]
    a_eq = model.a_eq[:, keep].tocsr()
    g_in = model.g_in[:, keep].tocsr()

    remap = -np.ones(n, dtype=int)
    remap[keep] = np.arange(keep.size)
    quad_rows = []
    for row in model.quad_ineq:
        qi, qc, li, lc = [], [], [], []
        const = row.const
        for j, c in zip(row.quad_idx, row.quad_coef):
            if mask[j]:
                const += c * vals[j] * vals[j]
            else:
                qi.append(remap[j])
                qc.append(c)
        for j, c in zip(row.lin_idx, row.lin_coef):
            if mask[j]:
                const += c * vals[j]
            else:
                li.append(remap[j])
                lc.append(c)
        quad_rows.append(QuadRow(tuple(qi), tuple(qc), tuple(li), tuple(lc),
                                 const, row.label))

    obj_const = model.obj_const + float(
        model.obj_quad[mask] @ (vals[mask] ** 2) + model.obj_lin[mask] @ vals[mask])
    out = StandardModel(
        keep.size, model.obj_quad[keep].copy(), model.obj_lin[keep].copy(),
        obj_const, a_eq, b_eq, g_in, h_in, quad_rows,
        model.lb[keep].copy(), model.ub[keep].copy(),
        model.integrality[keep].copy(), list(model.eq_labels),
        list(model.in_labels))
    return out, keep


@dataclass
class Reduction:
    """Outcome of ``substitute_columns``: reduced model plus the affine map
    ``x_full = s_matrix @ x_reduced + offset``. ``feasible`` is False when the
    substitution alone already contradicts a row or a box."""

    model: StandardModel | None
    s_matrix: sp.csr_matrix | None
    offset: np.ndarray | None
    keep: np.ndarray | None
    feasible: bool

    def expand(self, x_reduced: np.ndarray) -> np.ndarray:
        return self.s_matrix @ x_reduced + self.offset


def substitute_columns(model: StandardModel, fixed: dict[int, float],
                       aliases: dict[int, tuple[int, float]]) -> Reduction:
    """Eliminate columns by fixing values or aliasing onto other columns.

    ``aliases[j] = (k, c)`` substitutes ``x_j = c * x_k`` (the target column
    must survive the reduction and ``x_j``'s box tightens ``x_k``'s). Rows
    whose support vanishes are dropped when consistent; an inconsistent
    vanished row or an emptied box reports ``feasible=False``. Used by the
    enumeration oracle, where fixing the binaries determines every product
    auxiliary.
    """
    n = model.num_vars
    infeasible = Reduction(None, None, None, None, False)
    removed = set(fixed) | set(aliases)
    keep = np.array([j for j in range(n) if j not in removed], dtype=int)
    pos = {int(j): k for k, j in enumerate(keep)}
    nk = keep.size

    offset = np.zeros(n)
    rows, cols, vals = [], [], []
    for k, j in enumerate(keep):
        rows.append(int(j))
        cols.append(k)
        vals.append(1.0)
    for j, v in fixed.items():
        offset[j] = float(v)
    for j, (target, coef) in aliases.items():
        if target not in pos:
            raise ModelError(f"alias target {target} of column {j} is not "
                             "a kept column")
        if model.integrality[j]:
            raise ModelError(f"cannot alias integral column {j}")
        rows.append(int(j))
        cols.append(pos[target])
        vals.append(float(coef))
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n, nk))

    def _reduce_rows(mat, rhs, labels, is_eq):
        new = (mat @ S).tocsr()
        new.eliminate_zeros()
        new_rhs = rhs - mat @ offset
        mags = np.zeros(new.shape[0])
        if new.nnz:
            mags = np.abs(new).max(axis=1).toarray().ravel()
        live = mags > 1e-12
        dead = ~live
        if is_eq:
            if np.any(np.abs(new_rhs[dead]) > 1e-9):
                return None
        else:
            if np.any(new_rhs[dead] < -1e-9):
                return None
        kept = np.flatnonzero(live)
        return (new[kept], new_rhs[kept], [labels[int(i)] for i in kept])

    eq = _reduce_rows(model.a_eq, model.b_eq, model.eq_labels, True) \
        if model.num_eq else (sp.csr_matrix((0, nk)), np.zeros(0), [])
    if eq is None:
        return infeasible
    ineq = _reduce_rows(model.g_in, model.h_in, model.in_labels, False) \
        if model.num_in else (sp.csr_matrix((0, nk)), np.zeros(0), [])
    if ineq is None:
        return infeasible

    lb = model.lb[keep].copy()
    ub = model.ub[keep].copy()
    for j, v in fixed.items():
        if v < model.lb[j] - 1e-9 or v > model.ub[j] + 1e-9:
            return infeasible
    for j, (target, coef) in aliases.items():
        k = pos[target]
        blo, bhi = model.lb[j], model.ub[j]
        if coef > 0:
            lb[k] = max(lb[k], blo / coef)
            ub[k] = min(ub[k], bhi / coef)
        else:
            lb[k] = max(lb[k], bhi / coef)
            ub[k] = min(ub[k], blo / coef)
    if np.any(lb > ub + 1e-12):
        return infeasible

    obj_quad = np.zeros(nk)
    obj_lin = np.zeros(nk)
    obj_const = model.obj_const
    for j in range(n):
        qj, cj = model.obj_quad[j], model.obj_lin[j]
        if j in fixed:
            obj_const += qj * fixed[j] ** 2 + cj * fixed[j]
        elif j in aliases:
            target, coef = aliases[j]
            obj_quad[pos[target]] += qj * coef * coef
            obj_lin[pos[target]] += cj * coef
        else:
            obj_quad[pos[j]] += qj
            obj_lin[pos[j]] += cj

    quad_rows = []
    for row in model.quad_ineq:
        acc_q: dict[int, float] = {}
        acc_l: dict[int, float] = {}
        const = row.const
        for j, c in zip(row.quad_idx, row.quad_coef):
            if j in fixed:
                const += c * fixed[j] ** 2
            elif j in aliases:
                target, coef = aliases[j]
                acc_q[pos[target]] = acc_q.get(pos[target], 0.0) + c * coef * coef
            else:
                acc_q[pos[j]] = acc_q.get(pos[j], 0.0) + c
        for j, c in zip(row.lin_idx, row.lin_coef):
            if j in fixed:
                const += c * fixed[j]
            elif j in aliases:
                target, coef = aliases[j]
                acc_l[pos[target]] = acc_l.get(pos[target], 0.0) + c * coef
            else:
                acc_l[pos[j]] = acc_l.get(pos[j], 0.0) + c
        if not acc_q and not acc_l:
            if const > 1e-9:
                return infeasible
            continue
        quad_rows.append(QuadRow(tuple(acc_q), tuple(acc_q.values()),
                                 tuple(acc_l), tuple(acc_l.values()),
                                 const, row.label))

    reduced = StandardModel(
        nk, obj_quad, obj_lin, obj_const, eq[0], eq[1], ineq[0], ineq[1],
        quad_rows, lb, ub, model.integrality[keep].copy(), eq[2], ineq[2])
    return Reduction(reduced, S, offset, keep, True)


@dataclass
class FeasReport:
    """Outcome of a direct point-against-model feasibility check."""

    ok: bool
    max_eq: float
    max_in: float
    max_quad: float
    max_bound: float
    max_integrality: float
    worst: list[tuple[str, float]] = field(default_factory=list)

    @property
    def max_violation(self) -> float:
        return max(self.max_eq, self.max_in, self.max_quad, self.max_bound,
                   self.max_integrality)


def check_point(model: StandardModel, x: np.ndarray, tol: float,
                check_integrality: bool = False) -> FeasReport:
    """Evaluate every row, bound and (optionally) integrality at ``x``.

    Violations are absolute; a point passes when every violation is <= tol.
    """
    worst: list[tuple[str, float]] = []

    def note(label, v):
        if v > tol:
            worst.append((label, float(v)))

    eq_res = np.abs(model.a_eq @ x - model.b_eq) if model.num_eq else np.zeros(0)
    for k in np.flatnonzero(eq_res > tol):
        note(model.eq_labels[k], eq_res[k])
    in_res = (model.g_in @ x - model.h_in) if model.num_in else np.zeros(0)
    for k in np.flatnonzero(in_res > tol):
        note(model.in_labels[k], in_res[k])
    quad_res = np.array([row.value(x) for row in model.quad_ineq]) \
        if model.quad_ineq else np.zeros(0)
    for k in np.flatnonzero(quad_res > tol):
        note(model.quad_ineq[k].label, quad_res[k])
    bound_res = np.maximum(model.lb - x, x - model.ub)
    bound_res[~np.isfinite(bound_res)] = 0.0
    for k in np.flatnonzero(bound_res > tol):
        note(f"bounds[col {k}]", bound_res[k])
    int_res = np.zeros(0)
    if check_integrality and model.integrality.any():
        xi = x[model.integrality]
        int_res = np.abs(xi - np.round(xi))
        for k in np.flatnonzero(int_res > tol):
            note("integrality", int_res[k])

    def mx(a):
        return float(a.max()) if a.size else 0.0

    worst.sort(key=lambda t: -t[1])
    return FeasReport(not worst, mx(eq_res), mx(in_res), mx(quad_res),
                      mx(bound_res), mx(int_res), worst[:20])


# ---------------------------------------------------------------------------
# area decomposition
# ---------------------------------------------------------------------------

@dataclass
class AreaView:
    """Column/row ownership of one area plus the coupling rows it hosts.

    ``owned_cols`` partition the model columns across views; every coupling
    row is an equality owned by exactly one area that also references columns
    of exactly one other area.
    """

    area: int
    owned_cols: np.ndarray
    owned_eq_rows: np.ndarray
    owned_in_rows: np.ndarray
    owned_quad_rows: np.ndarray
    coupling_eq_rows: np.ndarray
    foreign_cols: np.ndarray


def area_views(model: StandardModel, inst: NetworkInstance,
               index: VarIndex) -> list[AreaView]:
    """Partition columns and rows by owning area.

    Internal-pipe variables belong to the pipe's area; each tie-pipe flow
    orientation belongs to its observing (from) node's area. Coupling rows are
    the tie-bus power balances and tie reciprocity rows.
    """
    bus_area = {b.id: b.area for b in inst.buses}
    node_area = {n.id: n.area for n in inst.gas_nodes}
    gen_area = {g.id: bus_area[g.bus] for g in inst.generators}
    src_area = {s.id: node_area[s.node] for s in inst.gas_sources}

    col_area = np.zeros(model.num_vars, dtype=int)
    for key, j in index.items():
        kind, owner = key[0], key[1]
        if kind in (P, DGU):
            col_area[j] = gen_area[owner]
        elif kind == THETA:
            col_area[j] = bus_area[owner]
        elif kind == GS:
            col_area[j] = src_area[owner]
        elif kind == PSI:
            col_area[j] = node_area[owner]
        else:
            col_area[j] = node_area[owner[0]]

    # row owner: area of the first column, except balance rows which belong
    # to their entity's area (power balance rows can reference foreign theta)
    a_csr = model.a_eq
    eq_owner = np.zeros(model.num_eq, dtype=int)
    eq_coupling = np.zeros(model.num_eq, dtype=bool)
    for k in range(model.num_eq):
        cols = a_csr.indices[a_csr.indptr[k]:a_csr.indptr[k + 1]]
        areas = set(col_area[cols])
        label = model.eq_labels[k]
        if label.startswith("power_balance["):
            eq_owner[k] = bus_area[label[len("power_balance["):-1]]
        elif label.startswith("gas_balance["):
            eq_owner[k] = node_area[label[len("gas_balance["):-1]]
        else:
            eq_owner[k] = col_area[cols[0]]
        if len(areas) > 1:
            eq_coupling[k] = True

    g_csr = model.g_in
    in_owner = np.zeros(model.num_in, dtype=int)
    for k in range(model.num_in):
        cols = g_csr.indices[g_csr.indptr[k]:g_csr.indptr[k + 1]]
        in_owner[k] = col_area[cols[0]]
        if len(set(col_area[cols])) != 1:
            raise ModelError(
                f"inequality row {model.in_labels[k]} crosses areas")

    quad_owner = np.array([gen_area[row.label[len("gas_conversion["):-1]]
                           for row in model.quad_ineq], dtype=int)

    views = []
    for a in range(1, inst.num_areas + 1):
        owned_eq = np.flatnonzero(eq_owner == a)
        coupling = np.flatnonzero((eq_owner == a) & eq_coupling)
        foreign = set()
        for k in coupling:
            cols = a_csr.indices[a_csr.indptr[k]:a_csr.indptr[k + 1]]
            foreign.update(int(j) for j in cols if col_area[j] != a)
        views.append(AreaView(
            area=a,
            owned_cols=np.flatnonzero(col_area == a),
            owned_eq_rows=owned_eq,
            owned_in_rows=np.flatnonzero(in_owner == a),
            owned_quad_rows=np.flatnonzero(quad_owner == a)
            if quad_owner.size else np.zeros(0, dtype=int),
            coupling_eq_rows=coupling,
            foreign_cols=np.array(sorted(foreign), dtype=int),
        ))
    return views


def dump_model(model: StandardModel, index: VarIndex | None = None) -> str:
    """Plain-text standard-form export for external cross-checks.

    Format: a ``var`` line per column (name, bounds, integrality, objective
    coefficients), the objective constant, then one line per equality,
    inequality and quadratic row listing ``coef*name`` terms.
    """
    name = index.name if index is not None else (lambda j: f"x{j}")
    out = [f"vars {model.num_vars}"]
    for j in range(model.num_vars):
        tag = " int" if model.integrality[j] else ""
        out.append(f"var {name(j)} in [{model.lb[j]:.17g}, {model.ub[j]:.17g}]"
                   f"{tag} quad {model.obj_quad[j]:.17g} lin {model.obj_lin[j]:.17g}")
    out.append(f"objective_const {model.obj_const:.17g}")

    def terms(csr_row):
        return " + ".join(f"{c:.17g}*{name(j)}"
                          for j, c in zip(csr_row.indices, csr_row.data))

    for k in range(model.num_eq):
        out.append(f"eq {model.eq_labels[k]}: {terms(model.a_eq.getrow(k))} "
                   f"= {model.b_eq[k]:.17g}")
    for k in range(model.num_in):
        out.append(f"le {model.in_labels[k]}: {terms(model.g_in.getrow(k))} "
                   f"<= {model.h_in[k]:.17g}")
    for row in model.quad_ineq:
        quad = " + ".join(f"{c:.17g}*{name(j)}^2"
                          for j, c in zip(row.quad_idx, row.quad_coef))
        lin = " + ".join(f"{c:.17g}*{name(j)}"
                         for j, c in zip(row.lin_idx, row.lin_coef))
        out.append(f"qle {row.label}: {quad} + {lin} + {row.const:.17g} <= 0")
    return "\n".join(out) + "\n"
