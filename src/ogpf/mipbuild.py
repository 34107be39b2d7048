"""Assembly of the mixed-integer dispatch model, its stage-1 relaxation
and its configuration models.

A model is kept in a plain standard form:

    minimize    sum_i q_i x_i^2 + c^T x + c0
    subject to  A_eq x = b_eq
                G_in x <= h_in
                quadratic rows:  sum_k p_k x_k^2 + l^T x + d <= 0  (convex)
                lb <= x <= ub, integrality mask over columns

The model holds numbers only. The ``VarIndex`` built with it names every
column and row by one key form, e.g. ``("psi", "n1")``,
``("power_balance", "b2")`` or ``("reg_hi_up", ("n1", "n2"), 3)``, knows the
entity owning each key, and keeps the fitted chord curves and the
strict-inequality tolerance. Rows are looked up by key kind and areas
assigned from the owners; no label string is parsed.

One builder writes the part every model shares (dispatch, angles, sources,
pressures, tie flows, the balances and the gas conversion); the internal
pipes come in one of two encodings of ``pwa``. ``build_model`` is the
paper's big-M model (``emit_mld``): per orientation of each pipe the flow,
one pressure product, ``r`` flow products and ``1 + 3r`` binaries, under
rows that include flow reciprocity. ``hull_model``, the stage-1 model, gives
each pipe a tie pipe's two flows and reciprocity row, and rows over those
flows and the end pressures (``emit_hull``). ``config_model``, the paper's
model at one region configuration, is read off either: the columns and rows
both have, flows and reciprocity included, restricted once per model, plus
``emit_config``'s rows and flow boxes.

Rows are built as arrays: the linear rows as coordinate triplets assembled
in one sparse-matrix call per block, the quadratic rows as one coordinate
block (``QuadBlock``). ``substitute_columns`` is the one column-elimination
routine and presolve, working on the CSR arrays: it fixes or aliases
columns, drops the rows whose support vanished, detects contradictions, and
returns the index maps that carry a reduced solution and its duals back. The
interior point presolves with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ModelError
from .netmodel import NetworkInstance, classify_edges
from .pwa import (LinearRows, PwaConfig, PwaCurve, block_keys, emit_config,
                  emit_hull, emit_mld, fit_pwa, key_label)

# variable kinds
P = "p"          # generator output
DGU = "dgu"      # generator gas consumption
THETA = "theta"  # bus voltage angle
GS = "gs"        # source gas production
PSI = "psi"      # squared nodal pressure
PHI = "phi"      # directed pipe flow; pwa.block_keys lists the other kinds
                 # of an internal-pipe orientation

# row blocks of the model, and the column block
EQ, IN, QUAD, COL = "eq", "in", "quad", "col"

# entity type owning a column or row of each kind
_ENTITY = {P: "gen", DGU: "gen", "gas_conversion": "gen", THETA: "bus",
           "power_balance": "bus", GS: "source", PSI: "node",
           "gas_balance": "node"}


def _number(codes: dict, items) -> np.ndarray:
    return np.array([codes.setdefault(x, len(codes)) for x in items],
                    dtype=np.intp)


def _entity(key: tuple) -> tuple:
    """Entity owning a key; a directed pipe (i, j) counts as gas node i."""
    owner = key[1]
    if type(owner) is tuple:
        return ("node", owner[0])
    return (_ENTITY[key[0]], owner)


class VarIndex:
    """Names and owners of the columns and rows of one built model.

    Column and row keys share one form, ``(kind, owner)`` or ``(kind, owner,
    region)``; owners are entity ids, or ``(from, to)`` tuples for directed
    pipes, and ``key_label`` writes a key as ``kind[owner]``. Columns are
    numbered in insertion order; rows in the order of their block (``EQ``,
    ``IN`` or ``QUAD``). Both orders are deterministic for a given instance
    and configuration. Every key's kind and owning entity (a generator, bus,
    gas source or gas node) are also kept as array codes, so looking keys up
    by kind or owner is an array operation. ``curves`` holds the chord
    curves the build fitted, one per internal pipe, and ``epsilon`` the
    strict-inequality tolerance it was built at.
    """

    def __init__(self):
        self._fwd: dict[tuple, int] = {}
        self._keys: dict[str, list[tuple]] = {COL: [], EQ: [], IN: [], QUAD: []}
        # per block, (kind codes, entity codes) chunks, joined on lookup
        none = np.zeros(0, np.intp)
        self._chunks = {block: [(none, none)] for block in self._keys}
        self._kinds: dict[str, int] = {}
        self._entities: dict[tuple, int] = {}
        self.curves: dict[tuple, PwaCurve] = {}
        self.epsilon: float | None = None
        # (model, its shared part, that part's positions), kept by
        # ``_shared``
        self._shared: tuple | None = None

    def extend(self, block: str, keys: list[tuple], kinds=None,
               entities=None) -> None:
        """Append the columns (``COL``) or rows of ``block`` named ``keys``.
        ``kinds`` and ``entities`` give each key's kind and owning entity as
        ``(table, positions)``, key ``k``'s being ``table[positions[k]]``;
        by default both are read off the keys."""
        if block == COL:
            for j, key in enumerate(keys, len(self._fwd)):
                if self._fwd.setdefault(key, j) != j:
                    raise ModelError(f"duplicate variable {key}")
        self._keys[block].extend(keys)
        kinds = kinds or ([key[0] for key in keys], slice(None))
        entities = entities or (list(map(_entity, keys)), slice(None))
        self._chunks[block].append((_number(self._kinds, kinds[0])[kinds[1]],
                                    _number(self._entities, entities[0])
                                    [entities[1]]))

    def keys(self, block: str) -> list[tuple]:
        """Keys of every column (``COL``) or every row of ``block``."""
        return list(self._keys[block])

    def add(self, kind: str, owner, m: int | None = None) -> int:
        self.extend(COL, [(kind, owner) if m is None else (kind, owner, m)])
        return len(self._fwd) - 1

    def col(self, kind: str, owner, m: int | None = None) -> int:
        key = (kind, owner) if m is None else (kind, owner, m)
        return self._fwd[key]

    def name(self, j: int) -> str:
        return key_label(self._keys[COL][j])

    def names(self, block: str) -> list[str]:
        """Labels of every column (``COL``) or every row of ``block``."""
        return [key_label(key) for key in self._keys[block]]

    def row_name(self, block: str, k: int) -> str:
        return key_label(self._keys[block][k])

    def _codes(self, block: str) -> tuple[np.ndarray, np.ndarray]:
        chunks = self._chunks[block]
        if len(chunks) > 1:
            chunks[:] = [tuple(map(np.concatenate, zip(*chunks)))]
        return chunks[0]

    def rows(self, block: str, *kinds: str) -> np.ndarray:
        """Positions of the columns (``COL``) or rows of ``block`` whose key
        has one of ``kinds``."""
        codes = [self._kinds[kind] for kind in kinds if kind in self._kinds]
        wanted = np.zeros(len(self._kinds), dtype=bool)
        wanted[codes] = True
        return np.flatnonzero(wanted[self._codes(block)[0]])

    def columns(self, kind: str) -> np.ndarray:
        return self.rows(COL, kind)

    def take(self, positions: dict[str, np.ndarray]) -> "VarIndex":
        """The index of the columns (``COL``) and rows at ``positions[block]``
        (ascending) of each block, in their order, with the same curves,
        ``epsilon`` and entity numbers; a block left out is empty."""
        out = VarIndex()
        out.curves, out.epsilon = self.curves, self.epsilon
        out._kinds, out._entities = dict(self._kinds), dict(self._entities)
        for block, pos in positions.items():
            keys = self._keys[block]
            out._keys[block] = [keys[k] for k in pos]
            out._chunks[block] = [tuple(codes[pos]
                                        for codes in self._codes(block))]
        out._fwd = {key: j for j, key in enumerate(out._keys[COL])}
        return out

    def owners(self, block: str) -> np.ndarray:
        """Number of the entity owning every column (``COL``) or row of
        ``block``; ``entities`` lists the entities in number order."""
        return self._codes(block)[1]

    @property
    def entities(self) -> list[tuple]:
        """``("gen" | "bus" | "source" | "node", id)``, in number order."""
        return list(self._entities)

    def __len__(self) -> int:
        return len(self._fwd)


@dataclass(frozen=True, eq=False)
class QuadBlock:
    """Convex quadratic rows ``sum_j P[k, j] x_j^2 + L[k] . x + d[k] <= 0``
    over ``n`` columns, as coordinate arrays.

    ``P`` is ``(q_row, q_col, q_coef)`` and ``L`` is ``(l_row, l_col,
    l_coef)``; duplicate coordinates add up. The gradient ``J`` has a fixed
    pattern ``(j_row, j_col)``, sorted by row then column, covering the union
    of each row's ``P`` and ``L`` columns; ``q_slot`` and ``l_slot`` map
    every ``P`` and ``L`` term to its slot. ``len()`` is the row count.
    """

    n: int
    q_row: np.ndarray
    q_col: np.ndarray
    q_coef: np.ndarray
    l_row: np.ndarray
    l_col: np.ndarray
    l_coef: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("q_row", "q_col", "l_row", "l_col"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.intp))
        for name in ("q_coef", "l_coef", "d"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))

    def __len__(self) -> int:
        return self.d.size

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, ...]:
        n = max(self.n, 1)
        keys = np.concatenate([self.q_row * n + self.q_col,
                               self.l_row * n + self.l_col])
        uniq, slot = np.unique(keys, return_inverse=True)
        return (uniq // n, uniq % n, slot[:self.q_row.size],
                slot[self.q_row.size:])

    j_row = property(lambda self: self._pattern[0])
    j_col = property(lambda self: self._pattern[1])
    q_slot = property(lambda self: self._pattern[2])
    l_slot = property(lambda self: self._pattern[3])

    def take(self, rows: np.ndarray) -> "QuadBlock":
        """The rows ``rows`` (ascending) in their original order."""
        new = np.full(len(self), -1, dtype=np.intp)
        new[rows] = np.arange(len(rows))
        qk = new[self.q_row] >= 0
        lk = new[self.l_row] >= 0
        return QuadBlock(self.n, new[self.q_row[qk]], self.q_col[qk],
                         self.q_coef[qk], new[self.l_row[lk]],
                         self.l_col[lk], self.l_coef[lk], self.d[rows])

    def substitute(self, col_map: np.ndarray, col_coef: np.ndarray,
                   value: np.ndarray, n: int) -> "QuadBlock":
        """The same rows over ``n`` columns: column ``j`` becomes
        ``col_map[j]`` with its coefficient scaled by ``col_coef[j]``, or,
        where ``col_map[j] < 0``, the constant ``value[j]``."""
        qk = col_map[self.q_col] >= 0
        lk = col_map[self.l_col] >= 0
        qf, lf = ~qk, ~lk
        d = (self.d
             + np.bincount(self.q_row[qf], self.q_coef[qf]
                           * value[self.q_col[qf]] ** 2, minlength=len(self))
             + np.bincount(self.l_row[lf], self.l_coef[lf]
                           * value[self.l_col[lf]], minlength=len(self)))
        qs = col_coef[self.q_col[qk]]
        return QuadBlock(n, self.q_row[qk], col_map[self.q_col[qk]],
                         self.q_coef[qk] * qs * qs, self.l_row[lk],
                         col_map[self.l_col[lk]],
                         self.l_coef[lk] * col_coef[self.l_col[lk]], d)

    def scaled(self, col_scale: np.ndarray) -> tuple["QuadBlock", np.ndarray]:
        """Block in the variables ``x / col_scale``, each row divided by its
        largest coefficient magnitude (at least 1); returns the row scales."""
        qc = self.q_coef * col_scale[self.q_col] ** 2
        lc = self.l_coef * col_scale[self.l_col]
        mags = np.maximum(1.0, np.abs(self.d))
        np.maximum.at(mags, self.q_row, np.abs(qc))
        np.maximum.at(mags, self.l_row, np.abs(lc))
        out = QuadBlock(self.n, self.q_row, self.q_col, qc / mags[self.q_row],
                        self.l_row, self.l_col, lc / mags[self.l_row],
                        self.d / mags)
        return out, 1.0 / mags

    def value(self, x: np.ndarray) -> np.ndarray:
        return (np.bincount(self.q_row, self.q_coef * x[self.q_col] ** 2,
                            minlength=len(self))
                + np.bincount(self.l_row, self.l_coef * x[self.l_col],
                              minlength=len(self))
                + self.d)

    def jac(self, x: np.ndarray) -> np.ndarray:
        """Gradient values on the ``(j_row, j_col)`` pattern."""
        nj = self.j_row.size
        return (np.bincount(self.q_slot, 2.0 * self.q_coef * x[self.q_col],
                            minlength=nj)
                + np.bincount(self.l_slot, self.l_coef, minlength=nj))

    def jac_t(self, jv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``J^T y``."""
        return np.bincount(self.j_col, jv * y[self.j_row], minlength=self.n)

    def jac_mul(self, jv: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``J v``."""
        return np.bincount(self.j_row, jv * v[self.j_col], minlength=len(self))

    def hess_diag(self, mu: np.ndarray) -> np.ndarray:
        """Diagonal of ``sum_k mu_k * Hessian(qc_k)``."""
        return np.bincount(self.q_col, 2.0 * mu[self.q_row] * self.q_coef,
                           minlength=self.n)

    def curvature(self, dx: np.ndarray) -> np.ndarray:
        """Second-order change ``sum_j P[k, j] dx_j^2`` of each row."""
        return np.bincount(self.q_row, self.q_coef * dx[self.q_col] ** 2,
                           minlength=len(self))


@dataclass
class StandardModel:
    """Standard-form optimization model with sparse row storage. It holds
    numbers only; the ``VarIndex`` built with it names its columns and
    rows."""

    num_vars: int
    obj_quad: np.ndarray
    obj_lin: np.ndarray
    obj_const: float
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    g_in: sp.csr_matrix
    h_in: np.ndarray
    quad_ineq: QuadBlock
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray

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
            self.g_in.copy(), self.h_in.copy(), self.quad_ineq,
            self.lb.copy(), self.ub.copy(), self.integrality.copy())


def _to_csr(row: np.ndarray, col: np.ndarray, coef: np.ndarray, m: int,
            n: int) -> sp.csr_matrix:
    """The ``m x n`` matrix of the coordinate entries; a column outside
    ``0..n-1`` raises ModelError."""
    if col.size and not 0 <= col.min() <= col.max() < n:
        raise ModelError(f"a row references a column outside 0..{n - 1}")
    mat = sp.csr_matrix((coef, (row, col)), shape=(m, n))
    mat.sum_duplicates()
    return mat


def fit_all_curves(inst: NetworkInstance, cfg: PwaConfig) -> dict[tuple, PwaCurve]:
    """The chord curve of every internal pipe, keyed by its ``(from_node,
    to_node)`` in file order."""
    return {(p.from_node, p.to_node): fit_pwa(p.weymouth_c, p.flow_cap, cfg,
                                              pipe=(p.from_node, p.to_node))
            for p in classify_edges(inst).internal_pipes}


def _name_pipe_rows(index: VarIndex, ineq: LinearRows,
                    eq: LinearRows) -> None:
    """Append the internal pipes' rows to ``index``; each belongs to its
    orientation's from node."""
    nodes = [("node", key[0]) for i, j in index.curves
             for key in ((i, j), (j, i))]
    for blk, rows in ((EQ, eq), (IN, ineq)):
        index.extend(blk, rows.keys, (rows.kinds, rows.kind),
                     (nodes, rows.owner))


def _build(inst: NetworkInstance, cfg: PwaConfig,
           curves: dict[tuple, PwaCurve], encode,
           block: tuple | None = None) -> tuple[StandardModel, VarIndex]:
    """Assemble a model of ``inst`` at ``cfg`` whose internal pipes
    ``encode`` writes.

    Every model shares its first columns and rows: per generator its output
    and gas use, per bus its angle, per gas source its production, per gas
    node its squared pressure, both flows of each tie pipe; the power and gas
    balances, one reciprocity row per tie pipe, and the quadratic gas
    conversion rows. ``block`` lists the internal pipes' columns as
    ``VarIndex.extend`` takes them; without it each internal pipe gets a tie
    pipe's two flows and reciprocity row. ``encode(index, lb, ub,
    integrality)`` boxes those columns and returns their inequality and
    equality rows, which follow the shared ones.
    """
    edges = classify_edges(inst)
    index = VarIndex()
    index.curves, index.epsilon = curves, cfg.epsilon
    flows = [((p.from_node, p.to_node), p.flow_cap, "tie_reciprocity")
             for p in edges.tie_pipes]
    if block is None:
        flows += [(pipe, curve.phi_cap, "reciprocity")
                  for pipe, curve in curves.items()]
    index.extend(COL, [key for g in inst.generators
                       for key in ((P, g.id), (DGU, g.id))]
                 + [(THETA, b.id) for b in inst.buses]
                 + [(GS, s.id) for s in inst.gas_sources]
                 + [(PSI, nd.id) for nd in inst.gas_nodes]
                 + [(PHI, key) for (i, j), _, _ in flows
                    for key in ((i, j), (j, i))])
    if block is not None:
        index.extend(COL, *block)
    n = len(index)
    # the shared columns' boxes, in column order; non-gas units burn no gas
    box = ([pair for g in inst.generators for pair in (
                (g.p_min, g.p_max), (0.0, np.inf if g.is_gas else 0.0))]
           + [(b.theta_min, b.theta_max) for b in inst.buses]
           + [(s.g_min, s.g_max) for s in inst.gas_sources]
           + [(nd.psi_min, nd.psi_max) for nd in inst.gas_nodes]
           + [(-cap, cap) for _, cap, _ in flows for _ in range(2)])
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    lb[:len(box)], ub[:len(box)] = np.array(box, dtype=float).reshape(-1, 2).T
    integrality = np.zeros(n, dtype=bool)
    obj_quad = np.zeros(n)
    obj_lin = np.zeros(n)
    obj_const = 0.0
    for g in inst.generators:
        if not g.is_gas:
            jp = index.col(P, g.id)
            obj_quad[jp], obj_lin[jp] = g.cost_c2, g.cost_c1
            obj_const += g.cost_c0
    for s in inst.gas_sources:
        obj_lin[index.col(GS, s.id)] = s.cost_c1
        obj_const += s.cost_c0

    eq: list[tuple] = []     # (key, columns, coefficients, rhs) per row

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
        eq.append((("power_balance", b.id), list(cols), list(cols.values()),
                   b.demand_e))

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
        eq.append((("gas_balance", nd.id), cols, coefs, nd.demand_g))

    # flow reciprocity
    for (i, j), _, kind in flows:
        eq.append(((kind, (i, j)), [index.col(PHI, (i, j)),
                                    index.col(PHI, (j, i))], [1.0, 1.0], 0.0))

    # the internal pipes' rows; each belongs to its orientation's from node
    pipe_in, pipe_eq = encode(index, lb, ub, integrality)
    head = len(eq)
    a_eq = _to_csr(
        np.concatenate([np.repeat(np.arange(head), [len(e[1]) for e in eq]),
                        head + pipe_eq.row]),
        np.concatenate([np.array([j for e in eq for j in e[1]], np.intp),
                        pipe_eq.col]),
        np.concatenate([[c for e in eq for c in e[2]], pipe_eq.coef]),
        head + pipe_eq.rhs.size, n)
    b_eq = np.concatenate([[e[3] for e in eq], pipe_eq.rhs])
    g_in = _to_csr(pipe_in.row, pipe_in.col, pipe_in.coef, pipe_in.rhs.size,
                   n)
    index.extend(EQ, [e[0] for e in eq])
    _name_pipe_rows(index, pipe_in, pipe_eq)

    # gas conversion: eta2 p^2 + eta1 p + eta0 - dgu <= 0
    gas = [g for g in inst.generators if g.is_gas]
    rows = np.arange(len(gas))
    jp = np.array([index.col(P, g.id) for g in gas], dtype=np.intp)
    jd = np.array([index.col(DGU, g.id) for g in gas], dtype=np.intp)
    quad = QuadBlock(
        n, rows, jp, [g.eta2 for g in gas], np.repeat(rows, 2),
        np.column_stack([jp, jd]).ravel(),
        np.column_stack([[g.eta1 for g in gas], -np.ones(len(gas))]).ravel(),
        [g.eta0 for g in gas])
    index.extend(QUAD, [("gas_conversion", g.id) for g in gas])
    model = StandardModel(n, obj_quad, obj_lin, obj_const, a_eq, b_eq,
                          g_in, pipe_in.rhs, quad, lb, ub, integrality)
    return model, index


def build_model(inst: NetworkInstance, cfg: PwaConfig) -> tuple[StandardModel, VarIndex]:
    """Assemble the paper's mixed-integer model: each orientation of an
    internal pipe is a contiguous column block (``pwa.block_keys``) under the
    big-M rows of ``pwa.emit_mld``."""
    curves = fit_all_curves(inst, cfg)
    r = cfg.r
    width = 3 + 4 * r
    # each orientation's block belongs to its from node
    keys = [key for pipe in curves for key in block_keys(pipe, r)]
    nodes = [("node", key[1][0]) for key in keys[::width]]
    psi_bounds = {nd.id: (nd.psi_min, nd.psi_max) for nd in inst.gas_nodes}

    def encode(index, lb, ub, integrality):
        # both orientations of a pipe share its cap
        cap = np.repeat([c.phi_cap for c in curves.values()], 2)[:, None]
        first = len(index) - len(keys)
        block_lb = lb[first:].reshape(-1, width)
        block_ub = ub[first:].reshape(-1, width)
        # flow and flow products within the cap, the pressure product within
        # the from node's box widened to 0, binaries within [0, 1]
        block_lb[:, :1] = block_lb[:, 2:2 + r] = -cap
        block_ub[:, :1] = block_ub[:, 2:2 + r] = cap
        block_lb[:, 1] = [min(0.0, psi_bounds[nd][0]) for _, nd in nodes]
        block_ub[:, 1] = [max(0.0, psi_bounds[nd][1]) for _, nd in nodes]
        block_lb[:, 2 + r:] = 0.0
        block_ub[:, 2 + r:] = 1.0
        integrality[first:].reshape(-1, width)[:, 2 + r:] = True
        return emit_mld(curves, cfg, index.col, psi_bounds)

    return _build(inst, cfg, curves, encode,
                  (keys, ([key[0] for key in keys[:width]],
                          np.tile(np.arange(width), len(nodes))),
                   (nodes, np.repeat(np.arange(len(nodes)), width))))


def hull_model(inst: NetworkInstance, cfg: PwaConfig
               ) -> tuple[StandardModel, VarIndex]:
    """The stage-1 model: each internal pipe on the convex hull of its
    signed chord graph (``pwa.emit_hull``), over its flows and end
    pressures.

    The hull rows hold at every point of the mixed-integer model, so this
    is a relaxation of it, of the same size at every ``r``, with no integral
    column. Its columns are those of ``config_model``.
    """
    curves = fit_all_curves(inst, cfg)
    return _build(inst, cfg, curves,
                  lambda index, *_: emit_hull(curves, index.col))


# the columns and rows every model of an instance shares, by block and kind
_SHARED_KINDS = ((COL, (P, DGU, THETA, GS, PSI, PHI)),
                 (EQ, ("power_balance", "gas_balance", "tie_reciprocity",
                       "reciprocity")),
                 (QUAD, ("gas_conversion",)))


def _shared(model: StandardModel, index: VarIndex
            ) -> tuple[StandardModel, dict[str, np.ndarray]]:
    """The columns and rows of ``model`` that every model of its instance
    shares, looked up by kind and kept in their order, and their positions
    in ``model``. They are read off once per model and kept on ``index``."""
    if index._shared is not None and index._shared[0] is model:
        return index._shared[1:]
    pos = {block: index.rows(block, *kinds) for block, kinds in _SHARED_KINDS}
    cols, eq_rows = pos[COL], pos[EQ]
    n = cols.size
    col_map = np.full(model.num_vars, -1, dtype=np.intp)
    col_map[cols] = np.arange(n)
    row_map = np.full(model.num_eq, -1, dtype=np.intp)
    row_map[eq_rows] = np.arange(eq_rows.size)
    row = row_map[entry_rows(model.a_eq)]
    kept = row >= 0
    quad = model.quad_ineq.take(pos[QUAD])
    col, q_col, l_col = (col_map[j] for j in (model.a_eq.indices[kept],
                                              quad.q_col, quad.l_col))
    if np.any(np.concatenate([col, q_col, l_col]) < 0):
        raise ModelError("a shared row references an internal pipe's own "
                         "column")
    # the kept columns keep their order, so each row stays sorted
    shared = StandardModel(
        n, model.obj_quad[cols], model.obj_lin[cols], model.obj_const,
        csr_from_rows(row[kept], col, model.a_eq.data[kept],
                      (eq_rows.size, n)), model.b_eq[eq_rows],
        sp.csr_matrix((0, n)), np.zeros(0),
        QuadBlock(n, quad.q_row, q_col, quad.q_coef, quad.l_row, l_col,
                  quad.l_coef, quad.d),
        model.lb[cols], model.ub[cols], model.integrality[cols])
    index._shared = (model, shared, pos)
    return shared, pos


def config_model(model: StandardModel, index: VarIndex,
                 config: dict[tuple, int]) -> tuple[StandardModel, VarIndex]:
    """The paper's model at one region configuration ``{pipe: region}``:
    its binaries fixed and its products collapsed (``pwa.emit_config``),
    read off a model of the instance, big-M or hull, and its ``index``.

    It keeps the columns and rows every model of the instance shares and
    adds ``emit_config``'s rows and flow boxes at the index's curves and
    ``epsilon``. Its columns are those of ``hull_model``. The shared part is
    read off ``model`` at the first call and kept on ``index``, so
    enumerating configurations restricts the model once.
    """
    shared, pos = _shared(model, index)
    out = index.take(pos)
    ineq, eq, (cols, lo, hi) = emit_config(config, index.curves,
                                           index.epsilon, out.col)
    _name_pipe_rows(out, ineq, eq)
    n, head = shared.num_vars, shared.num_eq
    lb, ub = shared.lb.copy(), shared.ub.copy()
    lb[cols], ub[cols] = lo, hi
    # emit_config's rows hold each column once; sorted by row, then column,
    # they follow the shared rows' sorted entries
    order = np.lexsort((eq.col, eq.row))
    a_eq = csr_from_rows(
        np.concatenate([entry_rows(shared.a_eq), head + eq.row[order]]),
        np.concatenate([shared.a_eq.indices, eq.col[order]]),
        np.concatenate([shared.a_eq.data, eq.coef[order]]),
        (head + eq.rhs.size, n))
    order = np.lexsort((ineq.col, ineq.row))
    g_in = csr_from_rows(ineq.row[order], ineq.col[order], ineq.coef[order],
                         (ineq.rhs.size, n))
    return StandardModel(
        n, shared.obj_quad.copy(), shared.obj_lin.copy(), shared.obj_const,
        a_eq, np.concatenate([shared.b_eq, eq.rhs]), g_in, ineq.rhs,
        shared.quad_ineq, lb, ub, shared.integrality.copy()), out


def relax(model: StandardModel) -> StandardModel:
    """Convex relaxation: clear the integrality mask, keep everything else.

    Binary columns are already boxed to [0, 1], so the relaxed feasible set is
    the interval hull of the mixed-integer one. Idempotent.
    """
    out = model.copy()
    out.integrality = np.zeros(model.num_vars, dtype=bool)
    return out


@dataclass
class Reduction:
    """Outcome of ``substitute_columns``: the reduced model and, for each of
    its columns, equality, inequality and quadratic rows, the index it had in
    the original model. ``feasible`` is False (and the rest None) when the
    substitution alone already contradicts a row or a box."""

    feasible: bool
    model: StandardModel | None = None
    keep: np.ndarray | None = None
    eq_rows: np.ndarray | None = None
    in_rows: np.ndarray | None = None
    quad_rows: np.ndarray | None = None


def csr_from_rows(row: np.ndarray, col: np.ndarray, val: np.ndarray,
                  shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix of entries listed in row order; each row keeps its
    entries in the order given, which fixes the summation order of every
    product with the matrix."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row,
                                                        minlength=shape[0]))])
    return sp.csr_matrix((val, col, indptr), shape=shape)


def entry_rows(mat: sp.csr_matrix) -> np.ndarray:
    """Row of every stored entry of ``mat``."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def _restrict(mat: sp.csr_matrix, col_map: np.ndarray, n: int
              ) -> tuple[sp.csr_matrix, np.ndarray]:
    """The entries of ``mat`` in the columns that ``col_map`` keeps (maps to
    a number >= 0), renumbered into ``n`` columns, without the rows left
    with no coefficient above 1e-12; and the mask of the rows kept. Each row
    keeps its entry order."""
    row = entry_rows(mat)
    col = col_map[mat.indices]
    kept = col >= 0
    live = np.bincount(row[kept & (np.abs(mat.data) > 1e-12)],
                       minlength=mat.shape[0]) > 0
    kept &= live[row]
    return csr_from_rows((np.cumsum(live) - 1)[row[kept]], col[kept],
                         mat.data[kept], (int(live.sum()), n)), live


def substitute_columns(model: StandardModel, fixed: dict[int, float],
                       aliases: dict[int, tuple[int, float]]) -> Reduction:
    """Eliminate columns by fixing values or aliasing onto other columns,
    then drop the rows whose support vanished.

    ``aliases[j] = (k, c)`` substitutes ``x_j = c * x_k`` (the target column
    must survive the reduction and ``x_j``'s box tightens ``x_k``'s). A
    vanished row is dropped when consistent; an inconsistent one (a nonzero
    equality right-hand side, a negative inequality right-hand side or a
    positive quadratic-row constant), a fixed value outside its box or an
    emptied box reports ``feasible=False``. Kept columns and rows keep their
    order. The interior point presolves with it, fixing the pinned columns.
    Aliases reduce the big-M model at a region configuration
    (``pwa.config_columns``), the reference the configuration model is
    tested against.
    """
    n = model.num_vars
    fix_j = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
    fix_v = np.fromiter(fixed.values(), dtype=float, count=len(fixed))
    ali_j = np.fromiter(aliases, dtype=np.intp, count=len(aliases))
    ali_t = np.fromiter((t for t, _ in aliases.values()), dtype=np.intp,
                        count=len(aliases))
    ali_c = np.fromiter((c for _, c in aliases.values()), dtype=float,
                        count=len(aliases))

    removed = np.zeros(n, dtype=bool)
    removed[fix_j] = True
    removed[ali_j] = True
    keep = np.flatnonzero(~removed)
    nk = keep.size
    col_map = np.full(n, -1, dtype=np.intp)
    col_map[keep] = np.arange(nk)
    bad = np.flatnonzero(col_map[ali_t] < 0)
    if bad.size:
        raise ModelError(f"alias target {ali_t[bad[0]]} of column "
                         f"{ali_j[bad[0]]} is not a kept column")
    bad = np.flatnonzero(model.integrality[ali_j])
    if bad.size:
        raise ModelError(f"cannot alias integral column {ali_j[bad[0]]}")
    col_map[ali_j] = col_map[ali_t]
    col_coef = np.ones(n)
    col_coef[ali_j] = ali_c
    offset = np.zeros(n)
    offset[fix_j] = fix_v

    if np.any((fix_v < model.lb[fix_j] - 1e-9)
              | (fix_v > model.ub[fix_j] + 1e-9)):
        return Reduction(False)
    lb = model.lb[keep]
    ub = model.ub[keep]
    blo, bhi = model.lb[ali_j], model.ub[ali_j]
    pos = col_map[ali_t]
    np.maximum.at(lb, pos, np.where(ali_c > 0, blo, bhi) / ali_c)
    np.minimum.at(ub, pos, np.where(ali_c > 0, bhi, blo) / ali_c)
    if np.any(lb > ub + 1e-12):
        return Reduction(False)

    mapped = np.flatnonzero(col_map >= 0)
    scale = col_coef[mapped]
    if aliases:
        S = sp.csr_matrix((scale, (mapped, col_map[mapped])), shape=(n, nk))
        a_eq, g_in, cols = model.a_eq @ S, model.g_in @ S, np.arange(nk)
    else:   # the fixed columns' entries drop out in ``_restrict``
        a_eq, g_in, cols = model.a_eq, model.g_in, col_map
    b_eq = model.b_eq - model.a_eq @ offset
    h_in = model.h_in - model.g_in @ offset
    quad = model.quad_ineq.substitute(col_map, col_coef, offset, nk)
    a_eq, eq_live = _restrict(a_eq, cols, nk)
    g_in, in_live = _restrict(g_in, cols, nk)
    quad_live = (np.bincount(quad.q_row, minlength=len(quad))
                 + np.bincount(quad.l_row, minlength=len(quad))) > 0
    if (np.any(np.abs(b_eq[~eq_live]) > 1e-9)
            or np.any(h_in[~in_live] < -1e-9)
            or np.any(quad.d[~quad_live] > 1e-9)):
        return Reduction(False)
    eq_rows = np.flatnonzero(eq_live)
    in_rows = np.flatnonzero(in_live)
    quad_rows = np.flatnonzero(quad_live)
    b_eq, h_in = b_eq[eq_rows], h_in[in_rows]
    if quad_rows.size < len(quad):
        quad = quad.take(quad_rows)

    target = col_map[mapped]
    obj_quad = np.bincount(target, model.obj_quad[mapped] * scale * scale,
                           minlength=nk)
    obj_lin = np.bincount(target, model.obj_lin[mapped] * scale, minlength=nk)
    obj_const = model.obj_const + float(model.obj_quad[fix_j] @ fix_v ** 2
                                        + model.obj_lin[fix_j] @ fix_v)
    reduced = StandardModel(
        nk, obj_quad, obj_lin, obj_const, a_eq, b_eq, g_in, h_in, quad,
        lb, ub, model.integrality[keep])
    return Reduction(True, reduced, keep, eq_rows, in_rows, quad_rows)


@dataclass
class FeasReport:
    """Outcome of a direct point-against-model feasibility check.

    ``worst`` lists up to 20 violations, largest first, as ``(block, k,
    value)``: row ``k`` of block ``EQ``, ``IN`` or ``QUAD``, or column ``k``
    under ``"bounds"`` or ``"integrality"``. The model's ``VarIndex`` names
    them.
    """

    ok: bool
    max_eq: float
    max_in: float
    max_quad: float
    max_bound: float
    max_integrality: float
    worst: list[tuple[str, int, float]] = field(default_factory=list)


def check_point(model: StandardModel, x: np.ndarray, tol: float,
                check_integrality: bool = False) -> FeasReport:
    """Evaluate every row, bound and (optionally) integrality at ``x``.

    Violations are absolute; a point passes when every violation is <= tol.
    """
    eq_res = np.abs(model.a_eq @ x - model.b_eq) if model.num_eq else np.zeros(0)
    in_res = (model.g_in @ x - model.h_in) if model.num_in else np.zeros(0)
    quad_res = model.quad_ineq.value(x)
    bound_res = np.maximum(model.lb - x, x - model.ub)
    bound_res[~np.isfinite(bound_res)] = 0.0
    int_res = np.zeros(model.num_vars)
    if check_integrality:
        xi = x[model.integrality]
        int_res[model.integrality] = np.abs(xi - np.round(xi))

    parts = ((EQ, eq_res), (IN, in_res), (QUAD, quad_res),
             ("bounds", bound_res), ("integrality", int_res))
    worst = [(block, int(k), float(res[k])) for block, res in parts
             for k in np.flatnonzero(res > tol)]
    worst.sort(key=lambda t: -t[2])

    def mx(a):
        return float(a.max()) if a.size else 0.0

    return FeasReport(not worst, mx(eq_res), mx(in_res), mx(quad_res),
                      mx(bound_res), mx(int_res), worst[:20])


# ---------------------------------------------------------------------------
# area decomposition
# ---------------------------------------------------------------------------

def area_views(model: StandardModel, inst: NetworkInstance,
               index: VarIndex) -> tuple[np.ndarray, np.ndarray]:
    """Area labels of the columns and equality rows, ``(col_area,
    eq_area)``, in the form ``ipm.solve_ipm(..., areas=...)`` takes: area
    ``a`` is block ``a - 1`` and coupling rows are -1.

    Each column and row belongs to the area of the entity that owns its key:
    a generator takes its bus's area and a gas source its node's; a pipe's
    columns and rows take the area of the pipe's from-node, so each tie-pipe
    flow orientation belongs to its observing node's area. Coupling rows are
    the equality rows that reference another area's columns: the tie-bus
    power balances and the tie reciprocity rows. Raises ModelError when an
    inequality row references another area's columns.

    That check guards the ownership of the area split: an inequality row is
    a local limit, never a coupling, so all its columns lie in its owner's
    area. It asks more than the interior point needs, since a row whose
    columns all lie in one other area leaves the KKT matrix block-diagonal.
    ``ipm.KktPartition`` checks what the factorization needs, the KKT
    pattern itself, and covers the quadratic rows, which this check skips.
    """
    area = {("bus", b.id): b.area for b in inst.buses}
    area.update((("node", nd.id), nd.area) for nd in inst.gas_nodes)
    area.update((("gen", g.id), area["bus", g.bus]) for g in inst.generators)
    area.update((("source", s.id), area["node", s.node])
                for s in inst.gas_sources)
    entity_area = np.array([area[e] for e in index.entities], dtype=int) - 1
    col_area, eq_area, in_area = (entity_area[index.owners(block)]
                                  for block in (COL, EQ, IN))

    def crossing(mat, row_area):
        """Rows with an entry outside the row's area."""
        rows = entry_rows(mat)
        return rows[col_area[mat.indices] != row_area[rows]]

    in_rows = crossing(model.g_in, in_area)
    if in_rows.size:
        raise ModelError(f"inequality row {index.row_name(IN, in_rows[0])} "
                         "crosses areas")
    eq_area[crossing(model.a_eq, eq_area)] = -1
    return col_area, eq_area


def dump_model(model: StandardModel, index: VarIndex) -> str:
    """Plain-text standard-form export for external cross-checks.

    Format: a ``var`` line per column (name, bounds, integrality, objective
    coefficients), the objective constant, then one line per equality,
    inequality and quadratic row listing ``coef*name`` terms. ``index`` must
    be the one built with ``model`` (or the model it was relaxed from).
    """
    names = {block: index.names(block) for block in (COL, EQ, IN, QUAD)}
    if [len(v) for v in names.values()] != [model.num_vars, model.num_eq,
                                            model.num_in, len(model.quad_ineq)]:
        raise ModelError("the index does not name this model's columns and rows")
    name = names[COL]
    out = [f"vars {model.num_vars}"]
    for j in range(model.num_vars):
        tag = " int" if model.integrality[j] else ""
        out.append(f"var {name[j]} in [{model.lb[j]:.17g}, {model.ub[j]:.17g}]"
                   f"{tag} quad {model.obj_quad[j]:.17g} lin {model.obj_lin[j]:.17g}")
    out.append(f"objective_const {model.obj_const:.17g}")

    def by_row(rows, texts, m):
        """``texts`` joined with `` + `` per row, rows in order."""
        order = np.argsort(rows, kind="stable")
        parts = np.split(np.array(texts, dtype=object)[order],
                         np.cumsum(np.bincount(rows, minlength=m))[:-1])
        return [" + ".join(part) for part in parts]

    def csr_terms(mat):
        rows = entry_rows(mat)
        return by_row(rows, [f"{c:.17g}*{name[j]}" for j, c
                             in zip(mat.indices, mat.data)], mat.shape[0])

    for label, terms, rhs in zip(names[EQ], csr_terms(model.a_eq), model.b_eq):
        out.append(f"eq {label}: {terms} = {rhs:.17g}")
    for label, terms, rhs in zip(names[IN], csr_terms(model.g_in), model.h_in):
        out.append(f"le {label}: {terms} <= {rhs:.17g}")
    qb = model.quad_ineq
    quad = by_row(qb.q_row, [f"{c:.17g}*{name[j]}^2"
                             for j, c in zip(qb.q_col, qb.q_coef)], len(qb))
    lin = by_row(qb.l_row, [f"{c:.17g}*{name[j]}"
                            for j, c in zip(qb.l_col, qb.l_coef)], len(qb))
    for label, q, l, d in zip(names[QUAD], quad, lin, qb.d):
        out.append(f"qle {label}: {q} + {l} + {d:.17g} <= 0")
    return "\n".join(out) + "\n"
