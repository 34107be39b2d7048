"""Piecewise-affine approximation of the square-law pipe flow relation.

For an internal pipe with Weymouth constant ``c_f`` the convex map
``phi -> phi**2 / c_f**2`` is approximated by ``r`` chords over a uniform
symmetric grid on ``[-phi_cap, phi_cap]``. Chords interpolate the function at
the region endpoints, so on region ``[lo, hi]``::

    a = (lo + hi) / c_f**2          # slope
    b = -lo * hi / c_f**2           # intercept
    0 <= a*phi + b - phi**2/c_f**2 <= (hi - lo)**2 / (4 c_f**2)

``r`` must be even so that 0 is a breakpoint and no region straddles the
flow-sign logic. The map is even in the flow, so one curve per internal pipe
(i, j) serves both of its orientations, (i, j) and the mirror (j, i), and
this module alone expands a pipe into them. Region membership, flow sign and
pressure ordering are encoded as mixed-logical big-M inequality blocks with
a strict-inequality tolerance ``epsilon``; each orientation carries
``1 + 3r`` binaries (sign delta, and alpha/beta/delta per region) and
``1 + r`` extra continuous variables (one pressure product, one flow product
per region), in one contiguous column block (``block_keys``). ``emit_mld``
emits the rows of every orientation at once as coordinate arrays
(``LinearRows``).

Note the usual strict-inequality artifact of big-M logic encodings: with
integral binaries the feasible flow set excludes open bands of width
``2 * epsilon`` around the interior breakpoints (including 0). Keep nominal
flows clear of breakpoints by more than ``epsilon``.

``emit_hull`` emits the tighter relaxation that stage 1 solves by default:
the convex hull of each pipe's signed chord graph, as rows over the flow and
the two end pressures alone.

This module alone gives the region binaries their meaning. A region
configuration ``{pipe: region}`` names one active region per internal pipe;
``emit_config`` turns it into the rows the binaries leave over the flows and
pressures, which stage 2 and the oracle read. ``config_columns`` turns it
into the values of the binaries and product auxiliaries of both
orientations, which reduce the big-M model to the same configuration: the
reference the configuration model is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingBounds, ModelError


@dataclass(frozen=True)
class PwaConfig:
    """Approximation knobs: region count ``r`` (even, >= 2) and the
    strict-inequality tolerance ``epsilon``."""

    r: int
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.r < 2 or self.r % 2 != 0:
            raise ConfigError(f"r must be even and >= 2, got {self.r}")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")


@dataclass(frozen=True)
class PwaSegment:
    """One affine piece ``a*phi + b`` valid on ``[lo, hi]``."""

    m: int
    lo: float
    hi: float
    a: float
    b: float

    def value(self, phi: float) -> float:
        return self.a * phi + self.b


@dataclass(frozen=True)
class PwaCurve:
    """All ``r`` segments of one internal pipe, read as a function of the
    flow along ``pipe``.

    Segments tile ``[-phi_cap, phi_cap]`` exactly and 0 is always a
    breakpoint. The curve is an even function of the flow, so the reversed
    orientation reads the same segments, ``-phi`` lying in ``mirror_region``.
    """

    pipe: tuple[str, str]
    c_f: float
    phi_cap: float
    segments: tuple[PwaSegment, ...]

    @property
    def r(self) -> int:
        return len(self.segments)

    @property
    def breakpoints(self) -> list[float]:
        return [self.segments[0].lo] + [s.hi for s in self.segments]

    def mirror_region(self, m: int) -> int:
        """Region index of ``-phi`` on the reversed orientation."""
        return self.r + 1 - m

    def region(self, phi: float) -> int:
        """Region containing the flow ``phi``, clamped to ``1..r``; a flow on
        a breakpoint takes the region on its sign's side (above it for
        ``phi >= 0``, below it otherwise)."""
        side = bisect_right if phi >= 0.0 else bisect_left
        return min(max(side(self.breakpoints, phi), 1), self.r)


def fit_pwa(c_f: float, phi_cap: float, cfg: PwaConfig,
            pipe: tuple[str, str] = ("i", "j")) -> PwaCurve:
    """Fit the chord approximation of ``phi**2 / c_f**2`` on a uniform grid."""
    if not c_f > 0:
        raise ConfigError(f"weymouth constant must be > 0, got {c_f}")
    if not phi_cap > 0:
        raise ConfigError(f"flow cap must be > 0, got {phi_cap}")
    c2 = c_f * c_f
    width = 2.0 * phi_cap / cfg.r
    if cfg.epsilon >= 0.1 * width:
        raise ConfigError(
            f"epsilon {cfg.epsilon} is not small against the region width "
            f"{width}; reduce epsilon or the region count")
    # the upper half of the grid is the negated lower half, so the
    # breakpoints are exactly antisymmetric and 0 is exactly one of them
    lower = [-phi_cap + k * width for k in range(cfg.r // 2)] + [0.0]
    grid = lower + [-g for g in reversed(lower[:-1])]
    segments = tuple(PwaSegment(m, lo, hi, (lo + hi) / c2, -lo * hi / c2)
                     for m, (lo, hi) in enumerate(zip(grid, grid[1:]), 1))
    return PwaCurve(pipe, c_f, phi_cap, segments)


def max_region_error(seg: PwaSegment, c_f: float) -> float:
    """Largest chord-over-function gap on the segment: ``(hi-lo)**2/(4 c_f**2)``,
    attained at the midpoint."""
    return (seg.hi - seg.lo) ** 2 / (4.0 * c_f * c_f)


# ---------------------------------------------------------------------------
# mixed-logical block emission
# ---------------------------------------------------------------------------

def key_label(key: tuple) -> str:
    """Label of a model column or row key ``(kind, owner)`` or ``(kind,
    owner, m)``: ``kind[owner]`` or ``kind[owner,m]``, where a directed pipe
    owner ``(i, j)`` reads ``i->j``."""
    owner = key[1]
    owner = f"{owner[0]}->{owner[1]}" if isinstance(owner, tuple) else owner
    if len(key) == 3:
        return f"{key[0]}[{owner},{key[2]}]"
    return f"{key[0]}[{owner}]"


def block_keys(pipe: tuple, r: int) -> list[tuple]:
    """Keys of the ``6 + 8r`` columns of internal pipe ``pipe`` = (i, j), in
    the order ``emit_mld`` expects them to lie: the block of orientation
    (i, j), then that of its mirror (j, i). A block holds the flow, the
    pressure product, the ``r`` flow products, the sign binary, then the
    ``alpha``, ``beta`` and ``dm`` binaries of each region (``1 + 3r``
    binaries in all)."""
    ms = range(1, r + 1)
    return [k for key in (pipe, pipe[::-1])
            for k in ([("phi", key), ("ypsi", key)]
                      + [("ym", key, m) for m in ms] + [("dpsi", key)]
                      + [(kind, key, m) for kind in ("alpha", "beta", "dm")
                         for m in ms])]


@dataclass(frozen=True, eq=False)
class LinearRows:
    """Linear rows as coordinate arrays: coefficient ``coef[e]`` of column
    ``col[e]`` in row ``row[e]``, and per row its right-hand side, key, kind
    (a position in ``kinds``) and owner, the orientation it belongs to:
    ``2p`` for pipe ``p`` of the curves and ``2p + 1`` for its mirror."""

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray
    keys: list[tuple]
    kinds: tuple[str, ...]
    kind: np.ndarray
    owner: np.ndarray


def _rows(n: int, specs, *labels) -> LinearRows:
    """The ``n`` rows of ``specs``: each ``(row, rhs, *terms)`` makes rows
    ``row`` read ``sum(coef * x[col]) (<=|=) rhs`` over its ``(col, coef)``
    terms, every array broadcasting to one shape. ``labels`` are the keys,
    kinds, kind and owner of ``LinearRows``."""
    rhs, parts = np.empty(n), []
    for row, h, *terms in specs:
        rhs[row] = h
        for col, coef in terms:
            part = np.empty((3,) + np.broadcast(row, col, coef).shape)
            part[0], part[1], part[2] = row, col, coef   # indices stay exact
            parts.append(part.reshape(3, -1))
    row, col, coef = (np.concatenate(parts, axis=1) if parts
                      else np.zeros((3, 0)))
    return LinearRows(row.astype(np.intp), col.astype(np.intp), coef, rhs,
                      *labels)


# big-M kinds of one orientation in row order, the region and flow-product
# kinds repeating per region; equality kinds of one pipe
_HEAD = ("psi_order_up", "psi_order_dn", "flow_sign_up", "flow_sign_dn")
_REGION = ("reg_hi_up", "reg_hi_dn", "reg_lo_up", "reg_lo_dn", "reg_and_a",
           "reg_and_b", "reg_and_c")
_PROD_F = ("prod_f_lb", "prod_f_ub", "prod_f_cap", "prod_f_floor")
_PROD_P = ("prod_p_lb", "prod_p_ub", "prod_p_cap", "prod_p_floor")
_PAIR = ("simplex", "pwa_flow", "reciprocity", "dpsi_link")


def emit_mld(curves: dict[tuple, PwaCurve], cfg: PwaConfig, col,
             psi_bounds) -> tuple[LinearRows, LinearRows]:
    """Emit the mixed-logical rows of both orientations of every internal
    pipe at once, as arrays.

    ``curves`` maps each internal pipe (i, j) to its fitted curve with
    ``cfg.r`` regions; its orientation (i, j) and its mirror (j, i) both
    read that curve. ``col(kind, owner, m=None)`` looks columns up, and each
    orientation's columns must lie contiguously in the order of
    ``block_keys``. ``psi_bounds`` maps node id -> (psi_min, psi_max); the
    four pressure bounds of a pipe and its flow cap act as big-M constants
    and must be finite.

    Returns the inequality rows, ``8 + 11r`` per orientation (pressure
    order, flow sign, the region logic per region, the flow products per
    region, the pressure products), and the equality rows, five per pipe:
    the region simplex of (i, j), the orientation-coupled flow equality,
    flow reciprocity and the sign link, then the mirror's simplex.
    """
    r, eps = cfg.r, cfg.epsilon
    keys = [key for i, j in curves for key in ((i, j), (j, i))]
    num = len(keys)
    caps = np.repeat([curve.phi_cap for curve in curves.values()], 2)
    bounds = np.array([(*psi_bounds[i], *psi_bounds[j], cap)
                       for (i, j), cap in zip(keys, caps)],
                      dtype=float).reshape(num, 5)
    bad = np.flatnonzero(~np.isfinite(bounds))
    if bad.size:
        (i, j), w = keys[bad[0] // 5], bad[0] % 5
        what = ("psi_min", "psi_max", "psi_min", "psi_max", "flow_cap")[w]
        owner = (i, i, j, j, f"{i}->{j}")[w]
        raise MissingBounds(f"{what}[{owner}] must be finite for big-M "
                            "emission")
    # per-orientation numbers are (num, 1) columns, per-region ones (num, r)
    lo_i, hi_i, lo_j, hi_j, cap = (bounds[:, [w]] for w in range(5))
    seg = np.repeat(np.array([[(s.lo, s.hi, s.a, s.b) for s in curve.segments]
                              for curve in curves.values()],
                             dtype=float).reshape(num // 2, r, 4), 2, axis=0)
    lo, hi, a, b = (seg[:, :, w] for w in range(4))

    base = np.array([col("phi", key) for key in keys], np.intp)[:, None]
    if any(col("dm", key, r) != j + 2 + 4 * r
           for key, j in zip(keys, base[:, 0])):
        raise ModelError("orientation columns not laid out as block_keys")
    ms = np.arange(r)
    phi, ypsi, dpsi = base, base + 1, base + 2 + r
    ym, alpha, beta, dm = (base + off + ms
                           for off in (2, 3 + r, 3 + 2 * r, 3 + 3 * r))
    psi_i = np.array([col("psi", i) for i, _ in keys], np.intp)[:, None]
    psi_j = np.array([col("psi", j) for _, j in keys], np.intp)[:, None]

    per = 8 + 11 * r
    first = np.arange(num)[:, None] * per
    reg = first + 4 + 7 * ms
    prod = first + 4 + 7 * r + 4 * ms
    tail = first + 4 + 11 * r
    regions = range(1, r + 1)
    in_keys = [row_key for key in keys for row_key in (
        [(kind, key) for kind in _HEAD]
        + [(kind, key, m) for m in regions for kind in _REGION]
        + [(kind, key, m) for m in regions for kind in _PROD_F]
        + [(kind, key) for kind in _PROD_P])]
    in_kind = np.concatenate([np.arange(4), np.tile(4 + np.arange(7), r),
                              np.tile(11 + np.arange(4), r), 15 + np.arange(4)])
    ineq = _rows(num * per, [
        # 1. pressure-order logic: [dpsi = 1] <-> [psi_i >= psi_j]
        (first, -(lo_i - hi_j),
         (psi_i, -1.0), (psi_j, 1.0), (dpsi, -(lo_i - hi_j))),
        (first + 1, -eps,
         (psi_i, 1.0), (psi_j, -1.0), (dpsi, -(hi_i - lo_j) - eps)),
        # 2. flow-sign logic: [dpsi = 1] <-> [phi >= 0]
        (first + 2, cap, (phi, -1.0), (dpsi, cap)),
        (first + 3, -eps, (phi, 1.0), (dpsi, -cap - eps)),
        # 3. region logic per segment: [delta_m = 1] <-> [lo_m <= phi <= hi_m],
        #    via alpha_m = [phi <= hi_m], beta_m = [phi >= lo_m], delta = alpha AND beta
        (reg, cap, (phi, 1.0), (alpha, cap - hi)),
        (reg + 1, -hi - eps, (phi, -1.0), (alpha, -cap - hi - eps)),
        (reg + 2, cap, (phi, -1.0), (beta, cap + lo)),
        (reg + 3, lo - eps, (phi, 1.0), (beta, -cap + lo - eps)),
        (reg + 4, 0.0, (alpha, -1.0), (dm, 1.0)),
        (reg + 5, 0.0, (beta, -1.0), (dm, 1.0)),
        (reg + 6, 1.0, (alpha, 1.0), (beta, 1.0), (dm, -1.0)),
        # 4. product linearization y_m = delta_m * phi (bounds +-phi_cap)
        (prod, 0.0, (ym, -1.0), (dm, -cap)),
        (prod + 1, cap, (ym, 1.0), (phi, -1.0), (dm, cap)),
        (prod + 2, 0.0, (ym, 1.0), (dm, -cap)),
        (prod + 3, cap, (ym, -1.0), (phi, 1.0), (dm, cap)),
        # 5. product linearization ypsi = dpsi * psi_i (bounds [psi_lo_i, psi_hi_i])
        (tail, 0.0, (ypsi, -1.0), (dpsi, lo_i)),
        (tail + 1, -lo_i, (ypsi, 1.0), (psi_i, -1.0), (dpsi, -lo_i)),
        (tail + 2, 0.0, (ypsi, 1.0), (dpsi, -hi_i)),
        (tail + 3, hi_i, (ypsi, -1.0), (psi_i, 1.0), (dpsi, hi_i)),
    ], in_keys, _HEAD + _REGION + _PROD_F + _PROD_P, np.tile(in_kind, num),
        np.repeat(np.arange(num), per))

    at = np.arange(num)[:, None]
    pair = 5 * np.arange(num // 2)[:, None]
    s, t = slice(0, num, 2), slice(1, num, 2)
    eq = _rows(5 * num // 2, [
        # region simplex per orientation: exactly one active segment
        (5 * (at // 2) + 4 * (at % 2), 1.0, (dm, 1.0)),
        # linearized flow equality coupling the two orientations:
        # sum_m (a_m y_m + b_m d_m) - 2 ypsi_ij - 2 ypsi_ji + psi_i + psi_j = 0
        (pair + 1, 0.0, (ym[s], a[s]), (dm[s], b[s]), (ypsi[s], -2.0),
         (ypsi[t], -2.0), (psi_i[s], 1.0), (psi_j[s], 1.0)),
        (pair + 2, 0.0, (phi[s], 1.0), (phi[t], 1.0)),
        (pair + 3, 1.0, (dpsi[s], 1.0), (dpsi[t], 1.0)),
    ], [row_key for i, j in curves for row_key in
        [(kind, (i, j)) for kind in _PAIR] + [("simplex", (j, i))]],
        _PAIR, np.tile([0, 1, 2, 3, 0], num // 2),
        at.reshape(-1, 2)[:, [0, 0, 0, 0, 1]].ravel())
    return ineq, eq


def _pipe_columns(pipes: list[tuple], col) -> tuple[np.ndarray, ...]:
    """Columns of each pipe (i, j)'s flow ``phi_ij`` and end pressures
    ``psi_i`` and ``psi_j``."""
    return (np.array([col("phi", key) for key in pipes], np.intp),
            np.array([col("psi", i) for i, _ in pipes], np.intp),
            np.array([col("psi", j) for _, j in pipes], np.intp))


def emit_hull(curves: dict[tuple, PwaCurve], col
              ) -> tuple[LinearRows, LinearRows]:
    """Emit the convex hull of every internal pipe's signed chord graph.

    In the mixed-integer model the orientation (i, j) of a pipe keeps
    ``(phi_ij, psi_i - psi_j)`` on the graph of ``g(phi) = sgn(phi) *
    chord(phi)``, the polyline through the ``r + 1`` breakpoint points
    ``(phi_k, sgn(phi_k) phi_k**2 / c_f**2)``. Its convex hull is the
    polygon of those points (disjunctive programming, Balas 1979). ``g`` is
    odd, concave on ``phi <= 0`` and convex on ``phi >= 0``, so the lower
    chain runs from the left end straight to the breakpoint of least slope
    seen from it, then along the convex branch; the upper chain is its
    reflection through the origin. A lower edge of slope ``s`` through
    ``(x, y)`` and its reflection bound ``d = s phi_ij - (psi_i - psi_j)``
    by ``-h <= d <= h`` with ``h = s x - y``: one ``hull_lo`` row ``d <= h``
    and one ``hull_up`` row ``-d <= h``, keyed by the breakpoint ending the
    edge. At ``r = 2`` the three points are collinear and the hull is their
    line, one ``hull_line`` row ``d = 0``; two opposite inequalities would
    leave the interior point no interior.

    ``curves`` maps each internal pipe (i, j) to its curve, all with the
    same ``r`` (as ``mipbuild.fit_all_curves`` does); ``col`` is the column
    lookup of ``emit_mld``. Returns the inequality and the equality rows,
    each owned by its pipe's own orientation.
    """
    pipes = list(curves)
    bps = [curve.breakpoints for curve in curves.values()]
    x = np.array(bps, dtype=float).reshape(len(bps), len(bps[0]) if bps else 2)
    c2 = np.array([curve.c_f ** 2 for curve in curves.values()])[:, None]
    y = np.sign(x) * x * x / c2
    phi, psi_i, psi_j = _pipe_columns(pipes, col)
    none = np.zeros(0, np.intp)
    if x.shape[1] == 3:
        s = (y[:, 2] - y[:, 0]) / (x[:, 2] - x[:, 0])
        num = len(pipes)
        line = _rows(num, [(np.arange(num), 0.0, (phi, s), (psi_i, -1.0),
                            (psi_j, 1.0))],
                     [("hull_line", key) for key in pipes], ("hull_line",),
                     np.zeros(num, np.intp), 2 * np.arange(num))
        return _rows(0, [], [], ("hull_lo", "hull_up"), none, none), line
    # the lower chain: the left end, then every breakpoint from the one of
    # least slope seen from it; edge e ends at breakpoint ``end[e]``
    t = 1 + np.argmin((y[:, 1:] - y[:, :1]) / (x[:, 1:] - x[:, :1]), axis=1)
    pipe, end = np.nonzero(np.arange(x.shape[1]) >= t[:, None])
    start = np.where(end == t[pipe], 0, end - 1)
    x0, y0 = x[pipe, start], y[pipe, start]
    s = (y[pipe, end] - y0) / (x[pipe, end] - x0)
    h = s * x0 - y0
    lo = 2 * np.arange(pipe.size)
    ph, pi, pj = phi[pipe], psi_i[pipe], psi_j[pipe]
    hull = _rows(2 * pipe.size, [
        (lo, h, (ph, s), (pi, -1.0), (pj, 1.0)),
        (lo + 1, h, (ph, -s), (pi, 1.0), (pj, -1.0)),
    ], [(kind, pipes[p], k) for p, k in zip(pipe.tolist(), end.tolist())
        for kind in ("hull_lo", "hull_up")], ("hull_lo", "hull_up"),
        np.tile([0, 1], pipe.size), np.repeat(2 * pipe, 2))
    return hull, _rows(0, [], [], ("hull_line",), none, none)


# ---------------------------------------------------------------------------
# region configurations
# ---------------------------------------------------------------------------

def orientation_regions(config: dict[tuple, int],
                        curves: dict[tuple, PwaCurve]):
    """Yield ``(orientation, region, sign binary)`` for both orientations of
    every pipe of a configuration ``{pipe: region}``, the pipe's own
    orientation first. The mirror carries ``-phi`` and so the mirror region;
    the sign binary is 1 on the regions ``m > r/2``, the nonnegative flows."""
    for key, region in config.items():
        curve = curves[key]
        for k, m in ((key, region), ((key[1], key[0]),
                                     curve.mirror_region(region))):
            yield k, m, int(m > curve.r // 2)


def config_columns(config: dict[tuple, int], curves: dict[tuple, PwaCurve],
                   col) -> tuple[dict[int, float], dict[int, tuple[int, float]]]:
    """Column fixes and aliases that a region configuration implies for the
    blocks ``emit_mld`` emits; with them ``mipbuild.substitute_columns``
    reduces the big-M model to the configuration, the reference
    ``emit_config``'s rows are tested against.

    Every binary is fixed: the sign binary, ``dm`` on the active region only,
    ``alpha`` on the regions at or above it and ``beta`` on those at or
    below. The product auxiliaries collapse onto the flow and pressure
    columns: ``ym = phi`` on the active region and 0 off it, ``ypsi = psi_i``
    when the sign binary is 1 and 0 otherwise; aliasing them rather than
    fixing them keeps a reduced subproblem strictly interior-feasible. An
    alias maps a column to ``(source column, coefficient)``. ``col`` is the
    column lookup of ``emit_mld``.
    """
    fixed: dict[int, float] = {}
    aliases: dict[int, tuple[int, float]] = {}
    for pipe, active in config.items():
        # both orientations read the region count off the pipe's curve
        r = curves[pipe].r
        for key, region, delta_psi in orientation_regions({pipe: active},
                                                         curves):
            fixed[col("dpsi", key)] = float(delta_psi)
            for m in range(1, r + 1):
                fixed[col("dm", key, m)] = 1.0 if m == region else 0.0
                fixed[col("alpha", key, m)] = 1.0 if m >= region else 0.0
                fixed[col("beta", key, m)] = 1.0 if m <= region else 0.0
                jm = col("ym", key, m)
                if m == region:
                    aliases[jm] = (col("phi", key), 1.0)
                else:
                    fixed[jm] = 0.0
            jpsi = col("ypsi", key)
            if delta_psi:
                aliases[jpsi] = (col("psi", key[0]), 1.0)
            else:
                fixed[jpsi] = 0.0
    return fixed, aliases


def emit_config(config: dict[tuple, int], curves: dict[tuple, PwaCurve],
                epsilon: float, col) -> tuple[LinearRows, LinearRows, tuple]:
    """Emit ``emit_mld``'s rows at one region configuration, over each
    pipe's flows and end pressures.

    With the binaries fixed as ``config_columns`` fixes them and the
    products collapsed onto flows and pressures, the big-M rows of a pipe
    (i, j) in region ``m`` (chord ``a phi + b`` on ``[lo, hi]``; sign ``s``
    1 on the regions ``m > r/2``, else -1) come down to the flow box
    ``lo + epsilon <= phi_ij <= hi - epsilon`` (no ``epsilon`` at the grid
    ends) and the mirror region's box on ``phi_ji``, one ``pwa_flow`` row
    ``a phi_ij - s (psi_i - psi_j) = -b`` and one ``psi_order`` row
    ``s (psi_j - psi_i) <= -epsilon``; every other row then holds or follows
    from these and the boxes. Returns the inequality and the equality rows,
    each owned by its pipe's own orientation, and the boxes as ``(columns,
    lo, hi)``; ``col`` is the column lookup of ``emit_mld``.
    """
    pipes = list(curves)
    cols, box, chords = [], [], []
    for pipe, curve in curves.items():
        for key, m, sign in orientation_regions({pipe: config[pipe]}, curves):
            seg = curve.segments[m - 1]
            cols.append(col("phi", key))
            box.append((seg.lo + epsilon if m > 1 else seg.lo,
                        seg.hi - epsilon if m < curve.r else seg.hi))
            chords.append((seg.a, -seg.b, 2.0 * sign - 1.0))
    # the rows read the pipes' own orientations
    a, b, s = np.array(chords, dtype=float).reshape(-1, 3)[0::2].T
    lo, hi = np.array(box, dtype=float).reshape(-1, 2).T
    num = len(pipes)
    at = np.arange(num)
    phi, psi_i, psi_j = _pipe_columns(pipes, col)
    labels = (np.zeros(num, np.intp), 2 * at)
    ineq = _rows(num, [(at, -epsilon, (psi_i, -s), (psi_j, s))],
                 [("psi_order", key) for key in pipes], ("psi_order",),
                 *labels)
    eq = _rows(num, [(at, b, (phi, a), (psi_i, -s), (psi_j, s))],
               [("pwa_flow", key) for key in pipes], ("pwa_flow",), *labels)
    return ineq, eq, (np.array(cols, np.intp), lo, hi)
