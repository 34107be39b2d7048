"""Piecewise-affine approximation of the square-law pipe flow relation.

For an internal pipe with Weymouth constant ``c_f`` the convex map
``phi -> phi**2 / c_f**2`` is approximated by ``r`` chords over a uniform
symmetric grid on ``[-phi_cap, phi_cap]``. Chords interpolate the function at
the region endpoints, so on region ``[lo, hi]``::

    a = (lo + hi) / c_f**2          # slope
    b = -lo * hi / c_f**2           # intercept
    0 <= a*phi + b - phi**2/c_f**2 <= (hi - lo)**2 / (4 c_f**2)

``r`` must be even so that 0 is a breakpoint and no region straddles the
flow-sign logic. Region membership, flow sign and pressure ordering are
encoded as mixed-logical big-M inequality blocks with a strict-inequality
tolerance ``epsilon``; each directed orientation carries ``1 + 3r`` binaries
(sign delta, and alpha/beta/delta per region) and ``1 + r`` extra continuous
variables (one pressure product, one flow product per region).

Note the usual strict-inequality artifact of big-M logic encodings: with
integral binaries the feasible flow set excludes open bands of width
``2 * epsilon`` around the interior breakpoints (including 0). Keep nominal
flows clear of breakpoints by more than ``epsilon``.

This module alone gives the region binaries their meaning. A region
configuration ``{stored orientation: region}`` names one active region per
undirected pipe; ``config_columns`` turns it into the binaries and product
auxiliaries of both orientations. The oracle enumerates configurations and
stage 2 recovers one, and both pass it through that one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, MissingBounds, OutOfRange


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

    def contains(self, phi: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= phi <= self.hi + tol


@dataclass(frozen=True)
class PwaCurve:
    """All ``r`` segments for one directed pipe orientation.

    Segments tile ``[-phi_cap, phi_cap]`` exactly and 0 is always a
    breakpoint. The curve is an even function of the flow, so both
    orientations of a pipe share the same numbers.
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

    def segment_for(self, phi: float) -> PwaSegment:
        for s in self.segments:
            if s.contains(phi):
                return s
        raise OutOfRange(f"flow {phi} outside [{-self.phi_cap}, {self.phi_cap}]")

    def value(self, phi: float) -> float:
        return self.segment_for(phi).value(phi)

    def mirror_region(self, m: int) -> int:
        """Region index of ``-phi`` on the reversed orientation."""
        return self.r + 1 - m


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
    segments = []
    for m in range(1, cfg.r + 1):
        lo = -phi_cap + (m - 1) * width
        hi = -phi_cap + m * width
        if m == cfg.r:
            hi = phi_cap
        if m == cfg.r // 2:
            hi = 0.0
        if m == cfg.r // 2 + 1:
            lo = 0.0
        segments.append(PwaSegment(m, lo, hi, (lo + hi) / c2, -lo * hi / c2))
    return PwaCurve(pipe, c_f, phi_cap, tuple(segments))


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


@dataclass(frozen=True)
class Row:
    """Sparse linear row ``sum(coef * col) (<=|=) rhs`` with its key."""

    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    rhs: float
    key: tuple

    @property
    def label(self) -> str:
        return key_label(self.key)


@dataclass
class MldBlock:
    """Constraint block for one directed internal pipe orientation.

    ``ineq_rows`` hold the five big-M logic families; ``eq_rows`` hold this
    orientation's region simplex and, on the stored (canonical) orientation
    only, the pair-level equalities: the orientation-coupled flow equality,
    flow reciprocity, and the sign-binary link.
    """

    pipe: tuple[str, str]
    ineq_rows: list[Row] = field(default_factory=list)
    eq_rows: list[Row] = field(default_factory=list)
    num_binaries: int = 0
    num_extra_continuous: int = 0


def emit_mld(pipe, curve: PwaCurve, cfg: PwaConfig, col, psi_bounds,
             pair_rows: bool) -> MldBlock:
    """Emit the mixed-logical constraint block for one directed orientation.

    Parameters
    ----------
    pipe : DirectedPipe
        Orientation (i, j); the block constrains this orientation's flow,
        auxiliaries and binaries against the pressures of i and j.
    curve : PwaCurve
        Fitted chord approximation for this pipe.
    cfg : PwaConfig
        Supplies the strict-inequality tolerance.
    col : callable
        ``col(kind, owner, m=None) -> int`` column lookup.
    psi_bounds : mapping
        node id -> (psi_min, psi_max); all four bounds plus the flow cap act
        as big-M constants and must be finite.
    pair_rows : bool
        Emit the pair-level equalities (flow equality coupling the two
        orientations, reciprocity, sign link). Set on the stored orientation
        only, so each undirected pipe contributes them once.
    """
    i, j = pipe.from_node, pipe.to_node
    key = (i, j)
    mirror = (j, i)
    name = f"{i}->{j}"
    eps = cfg.epsilon
    r = curve.r
    phi_cap = curve.phi_cap

    psi_lo_i, psi_hi_i = psi_bounds[i]
    psi_lo_j, psi_hi_j = psi_bounds[j]
    for v, what in ((psi_lo_i, f"psi_min[{i}]"), (psi_hi_i, f"psi_max[{i}]"),
                    (psi_lo_j, f"psi_min[{j}]"), (psi_hi_j, f"psi_max[{j}]"),
                    (phi_cap, f"flow_cap[{name}]")):
        if not math.isfinite(v):
            raise MissingBounds(f"{what} must be finite for big-M emission")

    c_phi = col("phi", key)
    c_psi_i = col("psi", i)
    c_psi_j = col("psi", j)
    c_ypsi = col("ypsi", key)
    c_dpsi = col("dpsi", key)

    block = MldBlock(pipe=key, num_binaries=1 + 3 * r,
                     num_extra_continuous=1 + r)
    ineq = block.ineq_rows

    def le(cols, coefs, rhs, kind, *m):
        ineq.append(Row(tuple(cols), tuple(coefs), rhs, (kind, key, *m)))

    # 1. pressure-order logic: [dpsi = 1] <-> [psi_i >= psi_j]
    le((c_psi_i, c_psi_j, c_dpsi), (-1.0, 1.0, -(psi_lo_i - psi_hi_j)),
       -(psi_lo_i - psi_hi_j), "psi_order_up")
    le((c_psi_i, c_psi_j, c_dpsi), (1.0, -1.0, -(psi_hi_i - psi_lo_j) - eps),
       -eps, "psi_order_dn")

    # 2. flow-sign logic: [dpsi = 1] <-> [phi >= 0]
    le((c_phi, c_dpsi), (-1.0, phi_cap), phi_cap, "flow_sign_up")
    le((c_phi, c_dpsi), (1.0, -phi_cap - eps), -eps, "flow_sign_dn")

    # 3. region logic per segment: [delta_m = 1] <-> [lo_m <= phi <= hi_m],
    #    via alpha_m = [phi <= hi_m], beta_m = [phi >= lo_m], delta = alpha AND beta
    for seg in curve.segments:
        m = seg.m
        c_al = col("alpha", key, m)
        c_be = col("beta", key, m)
        c_dm = col("dm", key, m)
        le((c_phi, c_al), (1.0, phi_cap - seg.hi), phi_cap, "reg_hi_up", m)
        le((c_phi, c_al), (-1.0, -phi_cap - seg.hi - eps), -seg.hi - eps,
           "reg_hi_dn", m)
        le((c_phi, c_be), (-1.0, phi_cap + seg.lo), phi_cap, "reg_lo_up", m)
        le((c_phi, c_be), (1.0, -phi_cap + seg.lo - eps), seg.lo - eps,
           "reg_lo_dn", m)
        le((c_al, c_dm), (-1.0, 1.0), 0.0, "reg_and_a", m)
        le((c_be, c_dm), (-1.0, 1.0), 0.0, "reg_and_b", m)
        le((c_al, c_be, c_dm), (1.0, 1.0, -1.0), 1.0, "reg_and_c", m)

    # 4. product linearization y_m = delta_m * phi (bounds +-phi_cap)
    for seg in curve.segments:
        m = seg.m
        c_ym = col("ym", key, m)
        c_dm = col("dm", key, m)
        le((c_ym, c_dm), (-1.0, -phi_cap), 0.0, "prod_f_lb", m)
        le((c_ym, c_phi, c_dm), (1.0, -1.0, phi_cap), phi_cap, "prod_f_ub", m)
        le((c_ym, c_dm), (1.0, -phi_cap), 0.0, "prod_f_cap", m)
        le((c_ym, c_phi, c_dm), (-1.0, 1.0, phi_cap), phi_cap,
           "prod_f_floor", m)

    # 5. product linearization ypsi = dpsi * psi_i (bounds [psi_lo_i, psi_hi_i])
    le((c_ypsi, c_dpsi), (-1.0, psi_lo_i), 0.0, "prod_p_lb")
    le((c_ypsi, c_psi_i, c_dpsi), (1.0, -1.0, -psi_lo_i), -psi_lo_i,
       "prod_p_ub")
    le((c_ypsi, c_dpsi), (1.0, -psi_hi_i), 0.0, "prod_p_cap")
    le((c_ypsi, c_psi_i, c_dpsi), (-1.0, 1.0, psi_hi_i), psi_hi_i,
       "prod_p_floor")

    def eq(cols, coefs, rhs, kind):
        block.eq_rows.append(Row(tuple(cols), tuple(coefs), rhs, (kind, key)))

    # region simplex: exactly one active segment
    eq([col("dm", key, m) for m in range(1, r + 1)], [1.0] * r, 1.0, "simplex")

    if pair_rows:
        # linearized flow equality coupling the two orientations:
        # sum_m (a_m y_m + b_m d_m) - 2 ypsi_ij - 2 ypsi_ji + psi_i + psi_j = 0
        cols = []
        coefs = []
        for seg in curve.segments:
            cols.append(col("ym", key, seg.m))
            coefs.append(seg.a)
            cols.append(col("dm", key, seg.m))
            coefs.append(seg.b)
        cols += [c_ypsi, col("ypsi", mirror), c_psi_i, c_psi_j]
        coefs += [-2.0, -2.0, 1.0, 1.0]
        eq(cols, coefs, 0.0, "pwa_flow")
        eq((c_phi, col("phi", mirror)), (1.0, 1.0), 0.0, "reciprocity")
        eq((c_dpsi, col("dpsi", mirror)), (1.0, 1.0), 1.0, "dpsi_link")

    return block


# ---------------------------------------------------------------------------
# region configurations
# ---------------------------------------------------------------------------

def orientation_regions(config: dict[tuple, int],
                        curves: dict[tuple, PwaCurve]):
    """Yield ``(orientation, region, sign binary)`` for both orientations of
    every pipe of a configuration ``{stored orientation: region}``, the
    stored orientation first. The reversed orientation carries ``-phi`` and
    so the mirror region; the sign binary is 1 on the regions ``m > r/2``,
    the nonnegative flows."""
    for key, region in config.items():
        curve = curves[key]
        for k, m in ((key, region), ((key[1], key[0]),
                                     curve.mirror_region(region))):
            yield k, m, int(m > curve.r // 2)


def config_columns(config: dict[tuple, int], curves: dict[tuple, PwaCurve],
                   col) -> tuple[dict[int, float], dict[int, tuple[int, float]]]:
    """Column fixes and aliases that a region configuration implies for the
    blocks ``emit_mld`` emits.

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
    for key, region, delta_psi in orientation_regions(config, curves):
        fixed[col("dpsi", key)] = float(delta_psi)
        for m in range(1, curves[key].r + 1):
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
