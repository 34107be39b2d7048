import re

import numpy as np
import pytest

from ogpf.errors import ConfigError, MissingBounds
from ogpf.pwa import (PwaConfig, PwaCurve, _chords, block_keys, emit_mld,
                      fit_pwa, key_label, max_region_error)

from conftest import pair_index, row_values


def _regions(curve):
    """Per region of ``curve``, as arrays: its ends ``lo`` and ``hi`` and
    its chord's slope ``a`` and intercept ``b``, as the model reads them."""
    return tuple(v[0] for v in _chords({curve.pipe: curve}))


def test_chord_fit_r2_unit():
    curve = fit_pwa(1.0, 1.0, PwaConfig(r=2))
    assert curve.breakpoints == (-1.0, 0.0, 1.0)
    lo, hi, a, b = _regions(curve)
    assert (lo[0], hi[0], a[0], b[0]) == (-1.0, 0.0, -1.0, 0.0)
    assert (lo[1], hi[1], a[1], b[1]) == (0.0, 1.0, 1.0, 0.0)


def test_chord_fit_positive_segment():
    lo, hi, a, b = _regions(fit_pwa(1.0, 2.0, PwaConfig(r=4)))
    assert (lo[3], hi[3]) == (1.0, 2.0)
    assert a[3] == 3.0
    assert b[3] == -2.0


def test_chord_fit_scaled_constant():
    lo, hi, a, b = _regions(fit_pwa(2.0, 2.0, PwaConfig(r=2)))
    assert (lo[1], hi[1]) == (0.0, 2.0)
    assert a[1] == 0.5
    assert b[1] == 0.0


def test_curve_is_its_grid():
    """A curve holds its ``r + 1`` breakpoints as a tuple of floats, so two
    fits of the same pipe compare and hash alike."""
    curve = fit_pwa(1.5, 3.0, PwaConfig(r=6), pipe=("a", "b"))
    assert type(curve.breakpoints) is tuple and curve.r == 6
    assert all(type(x) is float for x in curve.breakpoints)
    again = fit_pwa(1.5, 3.0, PwaConfig(r=6), pipe=("a", "b"))
    assert curve == again and hash(curve) == hash(again)
    assert curve != fit_pwa(1.5, 3.0, PwaConfig(r=8), pipe=("a", "b"))


def test_odd_region_count_rejected():
    with pytest.raises(ConfigError):
        PwaConfig(r=3)
    with pytest.raises(ConfigError):
        PwaConfig(r=0)


def test_breakpoints_tile_range_and_contain_zero():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = 2 * rng.integers(1, 12)
        c = rng.uniform(0.5, 4.0)
        cap = rng.uniform(0.5, 8.0)
        curve = fit_pwa(c, cap, PwaConfig(r=int(r)))
        bps = curve.breakpoints
        assert bps[0] == -cap and bps[-1] == cap
        assert 0.0 in bps
        lo, hi, _, _ = _regions(curve)
        assert lo.size == r and lo[0] == -cap and hi[-1] == cap
        assert (hi[:-1] == lo[1:]).all()
        assert (lo < hi).all()


def test_max_region_error_examples():
    assert max_region_error(fit_pwa(1.0, 1.0, PwaConfig(r=2))).tolist() == \
        [0.25, 0.25]
    assert max_region_error(PwaCurve(("i", "j"), 1.0, 1.0,
                                     (0.5, 0.5))).tolist() == [0.0]
    assert max_region_error(fit_pwa(2.0, 2.0, PwaConfig(r=2))).tolist() == \
        [0.25, 0.25]


def test_overestimation_and_error_bound():
    rng = np.random.default_rng(7)
    for _ in range(30):
        r = 2 * rng.integers(1, 10)
        c = rng.uniform(0.5, 4.0)
        cap = rng.uniform(0.5, 8.0)
        curve = fit_pwa(c, cap, PwaConfig(r=int(r)))
        errors = max_region_error(curve)
        assert errors.shape == (r,)
        for lo, hi, a, b, bound in zip(*_regions(curve), errors):
            phis = rng.uniform(lo, hi, size=40)
            gap = a * phis + b - phis * phis / (c * c)
            assert (gap >= -1e-12).all()
            assert (gap <= bound + 1e-12).all()
            # bound attained at the midpoint
            mid = 0.5 * (lo + hi)
            attained = a * mid + b - mid * mid / (c * c)
            assert attained == pytest.approx(bound, abs=1e-12)


def test_refinement_quarters_error():
    c, cap = 2.5, 6.0
    for r in (2, 4, 8, 16):
        e_r = max_region_error(fit_pwa(c, cap, PwaConfig(r=r)))
        e_2r = max_region_error(fit_pwa(c, cap, PwaConfig(r=2 * r)))
        assert e_2r[0] == pytest.approx(e_r[0] / 4.0, rel=1e-12)
        assert e_2r == pytest.approx(np.repeat(e_r, 2) / 4.0, rel=1e-12)


def test_exact_at_breakpoints():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = 2 * rng.integers(1, 12)
        c = rng.uniform(0.5, 4.0)
        cap = rng.uniform(0.5, 8.0)
        lo, hi, a, b = _regions(fit_pwa(c, cap, PwaConfig(r=int(r))))
        for bp in (lo, hi):
            assert (np.abs(a * bp + b - bp * bp / (c * c)) <= 1e-12).all()


def test_mirror_region():
    curve = fit_pwa(1.0, 1.0, PwaConfig(r=4))
    assert [curve.mirror_region(m) for m in (1, 2, 3, 4)] == [4, 3, 2, 1]


def test_breakpoints_are_exactly_antisymmetric():
    """The upper half of the grid is the negated lower half, bit for bit,
    so the region of ``-phi`` is ``mirror_region`` of the region of ``phi``
    even at a breakpoint. Built as ``-phi_cap + k * width`` throughout,
    1797 of these 2000 grids were not."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        r = 2 * int(rng.integers(1, 33))
        cap = float(rng.uniform(1.0, 500.0))
        bp = np.array(fit_pwa(1.0, cap, PwaConfig(r=r)).breakpoints)
        assert np.array_equal(bp, -bp[::-1]), (r, cap)


# ---------------------------------------------------------------------------
# mixed-logical block emission
# ---------------------------------------------------------------------------

def _emit_pair(r=2, c=1.0, cap=1.0, psi_box=(0.0, 1.0)):
    cfg = PwaConfig(r=r)
    index = pair_index(r)
    bounds = {"i": psi_box, "j": psi_box}
    curve = fit_pwa(c, cap, cfg, pipe=("i", "j"))
    return (index, *emit_mld({("i", "j"): curve}, cfg, index.col, bounds))


def test_block_counts():
    _, ineq, eq = _emit_pair(r=2)
    keys = block_keys(("i", "j"), 2)
    assert [key[1] for key in keys] == [("i", "j")] * 11 + [("j", "i")] * 11
    kinds = [key[0] for key in keys[:11]]
    assert sum(k in ("dpsi", "alpha", "beta", "dm") for k in kinds) == 7
    assert sum(k in ("ypsi", "ym") for k in kinds) == 3
    # 2 + 2 + 7r + 4r + 4 inequality rows per orientation
    assert list(np.bincount(ineq.owner)) == [8 + 11 * 2] * 2
    # simplex everywhere; pair-level equalities only on the stored orientation
    assert list(np.bincount(eq.owner)) == [4, 1]
    labels = [key_label(eq.keys[k]) for k in np.flatnonzero(eq.owner == 0)]
    assert any(l.startswith("pwa_flow") for l in labels)
    assert any(l.startswith("reciprocity") for l in labels)
    assert any(l.startswith("dpsi_link") for l in labels)


def test_region_logic_row_rejects_delta_without_alpha():
    index, ineq, _ = _emit_pair(r=2)
    x = np.zeros(len(index))
    x[index.col("dm", ("i", "j"), 1)] = 1.0
    x[index.col("alpha", ("i", "j"), 1)] = 0.0
    k = [key_label(key) for key in ineq.keys].index("reg_and_a[i->j,1]")
    assert row_values(ineq, x)[k] > ineq.rhs[k]  # -alpha + delta <= 0 is violated


def test_truth_table_point_satisfies_every_row():
    """A consistent integral assignment at phi=0.5, psi=(0.75, 0.25)
    satisfies both orientations' blocks and the pair equalities exactly."""
    index, ineq, eq = _emit_pair(r=2, c=1.0, cap=1.0, psi_box=(0.0, 1.0))
    x = np.zeros(len(index))

    def put(kind, owner, val, m=None):
        x[index.col(kind, owner, m)] = val

    put("psi", "i", 0.75)
    put("psi", "j", 0.25)
    key, mirror = ("i", "j"), ("j", "i")
    put("phi", key, 0.5)
    put("dpsi", key, 1.0)
    put("ym", key, 0.0, 1)
    put("ym", key, 0.5, 2)
    put("ypsi", key, 0.75)
    for m, (a, b, d) in enumerate([(0, 1, 0), (1, 1, 1)], start=1):
        put("alpha", key, a, m)
        put("beta", key, b, m)
        put("dm", key, d, m)
    put("phi", mirror, -0.5)
    put("dpsi", mirror, 0.0)
    put("ym", mirror, -0.5, 1)
    put("ym", mirror, 0.0, 2)
    put("ypsi", mirror, 0.0)
    for m, (a, b, d) in enumerate([(1, 1, 1), (1, 0, 0)], start=1):
        put("alpha", mirror, a, m)
        put("beta", mirror, b, m)
        put("dm", mirror, d, m)

    assert ineq.owner.max() == eq.owner.max() == 1    # both orientations
    above = row_values(ineq, x) > ineq.rhs + 1e-12
    assert [key_label(k) for k, bad in zip(ineq.keys, above) if bad] == []
    off = np.abs(row_values(eq, x) - eq.rhs) > 1e-12
    assert [key_label(k) for k, bad in zip(eq.keys, off) if bad] == []


def test_missing_bounds_rejected():
    cfg = PwaConfig(r=2)
    index = pair_index(2)
    curve = fit_pwa(1.0, 1.0, cfg)
    bounds = {"i": (0.0, np.inf), "j": (0.0, 1.0)}
    with pytest.raises(MissingBounds, match=re.escape("psi_max[i]")):
        emit_mld({("i", "j"): curve}, cfg, index.col, bounds)
