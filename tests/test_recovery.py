import numpy as np
import pytest

import ogpf
from ogpf.errors import OutOfRange
from ogpf.mipbuild import check_point
from ogpf.pwa import (PwaConfig, config_columns, fit_pwa, key_label,
                      max_region_error, orientation_regions)
from ogpf.recovery import (build_pressure_lp, max_abs_deviation,
                           mean_abs_deviation, recover_binaries,
                           solve_pressure_lp, weymouth_deviation)
from ogpf.twostage import solve_two_stage

from conftest import emit_pair, pair_index, row_values


def _pair_curves(r=2, c=1.0, cap=1.0, eps=1e-6):
    cfg = PwaConfig(r=r, epsilon=eps)
    return {
        ("i", "j"): fit_pwa(c, cap, cfg, pipe=("i", "j")),
        ("j", "i"): fit_pwa(c, cap, cfg, pipe=("j", "i")),
    }


def _binaries(config, curves):
    """The column values a configuration implies, keyed ``(kind, owner,
    m)``."""
    fixed, _ = config_columns(config, curves,
                              lambda kind, owner, m=None: (kind, owner, m))
    return fixed


def test_recover_positive_interior_flow():
    curves = _pair_curves()
    config = recover_binaries({("i", "j"): 0.4, ("j", "i"): -0.4}, curves)
    assert config == {("i", "j"): 2}
    v = _binaries(config, curves)
    key = ("i", "j")
    assert v[("dpsi", key, None)] == 1
    assert [v[("dm", key, m)] for m in (1, 2)] == [0, 1]
    assert [v[("alpha", key, m)] for m in (1, 2)] == [0, 1]
    assert [v[("beta", key, m)] for m in (1, 2)] == [1, 1]


def test_recover_zero_flow_takes_sign_side():
    curves = _pair_curves()
    config = recover_binaries({("i", "j"): 0.0, ("j", "i"): 0.0}, curves)
    assert config == {("i", "j"): 2}
    v = _binaries(config, curves)
    assert v[("dpsi", ("i", "j"), None)] == 1
    # mirror takes the complementary side
    assert v[("dpsi", ("j", "i"), None)] == 0
    assert [v[("dm", ("j", "i"), m)] for m in (1, 2)] == [1, 0]


def test_recover_mirror_pair_links():
    curves = _pair_curves()
    config = recover_binaries({("i", "j"): -0.4, ("j", "i"): 0.4}, curves)
    v = _binaries(config, curves)
    assert v[("dpsi", ("i", "j"), None)] == 0
    assert v[("dpsi", ("j", "i"), None)] == 1


def test_recover_rejects_out_of_range_flow():
    curves = _pair_curves()
    with pytest.raises(OutOfRange):
        recover_binaries({("i", "j"): 1.5, ("j", "i"): -1.5}, curves)


def _pair_rows(curves, cfg, index, bounds, c=1.0, cap=1.0):
    """The rows ``emit_mld`` emits for both orientations of pipe i-j: the
    inequality rows, then the equality rows."""
    return emit_pair(index, curves, cfg, bounds, c, cap)


def _point(config, curves, index, phi, psi):
    """The point a configuration implies at flow ``phi`` on i-j and
    pressures ``psi``: binaries fixed, product auxiliaries evaluated."""
    fixed, aliases = config_columns(config, curves, index.col)
    x = np.zeros(len(index))
    x[index.col("phi", ("i", "j"))] = phi
    x[index.col("phi", ("j", "i"))] = -phi
    for node, val in psi.items():
        x[index.col("psi", node)] = val
    for j, val in fixed.items():
        x[j] = val
    for j, (src, coef) in aliases.items():
        x[j] = coef * x[src]
    return x


def _violated(rows, x, kinds):
    """Kinds among ``kinds`` with an emitted row that ``x`` violates."""
    bad = set()
    for block, is_eq in zip(rows, (False, True)):
        value = row_values(block, x)
        ok = value == block.rhs if is_eq else value <= block.rhs
        bad.update(key[0] for key, good in zip(block.keys, ok)
                   if key[0] in kinds and not good)
    return bad


_BINARY_ONLY = {"reg_and_a", "reg_and_b", "reg_and_c", "simplex", "dpsi_link"}


@pytest.mark.parametrize("broken, message", [
    ({"deltas": [1, 1]}, "region simplex"),
    ({"alphas": [0, 0]}, "region logic"),
    ({"delta_psi": 1}, "sign link"),
])
def test_validate_raises_model_error(broken, message):
    """The binary-only rows ``emit_mld`` emits accept the binaries of a
    recovered configuration and reject each broken invariant of the mirror
    orientation: two active regions, an ``alpha`` below the active region,
    and both orientations claiming the sign."""
    kinds = {"region simplex": {"simplex"},
             "region logic": {"reg_and_a", "reg_and_b", "reg_and_c"},
             "sign link": {"dpsi_link"}}[message]
    curves = _pair_curves()
    index = pair_index(2)
    bounds = {"i": (0.0, 2.0), "j": (0.0, 2.0)}
    rows = _pair_rows(curves, PwaConfig(r=2, epsilon=1e-6), index, bounds)
    config = recover_binaries({("i", "j"): 0.4, ("j", "i"): -0.4}, curves)
    x = _point(config, curves, index, 0.4, {"i": 0.7, "j": 0.2})
    assert _violated(rows, x, _BINARY_ONLY) == set()
    mirror = ("j", "i")
    columns = {"deltas": [index.col("dm", mirror, m) for m in (1, 2)],
               "alphas": [index.col("alpha", mirror, m) for m in (1, 2)],
               "delta_psi": [index.col("dpsi", mirror)]}
    for name, values in broken.items():
        x[columns[name]] = values
    assert _violated(rows, x, _BINARY_ONLY) & kinds


def test_recovered_binaries_satisfy_logic_everywhere():
    """The six region-logic inequalities hold for any in-range flow."""
    rng = np.random.default_rng(21)
    for _ in range(120):
        r = int(2 * rng.integers(1, 9))
        cap = float(rng.uniform(0.5, 5.0))
        curves = _pair_curves(r=r, c=float(rng.uniform(0.5, 3.0)), cap=cap)
        phi = float(rng.uniform(-cap, cap))
        if rng.random() < 0.15:  # hit breakpoints on purpose
            bp = curves[("i", "j")].breakpoints
            phi = float(bp[rng.integers(0, len(bp))])
        config = recover_binaries({("i", "j"): phi, ("j", "i"): -phi}, curves)
        v = _binaries(config, curves)
        signs = 0
        for key in (("i", "j"), ("j", "i")):
            deltas, alphas, betas = (
                np.array([v[(kind, key, m)] for m in range(1, r + 1)])
                for kind in ("dm", "alpha", "beta"))
            assert deltas.sum() == 1
            assert ((alphas - deltas) >= 0).all()
            assert ((betas - deltas) >= 0).all()
            assert ((alphas + betas - deltas) <= 1).all()
            signs += v[("dpsi", key, None)]
        assert signs == 1


def test_update_aux_products():
    """The product auxiliaries of a configuration evaluate to the pressure
    at the from node under the sign binary and to the flow on the active
    region."""
    curves = _pair_curves()
    index = pair_index(2)
    config = recover_binaries({("i", "j"): 0.4, ("j", "i"): -0.4}, curves)
    x = _point(config, curves, index, 0.4, {"i": 0.7, "j": 0.2})
    assert x[index.col("ypsi", ("i", "j"))] == 0.7   # delta_psi = 1
    assert x[index.col("ypsi", ("j", "i"))] == 0.0   # delta_psi = 0
    assert [x[index.col("ym", ("i", "j"), m)] for m in (1, 2)] == [0.0, 0.4]
    assert [x[index.col("ym", ("j", "i"), m)] for m in (1, 2)] == [-0.4, 0.0]


def test_recovered_configuration_satisfies_emitted_rows():
    """For any in-range flow, breakpoints included, the binaries and
    auxiliaries the recovered configuration implies satisfy the binary-only
    rows ``emit_mld`` emits for the pipe pair exactly: region logic, simplex
    and sign link. Away from the breakpoints' epsilon bands they satisfy the
    flow-sign, region and product rows too."""
    away_only = {"flow_sign_up", "flow_sign_dn", "reg_hi_up", "reg_hi_dn",
                 "reg_lo_up", "reg_lo_dn", "prod_f_lb", "prod_f_ub",
                 "prod_f_cap", "prod_f_floor", "prod_p_lb", "prod_p_ub",
                 "prod_p_cap", "prod_p_floor"}
    key, mirror = ("i", "j"), ("j", "i")
    rng = np.random.default_rng(21)
    checked = {"breakpoint": 0, "away": 0}
    for _ in range(40):
        r = int(2 * rng.integers(1, 9))
        c = float(rng.uniform(0.5, 3.0))
        cap = float(rng.uniform(0.5, 5.0))
        eps = 10.0 ** rng.uniform(-7, -4)
        curves = _pair_curves(r=r, c=c, cap=cap, eps=eps)
        index = pair_index(r)
        lo_i, lo_j = rng.uniform(0.0, 2.0, size=2)
        bounds = {"i": (lo_i, lo_i + rng.uniform(1.0, 5.0)),
                  "j": (lo_j, lo_j + rng.uniform(1.0, 5.0))}
        rows = _pair_rows(curves, PwaConfig(r=r, epsilon=eps), index,
                          bounds, c=c, cap=cap)
        assert {key[0] for block in rows
                for key in block.keys} >= _BINARY_ONLY | away_only

        breaks = np.array(curves[key].breakpoints)
        near = np.concatenate([breaks - 0.5 * eps, breaks + 0.5 * eps])
        flows = np.concatenate([breaks, np.clip(near, -cap, cap),
                                rng.uniform(-cap, cap, size=20)])
        for phi in flows:
            config = recover_binaries({key: phi, mirror: -phi}, curves)
            x = _point(config, curves, index, phi,
                       {"i": rng.uniform(*bounds["i"]),
                        "j": rng.uniform(*bounds["j"])})
            assert _violated(rows, x, _BINARY_ONLY) == set(), (phi, config)
            away = np.abs(breaks - phi).min() > eps
            checked["away" if away else "breakpoint"] += 1
            if away:
                # every row of these kinds is an inequality
                ineq = rows[0]
                above = row_values(ineq, x) > ineq.rhs + 1e-9
                assert [key_label(key) for key, bad in zip(ineq.keys, above)
                        if bad and key[0] in away_only] == [], (phi, config)
    assert checked["breakpoint"] > 0 and checked["away"] > 0


# ---------------------------------------------------------------------------
# pressure problem
# ---------------------------------------------------------------------------

def _configuration(curves, flows):
    return recover_binaries(flows, curves)


def test_pressure_lp_rows_follow_sign_binary():
    curves = _pair_curves()
    bounds = {"i": (0.0, 2.0), "j": (0.0, 2.0)}
    # positive oriented flow: +1 at the from node, -1 at the to node
    config = _configuration(curves, {("i", "j"): 0.4, ("j", "i"): -0.4})
    lp = build_pressure_lp(config, {("i", "j"): 0.4, ("j", "i"): -0.4},
                           curves, bounds)
    k = lp.pipes.index(("i", "j"))
    assert lp.e_rows[k].tolist() == [1.0, -1.0]
    # active segment is the unit chord: theta = a*phi + b = 0.4
    assert lp.theta[k] == pytest.approx(0.4)
    # a nonpositive flow flips the sign binary and hence the row
    config = _configuration(curves, {("i", "j"): -0.4, ("j", "i"): 0.4})
    lp = build_pressure_lp(config, {("i", "j"): -0.4, ("j", "i"): 0.4},
                           curves, bounds)
    k = lp.pipes.index(("i", "j"))
    assert _binaries(config, curves)[("dpsi", ("i", "j"), None)] == 0
    assert lp.e_rows[k].tolist() == [-1.0, 1.0]
    # the mirror orientation duplicates the same row and target
    km = lp.pipes.index(("j", "i"))
    assert lp.e_rows[km].tolist() == lp.e_rows[k].tolist()
    assert lp.theta[km] == pytest.approx(lp.theta[k])


def test_pressure_lp_feasible_target_reaches_zero():
    curves = _pair_curves()
    bounds = {"i": (0.0, 2.0), "j": (0.0, 2.0)}
    flows = {("i", "j"): np.sqrt(0.5) * np.sqrt(0.5), ("j", "i"): -0.5}
    flows = {("i", "j"): 0.5, ("j", "i"): -0.5}
    config = _configuration(curves, flows)
    lp = build_pressure_lp(config, flows, curves, bounds)
    psi, j = solve_pressure_lp(lp)
    assert j <= 1e-10
    assert psi["i"] - psi["j"] == pytest.approx(lp.theta[0], abs=1e-9)


def test_pressure_lp_box_limited_spread():
    # a single row demanding a drop of 3 inside unit boxes leaves residual 2
    from ogpf.recovery import PressureLp
    lp = PressureLp(["i", "j"], [("i", "j")], np.array([[1.0, -1.0]]),
                    np.array([3.0]), np.array([0.0, 0.0]),
                    np.array([1.0, 1.0]))
    psi, j = solve_pressure_lp(lp)
    assert j == pytest.approx(2.0, abs=1e-9)
    assert psi["i"] == pytest.approx(1.0, abs=1e-9)
    assert psi["j"] == pytest.approx(0.0, abs=1e-9)


def test_pressure_lp_zero_targets():
    from ogpf.recovery import PressureLp
    lp = PressureLp(["i", "j"], [("i", "j")], np.array([[1.0, -1.0]]),
                    np.array([0.0]), np.array([0.5, 0.5]),
                    np.array([2.0, 2.0]))
    psi, j = solve_pressure_lp(lp)
    assert j <= 1e-10


def test_pressure_lp_matches_direct_norm_evaluation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        rows = np.zeros((k, n))
        for row in rows:
            i, j = rng.choice(n, size=2, replace=False)
            s = rng.choice([-1.0, 1.0])
            row[i], row[j] = s, -s
        from ogpf.recovery import PressureLp
        lo = rng.uniform(0.0, 1.0, size=n)
        lp = PressureLp([f"n{t}" for t in range(n)],
                        [("a", str(t)) for t in range(k)], rows,
                        rng.uniform(-2, 2, size=k), lo, lo + rng.uniform(0.5, 2, size=n))
        psi, j = solve_pressure_lp(lp)
        vec = np.array([psi[f"n{t}"] for t in range(n)])
        assert j == pytest.approx(float(np.abs(rows @ vec - lp.theta).max()),
                                  abs=1e-9)


# ---------------------------------------------------------------------------
# certification and deviations
# ---------------------------------------------------------------------------

def test_certified_point_passes_independent_check(instances):
    res = solve_two_stage(instances["small2area"], 2)
    assert res.certificate.is_optimal
    rep = check_point(res.model, res.recovery.u_star, 1e-6,
                      check_integrality=True)
    assert rep.ok, rep.worst
    # objective is untouched by stage 2
    assert res.model.objective(res.recovery.u_star) == res.solution.objective


def test_stage1_components_survive_bitwise(instances):
    res = solve_two_stage(instances["chain2area"], 2)
    index = res.index
    x0, xs = res.solution.x, res.recovery.u_star
    for kind in ("p", "dgu", "theta", "gs"):
        for j in index.columns(kind):
            assert xs[j] == x0[j]
    # tie flows survive too
    assert xs[index.col("phi", ("n2", "n3"))] == x0[index.col("phi", ("n2", "n3"))]


def test_cycle_instance_certifies_approximate(instances):
    res = solve_two_stage(instances["loop1area"], 2)
    assert res.certificate.kind == "Approximate"
    assert res.certificate.bound == res.j_psi
    assert res.j_psi > 1e-8


def test_weymouth_deviation_examples():
    dev = weymouth_deviation({("i", "j"): 2.0}, {"i": 4.0, "j": 0.0},
                             {("i", "j"): 1.0})
    assert dev[("i", "j")] == {"value": 0.0, "kind": "relative"}
    dev = weymouth_deviation({("i", "j"): 2.2}, {"i": 4.0, "j": 0.0},
                             {("i", "j"): 1.0})
    assert dev[("i", "j")]["value"] == pytest.approx(0.1)
    dev = weymouth_deviation({("i", "j"): 0.05}, {"i": 1.0, "j": 1.0},
                             {("i", "j"): 1.0})
    assert dev[("i", "j")] == {"value": 0.05, "kind": "absolute"}


def test_deviation_aggregates_skip_absolute_entries():
    dev = {("a", "b"): {"value": -0.2, "kind": "relative"},
           ("b", "c"): {"value": 0.1, "kind": "relative"},
           ("c", "d"): {"value": 40.0, "kind": "absolute"}}
    assert mean_abs_deviation(dev) == pytest.approx(0.15)
    assert max_abs_deviation(dev) == pytest.approx(0.2)
    only_absolute = {("c", "d"): {"value": 40.0, "kind": "absolute"}}
    assert mean_abs_deviation(only_absolute) == 0.0
    assert max_abs_deviation(only_absolute) == 0.0


def test_deviation_consistency_with_certificate(instances):
    """With a zero pressure objective, the drop equals the active chord
    value, so it can exceed the true square law by at most the region's
    worst-case chord gap."""
    res = solve_two_stage(instances["small2area"], 4)
    assert res.certificate.is_optimal
    index = res.index
    psi = res.recovery.psi_tilde
    edges = ogpf.classify_edges(instances["small2area"])
    from ogpf.mipbuild import fit_all_curves
    curves = fit_all_curves(instances["small2area"], PwaConfig(r=4))
    regions = {key: m for key, m, _ in
               orientation_regions(res.recovery.configuration, curves)}
    for dp in edges.internal_pipes_directed:
        phi = res.solution.x[index.col("phi", dp.key)]
        drop = abs(psi[dp.from_node] - psi[dp.to_node])
        seg = curves[dp.key].segments[regions[dp.key] - 1]
        gap = abs(phi * phi / dp.weymouth_c ** 2 - drop)
        assert gap <= max_region_error(seg, dp.weymouth_c) + 1e-7
