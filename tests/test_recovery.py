import numpy as np
import pytest

import ogpf
from ogpf.errors import ModelError, OutOfRange
from ogpf.mipbuild import check_point
from ogpf.pwa import PwaConfig, fit_pwa, max_region_error
from ogpf.recovery import (BinaryAssignment, PipeBinaries,
                           build_pressure_lp, max_abs_deviation,
                           mean_abs_deviation, recover_binaries,
                           solve_pressure_lp, update_aux,
                           weymouth_deviation)
from ogpf.twostage import solve_two_stage


def _pair_curves(r=2, c=1.0, cap=1.0):
    cfg = PwaConfig(r=r)
    return {
        ("i", "j"): fit_pwa(c, cap, cfg, pipe=("i", "j")),
        ("j", "i"): fit_pwa(c, cap, cfg, pipe=("j", "i")),
    }


def test_recover_positive_interior_flow():
    curves = _pair_curves()
    asg = recover_binaries({("i", "j"): 0.4, ("j", "i"): -0.4}, curves)
    e = asg.entries[("i", "j")]
    assert e.delta_psi == 1
    assert e.deltas.tolist() == [0, 1]
    assert e.alphas.tolist() == [0, 1]
    assert e.betas.tolist() == [1, 1]


def test_recover_zero_flow_takes_sign_side():
    curves = _pair_curves()
    asg = recover_binaries({("i", "j"): 0.0, ("j", "i"): 0.0}, curves)
    e = asg.entries[("i", "j")]
    assert e.delta_psi == 1
    assert e.region == 2
    # mirror takes the complementary side
    m = asg.entries[("j", "i")]
    assert m.delta_psi == 0
    assert m.region == 1


def test_recover_mirror_pair_links():
    curves = _pair_curves()
    asg = recover_binaries({("i", "j"): -0.4, ("j", "i"): 0.4}, curves)
    assert asg.entries[("i", "j")].delta_psi == 0
    assert asg.entries[("j", "i")].delta_psi == 1
    asg.validate()


def test_recover_rejects_out_of_range_flow():
    curves = _pair_curves()
    with pytest.raises(OutOfRange):
        recover_binaries({("i", "j"): 1.5, ("j", "i"): -1.5}, curves)


@pytest.mark.parametrize("broken, message", [
    ({"deltas": [1, 1]}, "region simplex"),
    ({"alphas": [0, 0]}, "region logic"),
    ({"delta_psi": 1}, "sign link"),
])
def test_validate_raises_model_error(broken, message):
    good = {("i", "j"): dict(delta_psi=1, region=2, deltas=[0, 1],
                             alphas=[0, 1], betas=[1, 1]),
            ("j", "i"): dict(delta_psi=0, region=1, deltas=[1, 0],
                             alphas=[1, 1], betas=[1, 0])}
    good[("j", "i")].update(broken)
    entries = {key: PipeBinaries(e["delta_psi"], e["region"],
                                 *(np.array(e[k]) for k in
                                   ("deltas", "alphas", "betas")))
               for key, e in good.items()}
    BinaryAssignment({("i", "j"): entries[("i", "j")]}).validate()
    with pytest.raises(ModelError, match=message):
        BinaryAssignment(entries).validate()


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
        asg = recover_binaries({("i", "j"): phi, ("j", "i"): -phi}, curves)
        asg.validate()
        for key in asg.entries:
            e = asg.entries[key]
            assert e.deltas.sum() == 1
            assert ((e.alphas - e.deltas) >= 0).all()
            assert ((e.betas - e.deltas) >= 0).all()
            assert ((e.alphas + e.betas - e.deltas) <= 1).all()


# ---------------------------------------------------------------------------
# pressure problem
# ---------------------------------------------------------------------------

def _assignment(curves, flows):
    return recover_binaries(flows, curves)


def test_pressure_lp_rows_follow_sign_binary():
    curves = _pair_curves()
    bounds = {"i": (0.0, 2.0), "j": (0.0, 2.0)}
    # positive oriented flow: +1 at the from node, -1 at the to node
    asg = _assignment(curves, {("i", "j"): 0.4, ("j", "i"): -0.4})
    lp = build_pressure_lp(asg, {("i", "j"): 0.4, ("j", "i"): -0.4},
                           curves, bounds)
    k = lp.pipes.index(("i", "j"))
    assert lp.e_rows[k].tolist() == [1.0, -1.0]
    # active segment is the unit chord: theta = a*phi + b = 0.4
    assert lp.theta[k] == pytest.approx(0.4)
    # a nonpositive flow flips the sign binary and hence the row
    asg = _assignment(curves, {("i", "j"): -0.4, ("j", "i"): 0.4})
    lp = build_pressure_lp(asg, {("i", "j"): -0.4, ("j", "i"): 0.4},
                           curves, bounds)
    k = lp.pipes.index(("i", "j"))
    assert asg.entries[("i", "j")].delta_psi == 0
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
    asg = _assignment(curves, flows)
    lp = build_pressure_lp(asg, flows, curves, bounds)
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


def test_update_aux_products():
    curves = _pair_curves()
    flows = {("i", "j"): 0.4, ("j", "i"): -0.4}
    asg = _assignment(curves, flows)
    aux = update_aux(asg, {"i": 0.7, "j": 0.2}, flows)
    assert aux["ypsi"][("i", "j")] == 0.7   # delta_psi = 1
    assert aux["ypsi"][("j", "i")] == 0.0   # delta_psi = 0
    assert aux["ym"][("i", "j")].tolist() == [0.0, 0.4]
    assert aux["ym"][("j", "i")].tolist() == [-0.4, 0.0]


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
    for dp in edges.internal_pipes_directed:
        phi = res.solution.x[index.col("phi", dp.key)]
        drop = abs(psi[dp.from_node] - psi[dp.to_node])
        seg = curves[dp.key].segment_for(phi)
        gap = abs(phi * phi / dp.weymouth_c ** 2 - drop)
        assert gap <= max_region_error(seg, dp.weymouth_c) + 1e-7
