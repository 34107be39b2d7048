import dataclasses
import hashlib

import numpy as np
import pytest

import ogpf
from ogpf import recovery
from ogpf.errors import OutOfRange
from ogpf.mipbuild import (build_model, check_point, config_model,
                           dump_model, fit_all_curves, hull_model)
from ogpf.pwa import (PwaConfig, config_columns, emit_mld, fit_pwa,
                      key_label, max_region_error, orientation_regions)
from ogpf.recovery import (assemble_and_certify, build_pressure_lp,
                           max_abs_deviation, mean_abs_deviation,
                           recover_binaries, solve_pressure_lp,
                           weymouth_deviation)
from ogpf.twostage import solve_two_stage

from conftest import (BUNDLED, direct_lp, expand_point, generator,
                      make_instance, pair_index, row_values)

TREES = [name for name in BUNDLED if name != "loop1area"]


def _pair_curves(r=2, c=1.0, cap=1.0, eps=1e-6):
    return {("i", "j"): fit_pwa(c, cap, PwaConfig(r=r, epsilon=eps),
                                pipe=("i", "j"))}


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
    rows = emit_mld(curves, PwaConfig(r=2, epsilon=1e-6), index.col, bounds)
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
        rows = emit_mld(curves, PwaConfig(r=r, epsilon=eps), index.col,
                        bounds)
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

def _pipe_lp(phi):
    """The pressure LP of a one-pipe instance (n1 -> n2, c_f 8, cap 150) at
    r=2, with flow ``phi`` on n1 -> n2."""
    hull, hull_index = hull_model(make_instance(), PwaConfig(r=2))
    flows = {("n1", "n2"): phi, ("n2", "n1"): -phi}
    config = recover_binaries(flows, hull_index.curves)
    model, index = config_model(hull, hull_index, config)
    return build_pressure_lp(np.zeros(model.num_vars), flows, model=model,
                             index=index), config, index


def test_pressure_lp_rows_follow_sign_binary():
    # one row per pipe, the configuration model's flow equality
    # a phi - s (psi_i - psi_j) = -b, with s the sign of the flow; the
    # target is minus the active chord value, 40 * 150 / 64 on either
    # region of the r=2 fit
    lp, config, index = _pipe_lp(40.0)
    assert lp.nodes == ["n1", "n2"]
    assert [index.name(j) for j in lp.columns] == ["psi[n1]", "psi[n2]"]
    assert lp.a.toarray().tolist() == [[-1.0, 1.0]]
    assert lp.b.tolist() == [-93.75]
    # the flows are fixed at the ones given, the pressures left free
    assert lp.point[index.col("phi", ("n1", "n2"))] == 40.0
    assert lp.point[index.col("phi", ("n2", "n1"))] == -40.0
    # a nonpositive flow flips the sign binary and hence the row
    lp, config, index = _pipe_lp(-40.0)
    assert _binaries(config, index.curves)[("dpsi", ("n1", "n2"), None)] == 0
    assert lp.a.toarray().tolist() == [[1.0, -1.0]]
    assert lp.b.tolist() == [-93.75]


def test_pressure_lp_feasible_target_reaches_zero():
    lp, _, _ = _pipe_lp(40.0)
    psi, j = solve_pressure_lp(lp)
    assert j <= 1e-10
    assert psi[0] - psi[1] == pytest.approx(93.75, abs=1e-9)


def test_pressure_lp_box_limited_spread():
    # a single row demanding a drop of 3 inside unit boxes leaves residual 2
    lp = direct_lp(np.array([[1.0, -1.0]]), np.array([3.0]),
                   np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    psi, j = solve_pressure_lp(lp)
    assert j == pytest.approx(2.0, abs=1e-9)
    assert psi[0] == pytest.approx(1.0, abs=1e-9)
    assert psi[1] == pytest.approx(0.0, abs=1e-9)


def test_pressure_lp_zero_targets():
    lp = direct_lp(np.array([[1.0, -1.0]]), np.array([0.0]),
                   np.array([0.5, 0.5]), np.array([2.0, 2.0]))
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
        lo = rng.uniform(0.0, 1.0, size=n)
        theta = rng.uniform(-2, 2, size=k)
        psi, j = solve_pressure_lp(direct_lp(
            rows, theta, lo, lo + rng.uniform(0.5, 2, size=n)))
        assert j == pytest.approx(float(np.abs(rows @ psi - theta).max()),
                                  abs=1e-9)


def _refuse_highs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pressure problem reached HiGHS")
    monkeypatch.setattr(recovery, "linprog", refuse)


def _count_highs(monkeypatch):
    """Count the pressure problem's HiGHS calls; the list grows by one per
    call."""
    calls = []
    real = recovery.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(recovery, "linprog", counted)
    return calls


def test_forest_components_take_their_lowest_offset(monkeypatch):
    """Two components and an isolated node: each component sits at the
    lowest offset its boxes allow, which puts one of its nodes on its lower
    bound, and the isolated node sits at its lower bound. A problem without
    rows is all isolated nodes, a negative lower bound included."""
    _refuse_highs(monkeypatch)
    # psi0 - psi1 = 2 and psi2 - psi1 = 1 (signs flipped), psi3 - psi4 = -0.5
    rows = np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, -1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, -1.0, 0.0]])
    lo = np.array([0.0, 0.5, 0.0, 1.0, 0.0, 0.25])
    psi, j = solve_pressure_lp(direct_lp(rows, np.array([2.0, -1.0, -0.5]),
                                         lo, np.full(6, 10.0)))
    assert psi.tolist() == [2.5, 0.5, 1.5, 1.0, 1.5, 0.25]
    assert j == 0.0
    lo = np.array([-2.0, 0.0, 3.0])
    psi, j = solve_pressure_lp(direct_lp(np.zeros((0, 3)), np.zeros(0), lo,
                                         np.full(3, 10.0)))
    assert psi.tolist() == lo.tolist() and j == 0.0


@pytest.mark.parametrize("rows, theta, lo, hi, norm", [
    # two parallel rows over one pair: a cycle of length two
    ([[1.0, -1.0], [1.0, -1.0]], [1.0, 2.0], [0.0, 0.0], [10.0, 10.0], 0.5),
    # one tree row whose boxes leave no offset
    ([[1.0, -1.0]], [3.0], [0.0, 0.0], [1.0, 1.0], 2.0),
], ids=["parallel rows", "no offset"])
def test_pressure_problems_off_the_forest_rule_solve_the_lp(
        monkeypatch, rows, theta, lo, hi, norm):
    calls = _count_highs(monkeypatch)
    psi, j = solve_pressure_lp(direct_lp(np.array(rows), np.array(theta),
                                         np.array(lo), np.array(hi)))
    assert len(calls) == 1
    assert j == pytest.approx(norm, abs=1e-9)


# generated trees, seed 1: (areas, nodes per area)
GENERATED_TREES = {"tree-A2-npa4": (2, 4), "tree-A4-npa8": (4, 8),
                   "tree-A8-npa16": (8, 16)}


@pytest.mark.parametrize("name, r, stage1", [
    (name, r, stage1) for name in TREES for r in (2, 4, 8, 16)
    for stage1 in ("hull", "bigm")] + [
    (name, 16, "hull") for name in GENERATED_TREES])
def test_propagated_pressures_match_the_lp(instances, monkeypatch, name, r,
                                           stage1):
    """On trees with slack pressure boxes the propagated pressures are the
    vertex HiGHS returns, and the certificate is the same."""
    if name in GENERATED_TREES:
        areas, npa = GENERATED_TREES[name]
        inst = generator().generate(1, num_areas=areas, nodes_per_area=npa)
    else:
        inst = instances[name]
    with monkeypatch.context() as m:
        m.setattr(recovery, "propagate_pressures", lambda lp: None)
        ref = solve_two_stage(inst, r, stage1=stage1)
    _refuse_highs(monkeypatch)
    res = solve_two_stage(inst, r, stage1=stage1)
    assert res.certificate.kind == ref.certificate.kind
    assert res.certificate.bound == pytest.approx(ref.certificate.bound,
                                                  rel=0, abs=1e-12)
    assert list(res.recovery.psi_tilde) == list(ref.recovery.psi_tilde)
    assert list(res.recovery.psi_tilde.values()) == pytest.approx(
        list(ref.recovery.psi_tilde.values()), rel=0, abs=1e-12)


@pytest.mark.parametrize("mode", ["centralized", "consensus"])
@pytest.mark.parametrize("name", TREES)
def test_bundled_trees_certify_without_highs(instances, monkeypatch, name,
                                             mode):
    _refuse_highs(monkeypatch)
    assert solve_two_stage(instances[name], 4, mode=mode).certificate.kind \
        == "Optimal"


# the outcome at r=4, certificate bound and pressures, where the pressure
# problem is not a forest whose boxes admit an offset
FALLBACK = {
    "loop1area": (0.8935394559351977,
                  [48.1743177288069, 3.824608298652666, 1.0]),
    "binding-tree": (5.915990249518973,
                     [30.0, 1.3694083234181522, 1.0, 6.007782007622652,
                      27.860931785133662, 15.168446451409686,
                      15.260226329771424, 1.0]),
}


@pytest.mark.parametrize("name", list(FALLBACK))
def test_cycles_and_binding_boxes_solve_one_lp(instances, monkeypatch, name):
    """The cycle ``loop1area``, and the generated 2-area tree of seed 1 with
    every ``psi_max`` lowered to 30, whose propagated pressures do not fit
    the boxes: the pressure problem goes to HiGHS once, and the solve
    certifies Approximate."""
    if name == "binding-tree":
        base = generator().generate(1, num_areas=2, nodes_per_area=4)
        inst = dataclasses.replace(base, gas_nodes=tuple(
            dataclasses.replace(nd, psi_max=30.0) for nd in base.gas_nodes))
    else:
        inst = instances[name]
    bound, psi = FALLBACK[name]
    calls = _count_highs(monkeypatch)
    res = solve_two_stage(inst, 4)
    assert len(calls) == 1
    assert res.certificate.kind == "Approximate"
    assert res.certificate.bound == pytest.approx(bound, rel=1e-9)
    assert list(res.recovery.psi_tilde.values()) == pytest.approx(
        psi, rel=0, abs=1e-9)


# ---------------------------------------------------------------------------
# certification and deviations
# ---------------------------------------------------------------------------

def test_certified_point_passes_independent_check(instances):
    inst = instances["small2area"]
    res = solve_two_stage(inst, 2)
    assert res.certificate.is_optimal
    # on the paper's model: the point expanded onto the big-M columns
    model, index = build_model(inst, PwaConfig(r=2))
    x = expand_point(res.recovery.u_star, res.index,
                     res.recovery.configuration, index)
    rep = check_point(model, x, 1e-6, check_integrality=True)
    assert rep.ok, rep.worst
    # objective is untouched by stage 2
    assert res.model.objective(res.recovery.u_star) == res.solution.objective


@pytest.mark.parametrize("name", BUNDLED)
def test_configuration_check_matches_the_big_m_check(instances, name):
    """The configuration model's check of a point and the big-M check of
    its expansion give the same verdict: on the certified outputs, which
    pass, the same points with one pressure shifted by 1, which fail, and
    with one flow moved into the epsilon band of its region's breakpoint."""
    inst = instances[name]
    eps = 1e-6
    checked = 0
    for r in (2, 4, 8, 16):
        res = solve_two_stage(inst, r)
        if not res.certificate.is_optimal:
            continue
        model, index = build_model(inst, PwaConfig(r=r))
        config = res.recovery.configuration
        pipe = next(iter(config))
        curve, m = index.curves[pipe], config[pipe]
        lo, hi = curve.breakpoints[m - 1:m + 1]
        phi = lo + eps / 2 if m > 1 else hi - eps / 2
        shifted, banded = (res.recovery.u_star.copy() for _ in range(2))
        shifted[res.index.columns("psi")[0]] += 1.0
        banded[res.index.col("phi", pipe)] = phi
        banded[res.index.col("phi", pipe[::-1])] = -phi
        ok = {}
        for label, x in (("certified", res.recovery.u_star),
                         ("shifted", shifted), ("banded", banded)):
            big = expand_point(x, res.index, config, index)
            for tol in (1e-6, 1e-7):
                ok[label, tol] = check_point(res.model, x, tol).ok
                assert ok[label, tol] == check_point(
                    model, big, tol, check_integrality=True).ok, (r, label)
        # the certificate's tolerance passes the certified point; the band
        # reaches 5e-7 past the region's box
        assert ok["certified", 1e-6] and not ok["banded", 1e-7], r
        assert not ok["shifted", 1e-6] and not ok["shifted", 1e-7], r
        checked += 1
    assert checked > 0


def test_a_flow_in_the_epsilon_band_fails_both_checks():
    """A one-pipe instance whose flow, 75 + 5e-7, lies half an epsilon past
    the breakpoint 75 of the r=4 grid: stage 2 closes the flow equality,
    and only the region's box (``lo + epsilon`` in the configuration model,
    the region rows in the big-M model) separates the verdicts at 1e-6
    and 1e-7."""
    inst = make_instance(gas_nodes=[ogpf.GasNode("n1", 1, 10.0, 1.0, 900.0),
                                    ogpf.GasNode("n2", 1, 75.0 + 5e-7, 1.0,
                                                 900.0)])
    res = solve_two_stage(inst, 4)
    assert res.recovery.configuration == {("n1", "n2"): 4}
    assert res.certificate.is_optimal
    model, index = build_model(inst, PwaConfig(r=4))
    x = res.recovery.u_star
    big = expand_point(x, res.index, res.recovery.configuration, index)
    for tol, ok in ((1e-6, True), (1e-7, False)):
        assert check_point(res.model, x, tol).ok == ok
        assert check_point(model, big, tol, check_integrality=True).ok == ok


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
    # at r=2 the chord graph is one line, and the hull stage 1 fits the
    # cycle's pressures exactly; from r=4 on it does not
    res = solve_two_stage(instances["loop1area"], 4)
    assert res.certificate.kind == "Approximate"
    assert res.certificate.bound > 1e-8


def test_worst_pipes_list_ties_in_row_order(instances):
    """Mismatches within 1e-9 relative of each other tie, and tied pipes
    come in row order: which pipes a cycle names must not depend on
    rounding at 1e-14. The point is all zeros, so each mismatch is exactly
    its target."""
    hull, hull_index = hull_model(instances["loop1area"], PwaConfig(r=4))
    curves = hull_index.curves
    flows = {key: 10.0 if key[0] < key[1] else -10.0
             for i, j in curves for key in ((i, j), (j, i))}
    config = recover_binaries(flows, curves)
    model, index = config_model(hull, hull_index, config)
    lp = build_pressure_lp(np.zeros(model.num_vars), flows, model=model,
                           index=index)
    lp = dataclasses.replace(lp, point=np.zeros(model.num_vars))
    rows = index.rows("eq", "pwa_flow")
    names = [index.row_name("eq", k) for k in rows]

    def worst(b):
        b_eq = model.b_eq.copy()
        b_eq[rows] = b
        rec = assemble_and_certify(lp, np.zeros(len(lp.nodes)), config, 1e-8,
                                   model=dataclasses.replace(model, b_eq=b_eq),
                                   index=index, feas_tol=1e-6)
        return rec.worst_pipes

    assert worst([1.0, 1.0 + 2e-14, 1.0 + 1e-14]) == [
        [names[0], 1.0], [names[1], 1.0 + 2e-14], [names[2], 1.0 + 1e-14]]
    # beyond the tie tolerance the larger mismatch comes first
    assert worst([1.0, 2.0, 1.0 - 1e-14]) == [
        [names[1], 2.0], [names[0], 1.0], [names[2], 1.0 - 1e-14]]
    assert worst([1.0, -3.0, 1e-9]) == [[names[1], 3.0], [names[0], 1.0]]


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
    curves = fit_all_curves(instances["small2area"], PwaConfig(r=4))
    config = res.recovery.configuration
    for pipe, curve in curves.items():
        for key, m, _ in orientation_regions({pipe: config[pipe]}, curves):
            phi = res.solution.x[index.col("phi", key)]
            drop = abs(psi[key[0]] - psi[key[1]])
            gap = abs(phi * phi / curve.c_f ** 2 - drop)
            assert gap <= max_region_error(curve)[m - 1] + 1e-7


# ---------------------------------------------------------------------------
# pinned stage-2 outcomes of the bundled instances
# ---------------------------------------------------------------------------

# (instance, r): (certificate kind, bound, "i-j:region ...", psi_tilde in
# gas-node order)
PINNED = {
    ("small2area", 2): ("Optimal", 1.1368683772161603e-13,
        "n1-n2:2 n2-n3:2 n4-n5:2",
        (560.2187499998779, 263.0312499999389, 1.0, 227.87500000000267, 1.0)),
    ("small2area", 4): ("Optimal", 5.684341886080802e-14,
        "n1-n2:4 n2-n3:4 n4-n5:4",
        (488.26562499984226, 218.2656249999211, 1.0, 165.5312500000045, 1.0)),
    ("small2area", 8): ("Optimal", 0.0,
        "n1-n2:8 n2-n3:7 n4-n5:7",
        (453.1093749998559, 196.70312499993992, 1.0, 152.7578124999999, 1.0)),
    ("small2area", 16): ("Optimal", 5.684341886080802e-14,
        "n1-n2:15 n2-n3:14 n4-n5:14",
        (448.7148437496964, 196.49804687486085, 1.0, 148.158203125003, 1.0)),
    ("single1area", 2): ("Optimal", 2.842170943040401e-14,
        "n1-n2:2 n2-n3:2",
        (339.90625000005934, 152.87500000002973, 1.0)),
    ("single1area", 4): ("Optimal", 0.0,
        "n1-n2:4 n2-n3:3",
        (181.70312500006412, 76.93750000001604, 1.0)),
    ("single1area", 8): ("Optimal", 0.0,
        "n1-n2:7 n2-n3:6",
        (172.91406250004218, 70.96093750001583, 1.0)),
    ("single1area", 16): ("Optimal", 0.0,
        "n1-n2:13 n2-n3:12",
        (168.5195312500004, 67.97265625000017, 1.0)),
    ("chain2area", 2): ("Optimal", 0.0,
        "n1-n2:2 n3-n4:2 n4-n5:2",
        (274.63281249997794, 1.0, 449.8281249999968, 218.3828124999984, 1.0)),
    ("chain2area", 4): ("Optimal", 0.0,
        "n1-n2:4 n3-n4:4 n4-n5:4",
        (235.6679687499746, 1.0, 322.6796874999971, 151.29296874999852, 1.0)),
    ("chain2area", 8): ("Optimal", 0.0,
        "n1-n2:8 n3-n4:7 n4-n5:7",
        (216.18554687471163, 1.0, 298.36328124995873, 140.89257812497937,
         1.0)),
    ("chain2area", 16): ("Optimal", 0.0,
        "n1-n2:15 n3-n4:14 n4-n5:13",
        (214.94042967916118, 1.0, 289.13476562291464, 135.69238281156157,
         1.0)),
    ("medium3area", 2): ("Optimal", 5.684341886080802e-14,
        "n1-n2:2 n2-n3:2 n4-n5:2 n6-n7:2",
        (560.9999999997897, 270.99999999989484, 1.0, 41.599999999891374, 1.0,
         150.99999999998835, 1.0)),
    ("medium3area", 4): ("Optimal", 0.0,
        "n1-n2:4 n2-n3:4 n4-n5:3 n6-n7:3",
        (440.99999999991564, 205.99999999995782, 1.0, 21.299999999985463, 1.0,
         75.9999999999997, 1.0)),
    ("medium3area", 8): ("Optimal", 5.684341886080802e-14,
        "n1-n2:7 n2-n3:7 n4-n5:5 n6-n7:6",
        (400.99999999915366, 188.49999999957686, 1.0, 11.149999999913707, 1.0,
         63.499999999973795, 1.0)),
    ("medium3area", 16): ("Optimal", 0.0,
        "n1-n2:14 n2-n3:14 n4-n5:9 n6-n7:12",
        (395.99999999970237, 184.74999999985118, 1.0, 6.074999999986436, 1.0,
         57.250000000000114, 1.0)),
    ("loop1area", 2): ("Approximate", 19.479881842675212,
        "n1-n2:2 n2-n3:2 n1-n3:2",
        (104.6076998813744, 1.0, 7.055632138257925)),
    ("loop1area", 4): ("Approximate", 9.262177467987946,
        "n1-n2:3 n2-n3:3 n1-n3:3",
        (52.401277671524184, 1.0, 3.7117469321591834)),
    ("loop1area", 8): ("Approximate", 2.922639033280511,
        "n1-n2:5 n2-n3:5 n1-n3:6",
        (28.56404871372564, 1.3219116740053565, 1.0)),
    ("loop1area", 16): ("Approximate", 1.1760589271146742,
        "n1-n2:10 n2-n3:9 n1-n3:11",
        (25.761109998537922, 1.4332378720834376, 1.0)),
}


@pytest.mark.parametrize("name,r", list(PINNED))
def test_stage2_outcome_is_pinned(instances, name, r):
    kind, bound, config, psi = PINNED[name, r]
    res = solve_two_stage(instances[name], r, stage1="bigm")
    rec = res.recovery
    assert res.certificate.kind == kind
    # bounds of certified runs are rounding noise; 1e-12 floors the relative
    # tolerance there
    assert res.certificate.bound == pytest.approx(bound, rel=1e-12, abs=1e-12)
    assert " ".join(f"{i}-{j}:{m}" for (i, j), m
                    in rec.configuration.items()) == config
    assert list(rec.psi_tilde) == [nd.id for nd in instances[name].gas_nodes]
    assert list(rec.psi_tilde.values()) == pytest.approx(psi, rel=0, abs=1e-12)


# sha256 of dump_model of the configuration model a solve returns, with the
# repr of its certificate bound and objective, recorded while stage 2 still
# rebuilt that model from the instance
CONFIG_MODEL_PINNED = {
    ("small2area", 4, "hull"): ("84bccd61ef9add9cdce4ca020b9972270ec50b3a9bd6a6d03e266080240e6eee",
        0.0, 1.9700000000002416),
    ("small2area", 16, "hull"): ("67e5d9e6708ab75668734dc7cdb43e243b20b22a91fdcbd2f14beb699facbb73",
        0.0, 1.970000000000011),
    ("single1area", 4, "hull"): ("c2635b69925c7854bcf502feb6cf595cb48c36473f00a7377f73375b3c3920aa",
        1.4210854715202004e-14, 0.5112000000271021),
    ("single1area", 16, "hull"): ("ebdc0107045b87c9d461581a2be6321c4cb315957a393e7600a3384c25c4af63",
        0.0, 0.5112000000000041),
    ("chain2area", 4, "hull"): ("55dfd6ee5164d1b6c433f88da92de8372c5be300ba1ab6a95518cecd878ed62d",
        0.0, 1.1328750000000705),
    ("chain2area", 16, "hull"): ("58995a08b68127491947fdc7aeb9155bbc3514671174f615315b176397375cd2",
        0.0, 1.1328750000000483),
    ("medium3area", 4, "hull"): ("dcd94693df2d3934f57ffff85db0aa605653609531f366adc2f0c1612e9341f9",
        0.0, 3.4715500000004402),
    ("medium3area", 16, "hull"): ("44f77d2408a9d3c410902d9432cf289961d88cf1b10d81da0b0f6964a725629c",
        0.0, 3.4715500000004456),
    ("loop1area", 4, "hull"): ("23b8d463bf864872a820fcccf3580f8e913da0768b2886b7b671a49e5d4d7c67",
        0.8935394559351977, 0.5090000000001588),
    ("loop1area", 16, "hull"): ("743a71e9c45f5655338130c922027146bfb533721270ce6bde35514b79e1b029",
        5.3826872165266835, 0.5090000000001189),
    ("small2area", 4, "bigm"): ("84bccd61ef9add9cdce4ca020b9972270ec50b3a9bd6a6d03e266080240e6eee",
        0.0, 1.9700000000000901),
    ("small2area", 16, "bigm"): ("67e5d9e6708ab75668734dc7cdb43e243b20b22a91fdcbd2f14beb699facbb73",
        0.0, 1.9700000000001427),
    ("single1area", 4, "bigm"): ("c2635b69925c7854bcf502feb6cf595cb48c36473f00a7377f73375b3c3920aa",
        1.4210854715202004e-14, 0.5112000000001451),
    ("single1area", 16, "bigm"): ("ebdc0107045b87c9d461581a2be6321c4cb315957a393e7600a3384c25c4af63",
        0.0, 0.511200000000001),
    ("chain2area", 4, "bigm"): ("55dfd6ee5164d1b6c433f88da92de8372c5be300ba1ab6a95518cecd878ed62d",
        0.0, 1.1328750000000414),
    ("chain2area", 16, "bigm"): ("58995a08b68127491947fdc7aeb9155bbc3514671174f615315b176397375cd2",
        0.0, 1.1328750000087966),
    ("medium3area", 4, "bigm"): ("dcd94693df2d3934f57ffff85db0aa605653609531f366adc2f0c1612e9341f9",
        0.0, 3.471550000000089),
    ("medium3area", 16, "bigm"): ("941b20bc5b9dda6932b20371c78b2322beaae617a9c3b37d672a64868370bf99",
        0.0, 3.4715500000001476),
    ("loop1area", 4, "bigm"): ("23b8d463bf864872a820fcccf3580f8e913da0768b2886b7b671a49e5d4d7c67",
        9.262177467987946, 0.5090000000007093),
    ("loop1area", 16, "bigm"): ("743a71e9c45f5655338130c922027146bfb533721270ce6bde35514b79e1b029",
        1.1760589271146742, 0.5090000000001854),
}


@pytest.mark.parametrize("name,r,stage1", list(CONFIG_MODEL_PINNED))
def test_configuration_model_is_pinned(instances, name, r, stage1):
    digest, bound, objective = CONFIG_MODEL_PINNED[name, r, stage1]
    res = solve_two_stage(instances[name], r, stage1=stage1)
    text = dump_model(res.model, res.index)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (repr(res.certificate.bound), repr(res.objective)) == \
        (repr(bound), repr(objective))
