import dataclasses
import hashlib
import json
from itertools import product

import numpy as np
import pytest

import ogpf
import ogpf.convexsolve
import ogpf.ipm
import ogpf.oracle
from ogpf.convexsolve import (INFEASIBLE, MAX_ITER, OPTIMAL, linear_infeasible,
                              propagation_infeasible, solve_convex)
from ogpf.errors import AllInfeasible, CapExceeded, ModelError
from ogpf.mipbuild import (build_model, config_model, dump_model,
                           fit_all_curves, hull_model, relax,
                           substitute_columns)
from ogpf.oracle import enumerate_solve
from ogpf.pwa import PwaConfig, config_columns
from ogpf.twostage import solve_two_stage

from conftest import BUNDLED, make_instance


def _build(inst, r):
    cfg = PwaConfig(r=r)
    model, index = build_model(inst, cfg)
    return model, index, fit_all_curves(inst, cfg)


def test_single_pipe_enumerates_two_configs():
    inst = make_instance()
    model, index, curves = _build(inst, 2)
    res = enumerate_solve(model, index, curves)
    assert res.num_configurations == 2
    assert len(res.log) == 2


def test_small2area_eight_configs_and_bound(small2area):
    model, index, curves = _build(small2area, 2)
    res = enumerate_solve(model, index, curves)
    assert res.num_configurations == 8
    relaxed_obj = solve_convex(relax(model)).objective
    assert res.best_objective >= relaxed_obj - 1e-8


def test_all_infeasible_when_demand_exceeds_capacity():
    inst = make_instance(
        gas_nodes=[ogpf.GasNode("n1", 1, 30.0, 1.0, 100.0),
                   ogpf.GasNode("n2", 1, 25.0, 1.0, 100.0)],
        gas_sources=[ogpf.GasSource("s1", "n1", 0.0, 10.0, 0.005, 0.0)],
    )
    model, index, curves = _build(inst, 2)
    with pytest.raises(AllInfeasible):
        enumerate_solve(model, index, curves)


def test_cap_exceeded(small2area):
    model, index, curves = _build(small2area, 2)
    with pytest.raises(CapExceeded) as info:
        enumerate_solve(model, index, curves, cap=3)
    assert info.value.required == 8


@pytest.mark.parametrize("model_r, curves_r", [(4, 2), (2, 4)])
def test_curves_of_another_region_count_are_rejected(small2area, model_r,
                                                     curves_r):
    """The enumeration fixes the model's region columns through
    ``curves``: curves of fewer regions would leave some regions out of
    every configuration, curves of more would name columns the model does
    not have."""
    model, index, _ = _build(small2area, model_r)
    _, _, curves = _build(small2area, curves_r)
    with pytest.raises(ModelError, match="region count"):
        enumerate_solve(model, index, curves)


@pytest.mark.parametrize("form", ["two_orientations", "missing_pipe"])
def test_curves_not_one_per_pipe_are_rejected(small2area, form):
    """The enumeration takes one curve per internal pipe, keyed as the
    model's: a curve per orientation would enumerate each pipe twice, and
    without a pipe its region columns are never fixed."""
    model, index, curves = _build(small2area, 2)
    if form == "two_orientations":
        curves = {k: curve for (i, j), curve in curves.items()
                  for k in ((i, j), (j, i))}
    else:
        del curves[next(iter(curves))]
    with pytest.raises(ModelError, match="pipes"):
        enumerate_solve(model, index, curves)


def _all_tie_pipes(inst):
    """``inst`` (small2area) with gas nodes n1, n3 and n5 in area 1 and n2
    and n4 in area 2, so every pipe is a tie and the model has no binary."""
    area = {"n1": 1, "n2": 2, "n3": 1, "n4": 2, "n5": 1}
    return dataclasses.replace(
        inst,
        gas_nodes=[dataclasses.replace(n, area=area[n.id])
                   for n in inst.gas_nodes],
        pipelines=[dataclasses.replace(p, weymouth_c=None)
                   for p in inst.pipelines])


def test_no_internal_pipe_enumerates_the_one_empty_configuration(small2area):
    inst = _all_tie_pipes(small2area)
    model, index, curves = _build(inst, 2)
    assert curves == {}
    res = enumerate_solve(model, index, curves)
    assert res.log == [{"config": {}, "status": "Optimal",
                        "objective": 1.9700000000000768}]
    assert (res.best_objective, res.best_configuration,
            res.num_configurations) == (1.9700000000000768, {}, 1)
    assert solve_two_stage(inst, 2).objective == res.best_objective


def test_no_internal_pipe_never_returns_an_unconverged_objective(
        monkeypatch, small2area):
    """A MaxIter solve is never chosen as best, with or without pipes to
    enumerate."""
    model, index, curves = _build(_all_tie_pipes(small2area), 2)
    sol = solve_convex(relax(model))
    monkeypatch.setattr(ogpf.oracle, "solve_convex",
                        lambda *args: dataclasses.replace(sol, status=MAX_ITER))
    with pytest.raises(AllInfeasible):
        enumerate_solve(model, index, curves)


def test_pipe_order_does_not_change_optimum(tmp_path, small2area):
    doc = json.load(open(ogpf.instance_path("small2area")))
    doc["pipelines"] = doc["pipelines"][::-1]
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(doc))
    permuted = ogpf.load_instance(path)

    base = enumerate_solve(*_build(small2area, 2))
    perm = enumerate_solve(*_build(permuted, 2))
    assert perm.best_objective == pytest.approx(base.best_objective, abs=1e-9)


def test_best_configuration_matches_recovered_regions(instances):
    """On trees the enumeration winner is the region configuration the
    two-stage method recovers."""
    from ogpf.twostage import solve_two_stage

    for name in ("small2area", "single1area", "chain2area"):
        for r in (2, 4):
            ts = solve_two_stage(instances[name], r)
            assert ts.certificate.is_optimal, (name, r)
            res = enumerate_solve(*_build(instances[name], r))
            assert ts.recovery.configuration == res.best_configuration, \
                (name, r)


def test_small2area_r4_configuration_statuses(small2area):
    """Nine of the 64 configurations are feasible and solve to optimality."""
    res = enumerate_solve(*_build(small2area, 4))
    optimal = [k for k, e in enumerate(res.log) if e["status"] == "Optimal"]
    assert optimal == [22, 38, 39, 42, 43, 58, 59, 62, 63]
    assert all(e["status"] in ("Optimal", "Infeasible") for e in res.log)
    assert res.log[38]["config"] == dict(zip(res.log[38]["config"], (3, 2, 3)))


def test_small2area_r4_statuses_do_not_depend_on_the_ordering(
        monkeypatch, small2area):
    """Under COLAMD instead of minimum degree on ``K + K^T`` the same nine
    configurations solve to optimality. Configuration (3, 2, 3) ends near a
    singular KKT matrix; under COLAMD with partial pivoting it ended
    MaxIter."""
    splu = ogpf.ipm.splu
    specs = set()

    def colamd(mat, **kw):
        specs.add(kw.pop("permc_spec"))
        return splu(mat, permc_spec="COLAMD", **kw)

    monkeypatch.setattr(ogpf.ipm, "splu", colamd)
    res = enumerate_solve(*_build(small2area, 4))
    assert specs == {"MMD_AT_PLUS_A"}
    optimal = [k for k, e in enumerate(res.log) if e["status"] == "Optimal"]
    assert optimal == [22, 38, 39, 42, 43, 58, 59, 62, 63]


@pytest.mark.parametrize("name, not_infeasible", [
    ("single1area", {10: "Optimal", 14: "Optimal", 15: "Optimal"}),
    ("loop1area", {38: "MaxIter", 42: "Optimal", 43: "Optimal"}),
    ("medium3area", {
        **dict.fromkeys([170, 171, 234, 235, 246, 247], "MaxIter"),
        **dict.fromkeys([82, 86, 87, 146, 150, 151, 162, 166, 167, 226, 230,
                         231, 242, 250, 251, 254, 255], "Optimal")}),
])
def test_r4_configuration_statuses(instances, name, not_infeasible):
    """Per-configuration statuses at r=4; every other entry is Infeasible
    with no objective."""
    res = enumerate_solve(*_build(instances[name], 4))
    pipes = {"single1area": 2, "medium3area": 4}.get(name, 3)
    assert len(res.log) == 4 ** pipes
    for k, e in enumerate(res.log):
        assert e["status"] == not_infeasible.get(k, "Infeasible")
        assert (e["objective"] is None) == (e["status"] != "Optimal")


def test_linear_screen_keeps_infeasible_configurations_off_the_ipm(
        monkeypatch, small2area):
    """Bound propagation rejects all 55 infeasible configurations of
    small2area at r=4, so only the nine feasible ones reach the HiGHS LP
    screen and the interior point, and the feasibility probe never runs."""
    calls = {"ipm": 0, "probe": 0, "lp": 0}
    solve_ipm = ogpf.convexsolve.solve_ipm
    probe = ogpf.convexsolve.feasibility_probe
    screen = ogpf.oracle.linear_infeasible

    def counting_ipm(*args, **kw):
        calls["ipm"] += 1
        return solve_ipm(*args, **kw)

    def counting_probe(*args, **kw):
        calls["probe"] += 1
        return probe(*args, **kw)

    def counting_screen(*args, **kw):
        calls["lp"] += 1
        return screen(*args, **kw)

    monkeypatch.setattr(ogpf.convexsolve, "solve_ipm", counting_ipm)
    monkeypatch.setattr(ogpf.convexsolve, "feasibility_probe", counting_probe)
    monkeypatch.setattr(ogpf.oracle, "linear_infeasible", counting_screen)
    res = enumerate_solve(*_build(small2area, 4))
    assert sum(e["status"] == "Optimal" for e in res.log) == 9
    assert calls == {"ipm": 9, "probe": 0, "lp": 9}


def _big_m_outcome(relaxed, index, config):
    """Status and objective of ``config`` on the relaxed big-M model, fixed
    and reduced: bound propagation with the fixed values as boxes, then
    ``substitute_columns`` with the product aliases (the presolve), the
    HiGHS LP screen and the interior point."""
    fixed, aliases = config_columns(config, index.curves, index.col)
    lb, ub = relaxed.lb.copy(), relaxed.ub.copy()
    lb[list(fixed)] = ub[list(fixed)] = list(fixed.values())
    if propagation_infeasible(dataclasses.replace(relaxed, lb=lb, ub=ub)):
        return INFEASIBLE, None
    red = substitute_columns(relaxed, fixed, aliases)
    if not red.feasible or linear_infeasible(red.model):
        return INFEASIBLE, None
    sol = solve_convex(red.model)
    return sol.status, sol.objective


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("r", [2, 4])
def test_configuration_models_match_the_paper_model(instances, name, r):
    """At every configuration, the enumeration's configuration model ends
    with the same status as the reduced big-M model, MaxIter included, and
    where Optimal at the same objective; both pick the same best
    configuration."""
    model, index = build_model(instances[name], PwaConfig(r=r))
    res = enumerate_solve(model, index, index.curves)
    relaxed = relax(model)
    best = (np.inf, None)
    for entry in res.log:
        config = entry["config"]
        status, objective = _big_m_outcome(relaxed, index, config)
        assert entry["status"] == status, config
        if status == OPTIMAL:
            assert entry["objective"] == pytest.approx(objective,
                                                       rel=1e-9), config
            if objective < best[0]:
                best = (objective, config)
    assert res.best_configuration == best[1]


# sha256 over dump_model of the configuration model at every configuration,
# in enumeration order, read off hull_model; recorded while each region of a
# chord curve was still an object of its own
EVERY_CONFIG_SHA256 = {
    ("chain2area", 2): "2579376ca2d6fdd2f8aefb18844ae5c52cca575cebd3e2d8cdf357633fde76fd",
    ("chain2area", 4): "c1884670ce48948c461ecb4794052cfc695387bfce8e4279f303c2b275cefb96",
    ("loop1area", 2): "9de9db9ab0fb85a6d641d0a4662204bd4629c12ceea1c7036ee49697e846bcf8",
    ("loop1area", 4): "e261c0e532322c6648db9c65f04ddd381148ba7a967cbd54b038b37f0562c7ce",
    ("medium3area", 2): "0b939fd96bd0ca764605f62189faf02d9ef688907df41f572911b5653d06fcbd",
    ("medium3area", 4): "edee0ceeb865f504574c0899283b225f86e2b74656bdb2447511649db10fbe42",
    ("single1area", 2): "a0642cfe788ab865f6fc3fd20258942b9a276d8c9c42e06196e34274a94b0feb",
    ("single1area", 4): "09b9345f50ac338ed144c144406e06f9dfddb53ba1a4963042f3186e72cf6875",
    ("small2area", 2): "709f98ce15d10c21bc0e3c4ac3078f31adc9785cfb028bd87af5aaf1acc177ed",
    ("small2area", 4): "684fc15d186200480239c829b39c7ec761f439ab983c1b297c848722f2848878",
}


@pytest.mark.parametrize("name, r", sorted(EVERY_CONFIG_SHA256))
def test_every_configuration_model_is_pinned(instances, name, r):
    """Every configuration's boxes and rows, the grid-end regions and the
    mirror orientations' boxes included, not only the recovered one's."""
    model, index = hull_model(instances[name], PwaConfig(r=r))
    pipes = list(index.curves)
    digest = hashlib.sha256()
    for combo in product(range(1, r + 1), repeat=len(pipes)):
        sub, sub_index = config_model(model, index, dict(zip(pipes, combo)))
        digest.update(dump_model(sub, sub_index).encode())
    assert digest.hexdigest() == EVERY_CONFIG_SHA256[name, r]
