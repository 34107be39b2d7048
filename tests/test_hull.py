"""Stage 1 on each pipe's convex hull (``pwa.emit_hull``,
``mipbuild.hull_model``), against the paper's big-M relaxation and the
enumeration oracle."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import ogpf
from ogpf.cli import main
from ogpf.convexsolve import solve_convex
from ogpf.mipbuild import (area_views, build_model, dump_model, hull_model,
                           relax)
from ogpf.oracle import enumerate_solve
from ogpf.pwa import PwaConfig, emit_hull, fit_pwa

from conftest import BUNDLED, generator, row_values


def _hull(r, c, cap):
    """The rows ``emit_hull`` emits for one pipe i-j over the columns phi
    (0), psi_i (1) and psi_j (2), and the pipe's breakpoint points."""
    curve = fit_pwa(c, cap, PwaConfig(r=r))
    cols = {("phi", ("i", "j")): 0, ("psi", "i"): 1, ("psi", "j"): 2}
    ineq, eq = emit_hull({("i", "j"): curve},
                         lambda kind, owner: cols[kind, owner])
    x = np.array(curve.breakpoints)
    return ineq, eq, x, np.sign(x) * x * x / (c * c)


def _half_planes(rows, cap, scale):
    """Each row ``a phi + b (psi_i - psi_j) <= h`` as ``(a, b, h)``, scaled
    to unit magnitude and rounded."""
    out = set()
    for k in range(rows.rhs.size):
        coef = dict(zip(rows.col[rows.row == k].tolist(),
                        rows.coef[rows.row == k].tolist()))
        out.add((round(coef[0] * cap / scale, 9), coef[1],
                 round(rows.rhs[k] / scale, 9)))
    return out


@pytest.mark.parametrize("r", [4, 6, 8, 12, 16])
def test_hull_rows_are_the_facets_of_the_breakpoint_polygon(r):
    """The rows are exactly the facets that a brute-force search over pairs
    of breakpoint points finds (at ``r = 12`` three points of the lower
    chain are collinear), and no point of the chord graph violates them."""
    rng = np.random.default_rng(r)
    for _ in range(5):
        c, cap = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 200.0))
        ineq, eq, x, y = _hull(r, c, cap)
        assert eq.rhs.size == 0
        assert {ineq.kinds[k] for k in ineq.kind} == {"hull_lo", "hull_up"}
        scale = 1.0 + np.abs(y).max()
        facets = set()
        for k in range(x.size):
            for m in range(k + 1, x.size):
                s = (y[m] - y[k]) / (x[m] - x[k])
                side = y - (y[k] + s * (x - x[k]))
                if (side >= -1e-12 * scale).all():   # lower facet
                    facets.add((round(s * cap / scale, 9), -1.0,
                                round((s * x[k] - y[k]) / scale, 9)))
                if (side <= 1e-12 * scale).all():    # upper facet
                    facets.add((round(-s * cap / scale, 9), 1.0,
                                round((y[k] - s * x[k]) / scale, 9)))
        assert _half_planes(ineq, cap, scale) == facets
        phi = np.concatenate([x, rng.uniform(-cap, cap, size=200)])
        seg = np.clip(np.searchsorted(x, phi) - 1, 0, r - 1)
        drop = y[seg] + (y[seg + 1] - y[seg]) / (x[seg + 1] - x[seg]) \
            * (phi - x[seg])
        for point in np.column_stack([phi, drop, np.zeros_like(phi)]):
            assert (row_values(ineq, point) <= ineq.rhs + 1e-9 * scale).all()


def test_hull_at_two_regions_is_the_chord_line():
    ineq, eq, x, y = _hull(2, 8.0, 150.0)
    assert ineq.rhs.size == 0
    assert eq.keys == [("hull_line", ("i", "j"))]
    assert eq.rhs.tolist() == [0.0]
    # 150/64 phi - psi_i + psi_j = 0
    assert sorted(zip(eq.col.tolist(), eq.coef.tolist())) == [
        (0, 150.0 / 64.0), (1, -1.0), (2, 1.0)]


# sha256 of dump_model of the stage-1 model, recorded while it was still cut
# out of the big-M model (``hull_relaxation(*build_model(...))``)
HULL_SHA256 = {
    ("chain2area", 2):
        "9b2c7815f56f75d3c6e024a5a9cc7c180176b8be7a5398c3b150df4918b18b39",
    ("chain2area", 4):
        "465021fd6e1dd5a82287a5eaa351f5be905630d55b82dc8e72a31d7d3c89ac7a",
    ("chain2area", 16):
        "d5479e586c4f95ab5da36a2ccb10c6e71b27a35d04152cca25882a3955a4f1cd",
    ("loop1area", 2):
        "e577a9fc76be9441047e7057f2208100abe9ca032b279795cffe4e1d4daed490",
    ("loop1area", 4):
        "8a48bf0ecd7d6542b6182127c2866ea54469278cc452761e726c7f573dc58dc6",
    ("loop1area", 16):
        "571633adee75713f518b1417f4f1e2f300fcb9ae62993a2364f882742fb3ab87",
    ("medium3area", 2):
        "ab378f7af291de3bc62abd4295e2d11bf5f7a6b785ec21be0765e3148393899c",
    ("medium3area", 4):
        "ab2beef186cc66930cf0370f6a91f165afff4b22a1606736df1cdb205cc1111c",
    ("medium3area", 16):
        "2e9810294f760256ae620626dec5ed9fbc7ef86f5d5e2170aebb81dddb39883c",
    ("single1area", 2):
        "47ac9d12df63a049a9132c1da0db67c8d90e60da1e16d64039bc3cf5aecce5cd",
    ("single1area", 4):
        "0a189a74ead4639c80c9c1cbf73b30ffa88535fa1fe8fbc48bb2f9bb5ae23855",
    ("single1area", 16):
        "ed8a201d6269483538726878ea6628091cd21e185f198fd8f6540d17e9e20392",
    ("small2area", 2):
        "ff489629831a91a52962e88d7c5c56d4900fdbd5b2f670c42ee5ad1b736aa297",
    ("small2area", 4):
        "20bc6abc24dbbb9f5a1e232d5d2ab51d7a62580b356d5e32c0aaef0dcc236c69",
    ("small2area", 16):
        "71ec367dceab3e648704663e7b568bdd4de3476ab1f241e8e10832ecf43976e2",
}


@pytest.mark.parametrize("name,r", sorted(HULL_SHA256))
def test_hull_model_dump_is_unchanged(instances, name, r):
    model, index = hull_model(instances[name], PwaConfig(r=r))
    text = dump_model(model, index)
    assert hashlib.sha256(text.encode()).hexdigest() == HULL_SHA256[name, r]


@pytest.mark.parametrize("name", ["medium3area", "loop1area"])
def test_hull_model_has_the_same_columns_at_every_r(instances, name):
    sizes = set()
    kinds = {"p", "dgu", "theta", "gs", "psi", "phi"}
    for r in (4, 8, 16, 32):
        model, index = build_model(instances[name], PwaConfig(r=r))
        hull, hull_index = hull_model(instances[name], PwaConfig(r=r))
        # the big-M model's columns but the pipes' binaries and products
        assert hull_index.keys("col") == [key for key in index.keys("col")
                                          if key[0] in kinds]
        assert hull_index.rows("eq", "pwa_flow").size == 0
        assert hull_index.rows("eq", "reciprocity").size == len(
            index.curves)
        assert hull.num_in == hull_index.rows("in", "hull_lo").size \
            + hull_index.rows("in", "hull_up").size
        assert not hull.integrality.any()
        sizes.add((hull.num_vars, hull.num_eq, len(hull.quad_ineq)))
    assert len(sizes) == 1


@pytest.mark.parametrize("name", ["small2area", "chain2area", "medium3area"])
@pytest.mark.parametrize("r", [2, 4])
def test_hull_area_labels_restrict_the_full_models(instances, name, r):
    """``area_views`` on the hull model gives the full model's labels on the
    kept columns and rows; each hull row takes its pipe's area."""
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=r))
    hull, hull_index = hull_model(inst, PwaConfig(r=r))
    keep = [index.col(*key) for key in hull_index.keys("col")]
    col_area, eq_area = area_views(model, inst, index)
    hull_col, hull_eq = area_views(hull, inst, hull_index)
    assert hull_col.tolist() == col_area[keep].tolist()
    full = dict(zip(index.names("eq"), eq_area.tolist()))
    area = {nd.id: nd.area - 1 for nd in inst.gas_nodes}
    expected = [full[label] if label in full
                else area[label.split("[")[1].split("->")[0]]
                for label in hull_index.names("eq")]
    assert hull_eq.tolist() == expected
    assert (hull_index.rows("eq", "hull_line").size
            == (len(index.curves) if r == 2 else 0))


def test_unknown_stage1_is_rejected_before_the_build(monkeypatch, small2area):
    def build(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ogpf.twostage, "build_model", build)
    with pytest.raises(ogpf.ConfigError, match="unknown stage 1 'milp'"):
        ogpf.solve_two_stage(small2area, 4, stage1="milp")


@pytest.mark.parametrize("mode", ["centralized", "consensus"])
def test_only_a_big_m_stage1_builds_the_big_m_model(monkeypatch, small2area,
                                                    mode):
    calls = []
    build = ogpf.mipbuild.build_model

    def counting(*args):
        calls.append(args)
        return build(*args)

    for module in (ogpf.mipbuild, ogpf.twostage):
        monkeypatch.setattr(module, "build_model", counting)
    ogpf.solve_two_stage(small2area, 4, mode=mode)
    assert calls == []
    ogpf.solve_two_stage(small2area, 4, mode=mode, stage1="bigm")
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["centralized", "consensus"])
def test_a_default_solve_assembles_one_model(monkeypatch, small2area, mode):
    """Stage 2 reads its configuration model off the stage-1 model, so the
    shared columns and rows are assembled once per solve."""
    calls = []
    build = ogpf.mipbuild._build

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ogpf.mipbuild, "_build", counting)
    ogpf.solve_two_stage(small2area, 4, mode=mode)
    assert len(calls) == 1


def test_cli_echoes_the_stage1(tmp_path):
    small = ogpf.instance_path("small2area")
    for flag, expected in (([], "hull"), (["--stage1", "bigm"], "bigm")):
        out = tmp_path / f"{expected}.json"
        assert main(["solve", "--instance", small, "--r", "2",
                     "--out", str(out)] + flag) == 0
        report = json.loads(out.read_text())
        assert report["config"]["stage1"] == expected
        assert [run["stage1"] for run in report["runs"]] == [expected]
    with pytest.raises(SystemExit):
        main(["solve", "--instance", small, "--stage1", "qhull"])


def _rel_tol(value):
    return 1e-9 * (1.0 + abs(value))


@pytest.mark.parametrize("name", BUNDLED)
def test_hull_bound_lies_between_bigm_and_the_optimum(instances, name):
    inst = instances[name]
    for r in (2, 4):
        model, index = build_model(inst, PwaConfig(r=r))
        bigm = solve_convex(relax(model)).objective
        hull = ogpf.solve_two_stage(inst, r).objective
        best = enumerate_solve(model, index, index.curves).best_objective
        assert hull >= bigm - _rel_tol(bigm), (r, hull, bigm)
        assert hull <= best + _rel_tol(best), (r, hull, best)


@pytest.mark.parametrize("name", BUNDLED)
def test_hull_keeps_every_optimal_certificate(instances, name):
    """Where the paper's stage 1 certifies Optimal, so does the hull, at the
    same objective; the recovered configuration may differ only where a flow
    lies on a breakpoint, and so is exact in either region."""
    inst = instances[name]
    for r in range(2, 17, 2):
        bigm = ogpf.solve_two_stage(inst, r, stage1="bigm")
        hull = ogpf.solve_two_stage(inst, r)
        assert hull.stage1 == "hull" and bigm.stage1 == "bigm"
        if bigm.certificate.is_optimal:
            assert hull.certificate.is_optimal, r
            assert hull.objective == pytest.approx(bigm.objective, rel=1e-9)


# pressure-binding trees whose mixed-integer model is infeasible at r=2
INFEASIBLE_AT_R2 = {(2, 30.0), (3, 30.0)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hull_on_pressure_binding_trees(seed):
    """Generated 2-area trees with ``psi_max`` lowered until the pressure
    boxes bind, at r=2: the hull bound lies between the big-M bound and the
    exact optimum, and where the mixed-integer model is infeasible the hull
    stage 1 proves it."""
    base = generator().generate(seed, num_areas=2, nodes_per_area=4)
    for psi_max in (120.0, 60.0, 30.0):
        inst = dataclasses.replace(base, gas_nodes=tuple(
            dataclasses.replace(nd, psi_max=psi_max)
            for nd in base.gas_nodes))
        model, index = build_model(inst, PwaConfig(r=2))
        bigm = solve_convex(relax(model)).objective
        if (seed, psi_max) in INFEASIBLE_AT_R2:
            with pytest.raises(ogpf.AllInfeasible):
                enumerate_solve(model, index, index.curves)
            with pytest.raises(ogpf.OgpfError, match="relaxed problem is "
                               "infeasible"):
                ogpf.solve_two_stage(inst, 2)
            continue
        best = enumerate_solve(model, index, index.curves).best_objective
        hull = ogpf.solve_two_stage(inst, 2)
        assert hull.objective >= bigm - _rel_tol(bigm), psi_max
        assert hull.objective <= best + _rel_tol(best), psi_max


# hull stage 1 at r=4 and 16: stage-1 status, interior-point iterations,
# certificate kind, objective and certificate bound, in either mode
HULL_OUTCOME = {
    ("chain2area", 4): ("Optimal", 12, "Optimal", 1.1328750000000705, 0.0),
    ("chain2area", 16): ("Optimal", 12, "Optimal", 1.1328750000000483, 0.0),
    ("loop1area", 4): ("Optimal", 11, "Approximate", 0.5090000000001588,
                       0.8935394559351977),
    ("loop1area", 16): ("Optimal", 11, "Approximate", 0.5090000000001189,
                        5.3826872165266835),
    ("medium3area", 4): ("Optimal", 14, "Optimal", 3.4715500000004402, 0.0),
    ("medium3area", 16): ("Optimal", 14, "Optimal", 3.4715500000004456, 0.0),
    ("single1area", 4): ("Optimal", 11, "Optimal", 0.5112000000271021, 0.0),
    ("single1area", 16): ("Optimal", 12, "Optimal", 0.5112000000000041, 0.0),
    ("small2area", 4): ("Optimal", 14, "Optimal", 1.9700000000002416, 0.0),
    ("small2area", 16): ("Optimal", 15, "Optimal", 1.970000000000011, 0.0),
}


@pytest.mark.parametrize("mode", ["centralized", "consensus"])
@pytest.mark.parametrize("name,r", sorted(HULL_OUTCOME))
def test_hull_outcome_is_pinned(instances, name, r, mode):
    status, iterations, kind, objective, bound = HULL_OUTCOME[name, r]
    res = ogpf.solve_two_stage(instances[name], r, mode=mode)
    assert (res.solution.status, res.solution.iterations,
            res.certificate.kind) == (status, iterations, kind)
    assert res.objective == pytest.approx(objective, rel=1e-12)
    assert res.certificate.bound == pytest.approx(bound, rel=1e-9, abs=1e-12)
    # the stage-1 point and the configuration model share their columns
    assert res.solution.x.size == res.model.num_vars
