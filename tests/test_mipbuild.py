import dataclasses
import hashlib
import re
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

import ogpf
import ogpf.mipbuild
from ogpf.mipbuild import (QuadBlock, StandardModel, VarIndex, area_views,
                           build_model, check_point, config_model, dump_model,
                           hull_model, relax, substitute_columns)
from ogpf.pwa import PwaConfig

from conftest import make_instance, small_witness_point


def test_small2area_row_and_column_counts(small2area_model):
    model, index = small2area_model
    # 4 power + 5 gas + 1 tie reciprocity + 3 internal reciprocity
    # + 3 coupled flow equalities + 6 simplex + 3 sign links
    assert model.num_eq == 25

    def count(kind):
        return index.rows("eq", kind).size

    assert count("power_balance") == 4
    assert count("gas_balance") == 5
    assert count("tie_reciprocity") == 1
    assert count("reciprocity") == 3
    assert count("pwa_flow") == 3
    assert count("simplex") == 6
    assert count("dpsi_link") == 3
    # (8 + 11r) big-M rows per orientation at r=2
    assert model.num_in == 6 * 30
    assert len(model.quad_ineq) == 1
    assert int(model.integrality.sum()) == 6 * 7
    assert model.num_vars == 83
    # the model holds numbers only; the index names its rows
    assert not any(isinstance(getattr(model, f.name), (str, list))
                   for f in dataclasses.fields(model))


def test_bus_without_generator_balances_line_flows():
    inst = make_instance(
        buses=[ogpf.Bus("b1", 1, 20.0, -0.6, 0.6),
               ogpf.Bus("b2", 1, 0.0, -0.6, 0.6),
               ogpf.Bus("b3", 1, 10.0, -0.6, 0.6)],
        lines=[ogpf.PowerLine("b1", "b2", 0.01),
               ogpf.PowerLine("b2", "b3", 0.01)],
        generators=[ogpf.Generator("g1", "b1", "non_gas_fueled", 0.0, 100.0,
                                   cost_c2=1e-5, cost_c1=0.02, cost_c0=0.0)],
    )
    model, index = build_model(inst, PwaConfig(r=2))
    k = index.names("eq").index("power_balance[b2]")
    row = model.a_eq.getrow(k)
    assert model.b_eq[k] == 0.0
    cols = dict(zip(row.indices, row.data))
    assert cols == {index.col("theta", "b2"): -200.0,
                    index.col("theta", "b1"): 100.0,
                    index.col("theta", "b3"): 100.0}


def test_gas_conversion_row_floor():
    inst = make_instance(
        generators=[ogpf.Generator("g1", "b1", "non_gas_fueled", 0.0, 100.0,
                                   cost_c2=1e-5, cost_c1=0.02, cost_c0=0.0),
                    ogpf.Generator("g2", "b2", "gas_fueled", 0.0, 10.0,
                                   eta2=1.0, eta1=0.0, eta0=0.0,
                                   gas_node="n2")],
    )
    model, index = build_model(inst, PwaConfig(r=2))
    quad = model.quad_ineq
    assert index.names("quad") == ["gas_conversion[g2]"]
    x = np.zeros(model.num_vars)
    x[index.col("p", "g2")] = 2.0
    x[index.col("dgu", "g2")] = 3.9
    assert quad.value(x)[0] > 0  # d below the quadratic floor of 4
    x[index.col("dgu", "g2")] = 4.0
    assert quad.value(x)[0] <= 1e-12


def test_non_gas_unit_gas_use_pinned(small2area_model):
    model, index = small2area_model
    j = index.col("dgu", "g1")
    assert model.lb[j] == model.ub[j] == 0.0


def test_relax_clears_integrality_only(small2area_model):
    model, _ = small2area_model
    relaxed = relax(model)
    assert not relaxed.integrality.any()
    assert relaxed.num_eq == model.num_eq
    assert relaxed.num_in == model.num_in
    again = relax(relaxed)
    assert not again.integrality.any()
    x = np.linspace(0.0, 1.0, model.num_vars)
    assert relaxed.objective(x) == model.objective(x)
    # binary columns stay boxed to [0, 1]
    assert (relaxed.lb[model.integrality] == 0.0).all()
    assert (relaxed.ub[model.integrality] == 1.0).all()


def test_witness_point_is_feasible(small2area_model):
    model, index = small2area_model
    x = small_witness_point(model, index)
    rep = check_point(model, x, 1e-9, check_integrality=True)
    assert rep.ok, rep.worst
    # feasibility transfers to the relaxation
    rep2 = check_point(relax(model), x, 1e-9)
    assert rep2.ok


def test_build_is_deterministic(small2area):
    cfg = PwaConfig(r=4)
    m1, i1 = build_model(small2area, cfg)
    m2, i2 = build_model(small2area, cfg)
    assert i1.names("eq") == i2.names("eq")
    assert i1.names("in") == i2.names("in")
    assert (m1.a_eq != m2.a_eq).nnz == 0
    assert (m1.g_in != m2.g_in).nnz == 0
    assert np.array_equal(m1.b_eq, m2.b_eq)
    assert np.array_equal(m1.lb, m2.lb) and np.array_equal(m1.ub, m2.ub)
    assert [i1.name(j) for j in range(m1.num_vars)] == \
           [i2.name(j) for j in range(m2.num_vars)]


def test_area_views_partition_and_coupling(instances, small2area_model):
    model, index = small2area_model
    col_area, eq_area = area_views(model, instances["small2area"], index)
    assert col_area.shape == (model.num_vars,)
    assert eq_area.shape == (model.num_eq,)
    # every column belongs to one of the two areas, blocks 0 and 1
    assert sorted(set(col_area.tolist())) == [0, 1]
    coupling = [index.row_name("eq", int(k))
                for k in np.flatnonzero(eq_area < 0)]
    assert sorted(coupling) == ["power_balance[b2]", "power_balance[b3]",
                                "tie_reciprocity[n3->n4]"]

    single, sindex = build_model(instances["single1area"], PwaConfig(r=2))
    col_area, eq_area = area_views(single, instances["single1area"], sindex)
    assert not col_area.any() and not eq_area.any()
    assert col_area.size == single.num_vars


def test_area_views_rejects_an_inequality_across_areas(instances,
                                                      small2area_model):
    model, index = small2area_model
    g_in = model.g_in.tolil()
    # row 0 belongs to a pipe of area 1; node n5 lies in area 2
    g_in[0, index.col("psi", "n5")] = 1.0
    bad = model.copy()
    bad.g_in = g_in.tocsr()
    with pytest.raises(ogpf.ModelError,
                       match=re.escape(index.row_name("in", 0))):
        area_views(bad, instances["small2area"], index)


def test_substitute_columns_fixes_and_offsets(small2area_model):
    model, index = small2area_model
    j = index.col("p", "g1")
    red = substitute_columns(model, {j: 60.0}, {})
    sub = red.model
    assert sub.num_vars == model.num_vars - 1
    assert j not in red.keep
    # objective constant absorbs the fixed cost contribution
    assert sub.obj_const == pytest.approx(
        model.obj_const + 1e-5 * 60.0 ** 2 + 0.02 * 60.0)


def test_substitute_columns_aliases_products(small2area_model):
    model, index = small2area_model
    key = ("n1", "n2")
    dm, ym, phi = (index.col("dm", key, 1), index.col("ym", key, 2),
                   index.col("phi", key))
    red = substitute_columns(relax(model), fixed={dm: 0.0},
                             aliases={ym: (phi, 1.0)})
    assert red.feasible
    assert red.model.num_vars == model.num_vars - 2
    assert dm not in red.keep and ym not in red.keep
    # every kept row of the reduced model is the original row at the
    # expanded point
    x_red = np.random.default_rng(3).uniform(-1.0, 1.0, red.model.num_vars)
    x = np.zeros(model.num_vars)
    x[red.keep] = x_red
    x[ym] = x[phi]
    assert np.allclose(red.model.a_eq @ x_red - red.model.b_eq,
                       (model.a_eq @ x - model.b_eq)[red.eq_rows])
    assert np.allclose(red.model.g_in @ x_red - red.model.h_in,
                       (model.g_in @ x - model.h_in)[red.in_rows])
    assert np.allclose(red.model.quad_ineq.value(x_red),
                       model.quad_ineq.value(x)[red.quad_rows])
    assert red.model.objective(x_red) == pytest.approx(model.objective(x))


def test_substitute_columns_drops_vanished_rows():
    # x0 + x1 = 2 with x0 = 1 and x1 = 1 fixed vanishes consistently, and
    # x0^2 - x2 <= 0 keeps its x2 term
    model = StandardModel(
        3, np.zeros(3), np.zeros(3), 0.0, sp.csr_matrix([[1.0, 1.0, 0.0]]),
        np.array([2.0]), sp.csr_matrix((0, 3)), np.zeros(0),
        QuadBlock(3, [0], [0], [1.0], [0], [2], [-1.0], [0.0]),
        np.zeros(3), np.full(3, 5.0), np.zeros(3, dtype=bool))
    red = substitute_columns(model, {0: 1.0, 1: 1.0}, {})
    assert red.feasible
    assert red.eq_rows.size == 0 and red.model.num_eq == 0
    assert list(red.quad_rows) == [0]
    assert red.model.quad_ineq.d[0] == 1.0
    assert not substitute_columns(model, {0: 1.0, 1: 2.0}, {}).feasible
    # fixing x2 as well leaves 1 - x2 <= 0, which x2 = 0.5 contradicts
    assert not substitute_columns(model, {0: 1.0, 1: 1.0, 2: 0.5}, {}).feasible


def test_substitute_columns_detects_empty_box(small2area_model):
    model, index = small2area_model
    key = ("n1", "n2")
    # alias with a sign flip forces phi in [0,150] cap [-150,-0] -> {0}; a
    # contradictory fixed value on the same column is caught via the box
    red = substitute_columns(
        relax(model), fixed={index.col("phi", key): 400.0}, aliases={})
    assert not red.feasible


def test_dump_model_mentions_rows_and_vars(small2area_model):
    model, index = small2area_model
    text = dump_model(model, index)
    assert "var p[g1]" in text
    assert "eq power_balance[b1]:" in text
    assert "qle gas_conversion[g2]:" in text
    assert f"vars {model.num_vars}" in text


# sha256 of dump_model, recorded at r=4 before the quadratic rows became one
# coordinate block, and at r=2 and r=16 before the linear rows became arrays
DUMP_SHA256 = {
    ("chain2area", 2): "9ceb6a1c035ad7e7b826753f977f6cbb535f20e46349759b54fcfa35adade303",
    ("loop1area", 2): "379caaf034f0f0bd4f8b53608a52286ea8c814fb80b95d941d40a67e4d9a5b6b",
    ("medium3area", 2): "638bbad34ef117486f7ec38c53c1ef52ce9a13e2ec774bd3ccada191a24f56bd",
    ("single1area", 2): "47d46c33a1e2286fb4a8507b7de825cb81b22d571585b52b36a5b389bd289945",
    ("small2area", 2): "0b60e55235a6e2336a7e694fd074eff4d3a012c017b6a3469c1d905afb1b2739",
    ("chain2area", 4): "54de840dec712eee9c8d2b4da4e735522cd8f79e89d6e32982a3218f60f984a7",
    ("loop1area", 4): "253485b5244146cb3b608438435be7ca700d85fa0a9b5195351bd13f48144664",
    ("medium3area", 4): "28b7234dab12cd2f08c21425fde69bf92c3fe681992403d1da91f8c8895e4468",
    ("single1area", 4): "883b809e7e9da79bad944f98ddaa2590c3726501038c90fd4e90700974c316f3",
    ("small2area", 4): "d7dea30d6f3a4f8822bfa2c7a3e5e210de64458b2ce97d9f44172312f377149f",
    ("chain2area", 16): "d1d964c8c3dfd0fb5c47b9f6868ae3556d1b8df80892eb168add3052530e5ec0",
    ("loop1area", 16): "2d622970d6ab977e2d86ba74e35f78ac3bc3b7fd246ccedb5beb07a6e529428c",
    ("medium3area", 16): "ec87dc9872e4cebbeece1aaca1492c2642a2aaf0a195b7098d56bd9312e138fd",
    ("single1area", 16): "5538c3228c6c724e4c1d098079b8b9ad6155949534548000bf1a2c960df70664",
    ("small2area", 16): "79d7e73df1325c921d82fa5255fafabc7cc2d8f3e3fc4e0c38d2bdf0993e58bc",
}


@pytest.mark.parametrize("name, r", [
    pytest.param(name, r, id=name if r == 4 else f"{name}-r{r}")
    for name, r in sorted(DUMP_SHA256)])
def test_dump_model_is_unchanged(instances, name, r):
    model, index = build_model(instances[name], PwaConfig(r=r))
    text = dump_model(model, index)
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[name, r]



# sha256 of dump_model of both models of single1area at r=128, recorded
# while each region of a chord curve was still an object of its own
LARGE_R_SHA256 = {
    "build_model": "38557307e4db8913fb82b249fc2f97491047f3e8cb5a5afe5a977a0d247be557",
    "hull_model": "d1f84ef39c08b7edaf2d6988e2d2ecaec40b7cde852ffbe474b5f4b5e274b5e3",
}


@pytest.mark.parametrize("build", [build_model, hull_model],
                         ids=lambda build: build.__name__)
def test_large_r_dumps_are_unchanged(instances, build):
    text = dump_model(*build(instances["single1area"], PwaConfig(r=128)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        LARGE_R_SHA256[build.__name__]

# sha256 of the stage-1 point's bytes and the interior-point iteration count
# at r=4, re-recorded when the KKT factor moved to SuperLU's symmetric mode
# (the points moved by rounding; the iteration counts did not)
STAGE1_SHA256 = {
    ("chain2area", "centralized"): ("a61a003a9b90f79462f949bf9baaf4511de6436ee20d13b017571dc1022da0a8", 14),
    ("chain2area", "consensus"): ("e7384635690e7f9f6c5ec65e7c962e4dbb7224fcab2de176557df7314201b3bc", 14),
    ("loop1area", "centralized"): ("a057f76766e59b53c4eefb5672fc1ad9af14bc25edc3be76849d02e0efc1484f", 11),
    ("loop1area", "consensus"): ("a057f76766e59b53c4eefb5672fc1ad9af14bc25edc3be76849d02e0efc1484f", 11),
    ("medium3area", "centralized"): ("5ff9022cced8f48d539ed43c4ba1cbb6aacd70094eaacc9791cec400dbbb07b9", 17),
    ("medium3area", "consensus"): ("4a0488115cdb7c6ab72e2a68fa12fba74fe7b680d62e612b1ee0b5db8a54ec94", 17),
    ("single1area", "centralized"): ("250e5369a4813923c8e67d8bf84406a20e2241d4e4e31d63fafcdb0a2f16c8b2", 12),
    ("single1area", "consensus"): ("250e5369a4813923c8e67d8bf84406a20e2241d4e4e31d63fafcdb0a2f16c8b2", 12),
    ("small2area", "centralized"): ("a66a181966800d0a1897cfbb071eb04636ba5f7e2f135e20a08c11ae608c34a9", 18),
    ("small2area", "consensus"): ("860614cc2e9c025d793bfb0e8d014fbd7e10a8be5e56440599574480bf83cc5a", 18),
}


@pytest.mark.parametrize("name, mode", sorted(STAGE1_SHA256))
def test_stage1_points_are_unchanged(instances, name, mode):
    # the big-M stage 1 as solve_two_stage runs it; the solution it reports
    # is this point gathered onto the stage-1 columns
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=4))
    relaxed = relax(model)
    sol = (ogpf.solve_consensus(relaxed, area_views(relaxed, inst, index))
           if mode == "consensus" else ogpf.solve_convex(relaxed))
    assert (hashlib.sha256(sol.x.tobytes()).hexdigest(),
            sol.iterations) == STAGE1_SHA256[name, mode]
    res = ogpf.solve_two_stage(inst, 4, mode=mode, stage1="bigm")
    gathered = [index.col(*key) for key in res.index.keys("col")]
    assert res.solution.x.tolist() == sol.x[gathered].tolist()


# stage-1 status, interior-point iterations, certificate kind and objective
# at r=4: what a change of factorization must keep, where the point's bytes
# may move by rounding
STAGE1_OUTCOME = {
    ("chain2area", "centralized"): ("Optimal", 14, "Optimal", 1.132875000000041),
    ("chain2area", "consensus"): ("Optimal", 14, "Optimal", 1.1328750000000412),
    ("loop1area", "centralized"): ("Optimal", 11, "Approximate", 0.5090000000007092),
    ("loop1area", "consensus"): ("Optimal", 11, "Approximate", 0.5090000000007092),
    ("medium3area", "centralized"): ("Optimal", 17, "Optimal", 3.471550000000088),
    ("medium3area", "consensus"): ("Optimal", 17, "Optimal", 3.471550000000088),
    ("single1area", "centralized"): ("Optimal", 12, "Optimal", 0.5112000000001451),
    ("single1area", "consensus"): ("Optimal", 12, "Optimal", 0.5112000000001451),
    ("small2area", "centralized"): ("Optimal", 18, "Optimal", 1.9700000000000903),
    ("small2area", "consensus"): ("Optimal", 18, "Optimal", 1.9700000000000903),
}


@pytest.mark.parametrize("name, mode", sorted(STAGE1_OUTCOME))
def test_stage1_outcomes_are_unchanged(instances, name, mode):
    res = ogpf.solve_two_stage(instances[name], 4, mode=mode, stage1="bigm")
    status, iterations, kind, objective = STAGE1_OUTCOME[name, mode]
    assert (res.solution.status, res.solution.iterations,
            res.certificate.kind) == (status, iterations, kind)
    assert abs(res.objective - objective) <= 1e-12 * abs(objective)


def test_dump_model_rejects_an_index_of_another_model(small2area_model):
    model, index = small2area_model
    reduced = substitute_columns(model, {index.col("p", "g1"): 60.0}, {}).model
    with pytest.raises(ogpf.ModelError):
        dump_model(reduced, index)


def test_to_csr_rejects_a_column_out_of_range():
    to_csr = ogpf.mipbuild._to_csr
    mat = to_csr(np.array([0, 0, 1]), np.array([2, 0, 1]),
                 np.array([1.0, 2.0, 0.0]), 2, 3)
    # entries sorted within rows, explicit zeros kept
    assert mat.indices.tolist() == [0, 2, 1]
    assert mat.data.tolist() == [2.0, 1.0, 0.0]
    for col in (3, -1):
        with pytest.raises(ogpf.ModelError, match=re.escape("outside 0..2")):
            to_csr(np.array([0]), np.array([col]), np.array([1.0]), 1, 3)


def test_index_looks_keys_up_by_kind_and_owner(instances, small2area_model):
    model, index = small2area_model
    nodes = [nd.id for nd in instances["small2area"].gas_nodes]
    assert list(index.columns("psi")) == [index.col("psi", n) for n in nodes]
    assert index.columns("no_such_kind").size == 0
    labels = index.names("in")
    assert [labels[k] for k in index.rows("in", "reg_and_a")] == [
        label for label in labels if label.startswith("reg_and_a[")]
    assert [index.owners(block).size for block in ("col", "eq", "in", "quad")
            ] == [model.num_vars, model.num_eq, model.num_in, 1]
    # a pipe's rows belong to its from node, like the node's own columns
    k = labels.index("reg_and_a[n1->n2,1]")
    assert index.entities[index.owners("in")[k]] == ("node", "n1")
    assert index.entities[index.owners("col")[index.col("psi", "n1")]] == \
        ("node", "n1")


def test_duplicate_column_key_is_a_model_error():
    index = VarIndex()
    index.add("psi", "n1")
    with pytest.raises(ogpf.ModelError):
        index.add("psi", "n1")


def test_solve_two_stage_fits_each_curve_once(monkeypatch, small2area):
    calls = []
    fit = ogpf.mipbuild.fit_pwa

    def counting_fit(*args, **kw):
        calls.append(kw["pipe"])
        return fit(*args, **kw)

    monkeypatch.setattr(ogpf.mipbuild, "fit_pwa", counting_fit)
    result = ogpf.solve_two_stage(small2area, 4)
    # one curve per internal pipe, keyed by the pipe in file order
    pipes = [(p.from_node, p.to_node) for p in small2area.pipelines
             if p.weymouth_c is not None]
    assert len(pipes) == 3
    assert calls == pipes
    assert list(result.index.curves) == pipes


def _labels_digest(labels):
    h = hashlib.sha256()
    for a in labels:
        a = np.asarray(a, dtype=np.int64)
        h.update(np.int64(a.size).tobytes() + a.tobytes())
    return h.hexdigest()


# sha256 over the column and equality-row area labels at r=4 (area a is
# block a-1, coupling rows -1), recorded while area_views still returned one
# view per area and solve_consensus converted the views into these labels
LABELS_SHA256 = {
    "chain2area": "73d18d0dceab602b334b02467cd1b46e4392b5dcb40145eb4ca8bd2c7f9ad1d2",
    "loop1area": "23b7f2bd69e45a1057e8e234280642e97aabbfc5d7c7b9524008abf0508b3136",
    "medium3area": "d67443edc572ed34a66743e1cac46e04ab34abbd365cfcaf581090a9f10c117c",
    "single1area": "be2802dacd65fb3617ac2bd8b617913ac286e341b2c4946c8c3d7fe4a0d56d69",
    "small2area": "762f4deca43f5352b0171fe1022afbb8c9137149f6c90bb990731940427ba4a8",
}


@pytest.mark.parametrize("name", sorted(LABELS_SHA256))
def test_area_views_are_unchanged(instances, name):
    model, index = build_model(instances[name], PwaConfig(r=4))
    labels = area_views(model, instances[name], index)
    assert _labels_digest(labels) == LABELS_SHA256[name]


def test_configuration_models_take_epsilon_from_the_index(small2area):
    """A configuration model is read off the big-M or the hull model at the
    tolerance that model was built at: both give the same model, whose
    interior flow boxes stay 1e-3 inside their region and whose
    ``psi_order`` rows ask for a pressure difference of 1e-3."""
    cfg = PwaConfig(r=4, epsilon=1e-3)
    big, big_index = build_model(small2area, cfg)
    hull, hull_index = hull_model(small2area, cfg)
    curves = hull_index.curves
    for combo in product(range(1, 5), repeat=len(curves)):
        config = dict(zip(curves, combo))
        model, index = config_model(hull, hull_index, config)
        assert dump_model(*config_model(big, big_index, config)) == \
            dump_model(model, index), combo
        for pipe, m in config.items():
            lo, hi = curves[pipe].breakpoints[m - 1:m + 1]
            j = index.col("phi", pipe)
            assert (model.lb[j], model.ub[j]) == (
                lo + 1e-3 if m > 1 else lo, hi - 1e-3 if m < 4 else hi)
        assert model.h_in.tolist() == [-1e-3] * len(curves)
        assert index.rows("in", "psi_order").size == len(curves)
