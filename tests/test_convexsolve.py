from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

import ogpf
import ogpf.convexsolve
import ogpf.ipm
import ogpf.twostage
from ogpf.convexsolve import (linear_infeasible, propagation_infeasible,
                              solve_consensus, solve_convex)
from ogpf.mipbuild import (QuadBlock, StandardModel, area_views, build_model,
                           config_model, hull_model, relax, substitute_columns)
from ogpf.pwa import PwaConfig, config_columns

from conftest import make_instance, no_quad, small_witness_point


def _box_qp(q, c, lb, ub, const=0.0):
    n = len(q)
    return StandardModel(
        n, np.asarray(q, float), np.asarray(c, float), const,
        sp.csr_matrix((0, n)), np.zeros(0), sp.csr_matrix((0, n)),
        np.zeros(0), no_quad(n), np.asarray(lb, float), np.asarray(ub, float),
        np.zeros(n, dtype=bool))


def test_clipped_unconstrained_minimizer():
    # minimize (p - 1)^2 over p in [0, 0.5]
    model = _box_qp([1.0], [-2.0], [0.0], [0.5], const=1.0)
    sol = solve_convex(model)
    assert sol.status == "Optimal"
    assert sol.x[0] == pytest.approx(0.5, abs=1e-7)
    assert sol.objective == pytest.approx(0.25, abs=1e-7)


def test_contradictory_box_is_infeasible():
    model = _box_qp([1.0], [0.0], [1.0], [0.5])
    sol = solve_convex(model)
    assert sol.status == "Infeasible"


def test_infeasible_balance_detected_by_probe():
    # gas demand exceeds total source capacity
    inst = make_instance(
        gas_nodes=[ogpf.GasNode("n1", 1, 30.0, 1.0, 100.0),
                   ogpf.GasNode("n2", 1, 20.0, 1.0, 100.0)],
        gas_sources=[ogpf.GasSource("s1", "n1", 0.0, 10.0, 0.005, 0.0)],
    )
    model, _ = build_model(inst, PwaConfig(r=2))
    sol = solve_convex(relax(model))
    assert sol.status == "Infeasible"
    assert linear_infeasible(relax(model))


def test_linear_screen_rejects_contradictory_balance():
    # x + y = 3 with both columns boxed to [0, 1]
    model = StandardModel(
        2, np.zeros(2), np.zeros(2), 0.0, sp.csr_matrix([[1.0, 1.0]]),
        np.array([3.0]), sp.csr_matrix((0, 2)), np.zeros(0), no_quad(2),
        np.zeros(2), np.ones(2), np.zeros(2, dtype=bool))
    assert linear_infeasible(model)
    assert solve_convex(model).status == "Infeasible"


def test_quadratic_only_infeasibility_passes_screen_and_hits_probe():
    # x in [1, 2], y in [0, 0.5], x^2 - y <= 0: the linear part is feasible
    model = StandardModel(
        2, np.zeros(2), np.array([1.0, 0.0]), 0.0, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix((0, 2)), np.zeros(0),
        QuadBlock(2, [0], [0], [1.0], [0], [1], [-1.0], [0.0]),
        np.array([1.0, 0.0]), np.array([2.0, 0.5]), np.zeros(2, dtype=bool))
    assert not linear_infeasible(model)
    assert solve_convex(model).status == "Infeasible"


def _parabola_model():
    # x in [1, 2], y in [0, 0.5], x^2 - y <= 0: the linear part is feasible
    return StandardModel(
        2, np.zeros(2), np.array([1.0, 0.0]), 0.0, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix((0, 2)), np.zeros(0),
        QuadBlock(2, [0], [0], [1.0], [0], [1], [-1.0], [0.0]),
        np.array([1.0, 0.0]), np.array([2.0, 0.5]), np.zeros(2, dtype=bool))


def _count_lps(monkeypatch):
    calls = []
    linprog = ogpf.convexsolve.linprog

    def counting(*args, **kw):
        calls.append(1)
        return linprog(*args, **kw)

    monkeypatch.setattr(ogpf.convexsolve, "linprog", counting)
    return calls


def test_one_tangent_cut_proves_the_parabola_infeasible(monkeypatch):
    """Round 0 drops x^2 - y <= 0 and finds a point of the boxes; the
    tangent cut at that point leaves the boxes empty, so the second LP is
    infeasible."""
    calls = _count_lps(monkeypatch)
    assert ogpf.convexsolve.feasibility_probe(_parabola_model()) is True
    assert len(calls) == 2


def test_linear_screen_is_one_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    assert not linear_infeasible(_parabola_model())
    assert len(calls) == 1


def test_undecided_verdict_is_not_a_proof(monkeypatch):
    """With no round of cuts the verdict cannot decide the parabola, and
    the stalled solve stays MaxIter: feasibility is unproven, not
    disproved."""
    monkeypatch.setattr(ogpf.convexsolve, "_MAX_CUT_ROUNDS", 0)
    model = _parabola_model()
    assert ogpf.convexsolve.feasibility_probe(model) is None
    assert solve_convex(model).status == "MaxIter"


def test_feasible_lp_point_is_a_witness():
    # x in [0, 2], y in [0, 4]: the parabola x^2 - y <= 0 meets the boxes,
    # so the loop ends on a point that violates it by at most the threshold
    model = replace(_parabola_model(), lb=np.zeros(2),
                    ub=np.array([2.0, 4.0]))
    assert ogpf.convexsolve.feasibility_probe(model) is False


def _linear_model(a_eq, b_eq, g_in, h_in, lb, ub):
    n = len(lb)
    return StandardModel(
        n, np.zeros(n), np.zeros(n), 0.0, sp.csr_matrix(a_eq, shape=(
            len(b_eq), n)), np.asarray(b_eq, float),
        sp.csr_matrix(g_in, shape=(len(h_in), n)), np.asarray(h_in, float),
        no_quad(n), np.asarray(lb, float), np.asarray(ub, float),
        np.zeros(n, dtype=bool))


def _chain(z_min):
    # y = x, z = y, z >= z_min with x in [0, 1] and y, z in [0, 10]
    return _linear_model([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]], [0.0, 0.0],
                         [[0.0, 0.0, -1.0]], [-z_min], [0.0, 0.0, 0.0],
                         [1.0, 10.0, 10.0])


def test_propagation_rejects_contradictory_balance():
    # x + y = 3 with both columns boxed to [0, 1]
    model = _linear_model([[1.0, 1.0]], [3.0], np.zeros((0, 2)), [],
                          [0.0, 0.0], [1.0, 1.0])
    assert propagation_infeasible(model)


def test_propagation_needs_a_second_sweep_along_a_chain(monkeypatch):
    # the first sweep caps y at 1 and lifts z to 2; only the second finds
    # z - y >= 1 against z = y
    model = _chain(2.0)
    assert propagation_infeasible(model)
    monkeypatch.setattr(ogpf.convexsolve, "_MAX_SWEEPS", 1)
    assert not propagation_infeasible(model)


def test_propagation_leaves_feasible_models_undecided(small2area_model):
    assert not propagation_infeasible(_chain(0.5))
    assert not propagation_infeasible(relax(small2area_model[0]))


def test_propagation_ignores_quadratic_rows():
    # the model of test_quadratic_only_infeasibility_passes_screen_and_hits_
    # probe: x in [1, 2], y in [0, 0.5], x^2 - y <= 0
    model = StandardModel(
        2, np.zeros(2), np.array([1.0, 0.0]), 0.0, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix((0, 2)), np.zeros(0),
        QuadBlock(2, [0], [0], [1.0], [0], [1], [-1.0], [0.0]),
        np.array([1.0, 0.0]), np.array([2.0, 0.5]), np.zeros(2, dtype=bool))
    assert not propagation_infeasible(model)
    assert solve_convex(model).status == "Infeasible"


def test_propagation_rejects_only_what_the_lp_screen_rejects(instances):
    """Over every configuration of the bundled oracles at r=2 and r=4 (508),
    a configuration that propagation rejects is also rejected by the
    presolve or by the HiGHS LP on the reduced model."""
    configs = rejected = 0
    for inst in instances.values():
        for r in (2, 4):
            model, index = build_model(inst, PwaConfig(r=r))
            relaxed = relax(model)
            for combo in product(range(1, r + 1), repeat=len(index.curves)):
                fixed, aliases = config_columns(dict(zip(index.curves, combo)),
                                                index.curves, index.col)
                lb, ub = relaxed.lb.copy(), relaxed.ub.copy()
                lb[list(fixed)] = ub[list(fixed)] = list(fixed.values())
                configs += 1
                if propagation_infeasible(replace(relaxed, lb=lb, ub=ub)):
                    rejected += 1
                    red = substitute_columns(relaxed, fixed, aliases)
                    assert (not red.feasible
                            or linear_infeasible(red.model)), combo
    assert (configs, rejected) == (508, 437)


def test_propagation_on_configuration_models_rejects_only_what_the_lp_does(
        instances):
    """On the configuration models of the same 508 configurations,
    propagation rejects more (447), and the HiGHS LP rejects each of them
    too."""
    configs = rejected = 0
    for inst in instances.values():
        for r in (2, 4):
            hull, index = hull_model(inst, PwaConfig(r=r))
            for combo in product(range(1, r + 1), repeat=len(index.curves)):
                model, _ = config_model(hull, index,
                                        dict(zip(index.curves, combo)))
                configs += 1
                if propagation_infeasible(model):
                    rejected += 1
                    assert linear_infeasible(model), combo
    assert (configs, rejected) == (508, 447)


def test_relaxed_small2area_solves_tight(instances, small2area_model):
    model, index = small2area_model
    assert not linear_infeasible(relax(model))
    sol = solve_convex(relax(model))
    assert sol.status == "Optimal"
    assert sol.residuals.max_eq <= 1e-8
    assert sol.residuals.max_ineq <= 1e-8
    # lower bound against a known feasible mixed-integer point
    witness = small_witness_point(model, index)
    assert sol.objective <= model.objective(witness) + 1e-8


def test_solver_is_deterministic(small2area_model):
    model, _ = small2area_model
    s1 = solve_convex(relax(model))
    s2 = solve_convex(relax(model))
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations


def test_kkt_stationarity_via_finite_differences(small2area_model):
    """At the reported optimum the objective gradient (finite differences)
    plus the weighted constraint normals cancels out."""
    model, _ = small2area_model
    relaxed = relax(model)
    sol = solve_convex(relaxed)
    x = sol.x
    n = model.num_vars
    h = 1e-6
    grad_f = np.zeros(n)
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        grad_f[j] = (relaxed.objective(xp) - relaxed.objective(xm)) / (2 * h)
    duals = sol.duals
    res = (grad_f + relaxed.a_eq.T @ duals["eq"]
           + relaxed.g_in.T @ duals["ineq"]
           + duals["ub"] - duals["lb"])
    quad = relaxed.quad_ineq
    for k, j, c in zip(quad.q_row, quad.q_col, quad.q_coef):
        res[j] += duals["quad"][k] * 2.0 * c * x[j]
    for k, j, c in zip(quad.l_row, quad.l_col, quad.l_coef):
        res[j] += duals["quad"][k] * c
    free = ~(np.isfinite(relaxed.lb) & (relaxed.lb == relaxed.ub))
    assert np.abs(res[free]).max() <= 1e-5


def test_engine_adapter_seam(monkeypatch, small2area_model):
    """solve_convex hands the full-size model to the interior point once."""
    model, _ = small2area_model
    calls = []
    ipm = ogpf.convexsolve.solve_ipm

    def recording_ipm(m, *args, **kw):
        calls.append(m.num_vars)
        return ipm(m, *args, **kw)

    monkeypatch.setattr(ogpf.convexsolve, "solve_ipm", recording_ipm)
    sol = solve_convex(relax(model))
    assert sol.status == "Optimal"
    assert calls == [model.num_vars]


def test_capped_solve_runs_the_interior_point_once(monkeypatch,
                                                   small2area_model):
    """The verdict on an unconverged solve is HiGHS's, not a second
    interior point's."""
    model, _ = small2area_model
    calls = []
    ipm = ogpf.convexsolve.solve_ipm

    def recording_ipm(m, *args, **kw):
        calls.append(m.num_vars)
        return ipm(m, *args, **kw)

    monkeypatch.setattr(ogpf.convexsolve, "solve_ipm", recording_ipm)
    monkeypatch.setattr(ogpf.ipm, "_MAX_ITER", 3)
    sol = solve_convex(relax(model))
    assert sol.status == "MaxIter"
    assert calls == [model.num_vars]


def test_rejects_integral_model(small2area_model):
    model, _ = small2area_model
    with pytest.raises(ogpf.ConfigError):
        solve_convex(model)


def test_iteration_cap_returns_best_iterate(monkeypatch, small2area_model):
    model, _ = small2area_model
    monkeypatch.setattr(ogpf.ipm, "_MAX_ITER", 4)
    sol = solve_convex(relax(model))
    assert sol.status == "MaxIter"
    assert np.isfinite(sol.objective)
    assert np.isfinite(sol.residuals.max_eq)


# ---------------------------------------------------------------------------
# consensus mode
# ---------------------------------------------------------------------------

def _consensus_inputs(instances, name, r):
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=r))
    relaxed = relax(model)
    return relaxed, area_views(relaxed, inst, index)


def test_consensus_single_area_reduces_to_centralized(instances):
    """One area is one KKT block with an empty border: the centralized
    solve itself."""
    relaxed, areas = _consensus_inputs(instances, "single1area", 2)
    dis = solve_consensus(relaxed, areas)
    cen = solve_convex(relaxed)
    assert not np.concatenate(areas).any()
    assert dis.x.tobytes() == cen.x.tobytes()
    assert dis.iterations == cen.iterations


def _toy_views(eq_area=(-1,)):
    # x is area 1 (block 0), y area 2 (block 1); the row x = y is a
    # coupling row (-1) unless ``eq_area`` gives it to an area
    return np.array([0, 1]), np.array(eq_area)


def _toy_model(rows=1):
    # (x - 1)^2 + (y - 3)^2 with the coupling x = y (repeated ``rows``
    # times): optimum at 2
    return StandardModel(
        2, np.array([1.0, 1.0]), np.array([-2.0, -6.0]), 10.0,
        sp.csr_matrix(np.tile([1.0, -1.0], (rows, 1))), np.zeros(rows),
        sp.csr_matrix((0, 2)), np.zeros(0), no_quad(2),
        np.array([-10.0, -10.0]), np.array([10.0, 10.0]),
        np.zeros(2, dtype=bool))


def test_consensus_two_area_toy_averages_minimizers():
    sol = solve_consensus(_toy_model(), _toy_views())
    assert sol.status == "Optimal"
    assert abs(sol.x[0] - 2.0) <= 1e-8
    assert abs(sol.x[1] - 2.0) <= 1e-8
    assert sol.objective == pytest.approx(2.0, abs=1e-8)


def test_consensus_rejects_rows_spanning_areas():
    """A row that joins two areas but is not a coupling row would put an
    entry of the KKT matrix between two area blocks."""
    with pytest.raises(ogpf.ModelError, match="spans two areas"):
        solve_consensus(_toy_model(), _toy_views((0,)))


def test_singular_border_ends_stalled(monkeypatch):
    """Without the dual regularization, a repeated coupling row makes the
    border's Schur complement exactly singular: the solve stalls, as a
    singular K does, and solve_convex falls back to the probe."""
    monkeypatch.setattr(ogpf.ipm, "_REG_DUAL", 0.0)
    model = _toy_model(rows=2)
    areas = _toy_views((-1, -1))
    res = ogpf.ipm.solve_ipm(model, areas)
    assert res.status == "stalled" and np.isfinite(res.x).all()
    sol = solve_consensus(model, areas)
    assert (sol.status, sol.iterations) == ("MaxIter", 1)


@pytest.mark.parametrize("name,r", [(name, r) for name in (
    "small2area", "chain2area", "medium3area") for r in (2, 4, 8)])
def test_consensus_matches_centralized(instances, name, r):
    """The area-blocked KKT solve takes the centralized Newton steps: same
    status, iterations and certificate, objective to rounding."""
    inst = instances[name]
    cen = ogpf.solve_two_stage(inst, r)
    dis = ogpf.solve_two_stage(inst, r, mode="consensus")
    assert dis.solution.status == cen.solution.status == "Optimal"
    assert dis.solution.iterations == cen.solution.iterations
    assert dis.objective == pytest.approx(cen.objective, rel=1e-9)
    assert dis.certificate.kind == cen.certificate.kind
    assert dis.certificate.bound == pytest.approx(cen.certificate.bound,
                                                  rel=1e-9)


def test_consensus_matches_centralized_on_small2area(instances):
    """At the model level and default options: the same status and
    iterations as ``solve_convex``, the objective to rounding."""
    relaxed, areas = _consensus_inputs(instances, "small2area", 2)
    dis = solve_consensus(relaxed, areas)
    cen = solve_convex(relaxed)
    assert dis.status == cen.status == "Optimal"
    assert dis.iterations == cen.iterations
    rel = abs(dis.objective - cen.objective) / max(1.0, abs(cen.objective))
    assert rel <= 1e-9


def _kkt_work(monkeypatch, solve):
    """Run ``solve``; return its solution, the (largest block, size of K,
    border size) of every KKT factorization and the number of KKT
    solves."""
    factors, solves = [], [0]
    factor = ogpf.ipm.KktPartition.factor
    back = ogpf.ipm._Factor.solve

    def counting_factor(self, K):
        factors.append((max(b.idx.size for b in self.blocks), K.shape[0],
                        self.border.size))
        return factor(self, K)

    def counting_solve(self, rhs):
        solves[0] += 1
        return back(self, rhs)

    with monkeypatch.context() as m:
        m.setattr(ogpf.ipm.KktPartition, "factor", counting_factor)
        m.setattr(ogpf.ipm._Factor, "solve", counting_solve)
        sol = solve()
    return sol, factors, solves[0]


@pytest.mark.parametrize("name,r", [(name, r) for name in (
    "small2area", "chain2area", "medium3area") for r in (2, 4)])
def test_blocked_step_costs_no_extra_kkt_work(monkeypatch, instances, name,
                                              r):
    """The area-blocked Newton step costs no KKT evaluation the centralized
    solve does not make: as many factorizations and as many solves, each
    factorization over area blocks smaller than K joined by a border of at
    most six coupling rows."""
    relaxed, areas = _consensus_inputs(instances, name, r)
    cen, cen_f, cen_s = _kkt_work(monkeypatch, lambda: solve_convex(relaxed))
    dis, dis_f, dis_s = _kkt_work(
        monkeypatch, lambda: solve_consensus(relaxed, areas))
    assert dis.status == cen.status == "Optimal"
    assert dis.iterations == cen.iterations
    # one factorization per iteration but the last, which converges
    assert len(dis_f) == len(cen_f) == cen.iterations - 1
    assert dis_s == cen_s
    assert all(big == size and nb == 0 for big, size, nb in cen_f)
    assert all(big < size and 0 < nb <= 6 for big, size, nb in dis_f)


def test_area_probe_runs_once_per_area(monkeypatch, instances):
    """The probe verdict reads only the constraints, which the areas share
    through the border: a capped consensus solve ends MaxIter and probes
    once, on the whole model, for all areas together."""
    relaxed, areas = _consensus_inputs(instances, "small2area", 2)
    calls = []
    probe = ogpf.convexsolve.feasibility_probe

    def counting(model):
        calls.append(model.num_vars)
        return probe(model)

    monkeypatch.setattr(ogpf.convexsolve, "feasibility_probe", counting)
    monkeypatch.setattr(ogpf.ipm, "_MAX_ITER", 3)
    sol = solve_consensus(relaxed, areas)
    assert sol.status == "MaxIter"
    assert calls == [relaxed.num_vars]


def test_consensus_repeats_bitwise(instances):
    relaxed, areas = _consensus_inputs(instances, "small2area", 4)
    a = solve_consensus(relaxed, areas)
    b = solve_consensus(relaxed, areas)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.iterations == b.iterations


def test_consensus_infeasible_like_centralized(instances):
    # every demand ten times over: more than the sources and generators
    # can supply
    base = instances["small2area"]
    inst = ogpf.scale_demands(base, [10.0] * len(base.buses),
                              [10.0] * len(base.gas_nodes))
    errors = []
    for mode in ("centralized", "consensus"):
        with pytest.raises(ogpf.OgpfError) as err:
            ogpf.solve_two_stage(inst, 4, mode=mode)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == "stage 1: relaxed problem is infeasible"


def test_unknown_mode_is_rejected_before_the_build(monkeypatch, small2area):
    def build(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ogpf.twostage, "build_model", build)
    with pytest.raises(ogpf.ConfigError, match="unknown solve mode 'admm'"):
        ogpf.solve_two_stage(small2area, 4, mode="admm")
