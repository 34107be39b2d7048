import numpy as np
import pytest
import scipy.sparse as sp

import ogpf
import ogpf.convexsolve
import ogpf.ipm
from ogpf.convexsolve import (ConsensusOptions, SolveOptions,
                              linear_infeasible, solve_consensus, solve_convex)
from ogpf.mipbuild import (AreaView, QuadBlock, StandardModel, area_views,
                           build_model, relax)
from ogpf.pwa import PwaConfig

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
    assert linear_infeasible(relax(model), SolveOptions())


def test_linear_screen_rejects_contradictory_balance():
    # x + y = 3 with both columns boxed to [0, 1]
    model = StandardModel(
        2, np.zeros(2), np.zeros(2), 0.0, sp.csr_matrix([[1.0, 1.0]]),
        np.array([3.0]), sp.csr_matrix((0, 2)), np.zeros(0), no_quad(2),
        np.zeros(2), np.ones(2), np.zeros(2, dtype=bool))
    assert linear_infeasible(model, SolveOptions())
    assert solve_convex(model).status == "Infeasible"


def test_quadratic_only_infeasibility_passes_screen_and_hits_probe():
    # x in [1, 2], y in [0, 0.5], x^2 - y <= 0: the linear part is feasible
    model = StandardModel(
        2, np.zeros(2), np.array([1.0, 0.0]), 0.0, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix((0, 2)), np.zeros(0),
        QuadBlock(2, [0], [0], [1.0], [0], [1], [-1.0], [0.0]),
        np.array([1.0, 0.0]), np.array([2.0, 0.5]), np.zeros(2, dtype=bool))
    assert not linear_infeasible(model, SolveOptions())
    assert solve_convex(model).status == "Infeasible"


def test_relaxed_small2area_solves_tight(instances, small2area_model):
    model, index = small2area_model
    opts = SolveOptions(feas_tol=1e-10, opt_tol=1e-10)
    assert not linear_infeasible(relax(model), opts)
    sol = solve_convex(relax(model), opts)
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
    sol = solve_convex(relaxed, SolveOptions(feas_tol=1e-10, opt_tol=1e-10))
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


def test_rejects_integral_model(small2area_model):
    model, _ = small2area_model
    with pytest.raises(ogpf.ConfigError):
        solve_convex(model)


def test_iteration_cap_returns_best_iterate(small2area_model):
    model, _ = small2area_model
    sol = solve_convex(relax(model), SolveOptions(feas_tol=1e-12,
                                                  opt_tol=1e-14, max_iter=4))
    assert sol.status == "MaxIter"
    assert np.isfinite(sol.objective)
    assert np.isfinite(sol.residuals.max_eq)


# ---------------------------------------------------------------------------
# consensus mode
# ---------------------------------------------------------------------------

def test_consensus_single_area_reduces_to_centralized(instances):
    inst = instances["single1area"]
    model, index = build_model(inst, PwaConfig(r=2))
    relaxed = relax(model)
    views = area_views(relaxed, inst, index)
    dis = solve_consensus(relaxed, views)
    cen = solve_convex(relaxed)
    assert dis.iterations == 1
    assert dis.objective == pytest.approx(cen.objective, abs=1e-9)


def test_consensus_two_area_toy_averages_minimizers():
    # (x - 1)^2 + (y - 3)^2 with the coupling x = y: optimum at 2
    model = StandardModel(
        2, np.array([1.0, 1.0]), np.array([-2.0, -6.0]), 10.0,
        sp.csr_matrix(np.array([[1.0, -1.0]])), np.zeros(1),
        sp.csr_matrix((0, 2)), np.zeros(0), no_quad(2),
        np.array([-10.0, -10.0]), np.array([10.0, 10.0]),
        np.zeros(2, dtype=bool))
    views = [
        AreaView(1, np.array([0]), np.array([0]), np.zeros(0, int),
                 np.zeros(0, int), np.array([0]), np.array([1])),
        AreaView(2, np.array([1]), np.zeros(0, int), np.zeros(0, int),
                 np.zeros(0, int), np.zeros(0, int), np.zeros(0, int)),
    ]
    sol = solve_consensus(model, views, ConsensusOptions(max_outer=300))
    assert abs(sol.x[0] - 2.0) <= 1e-3
    assert abs(sol.x[1] - 2.0) <= 1e-3
    assert sol.objective == pytest.approx(2.0, abs=1e-3)


def test_consensus_matches_centralized_on_small2area(instances):
    inst = instances["small2area"]
    model, index = build_model(inst, PwaConfig(r=2))
    relaxed = relax(model)
    views = area_views(relaxed, inst, index)
    dis = solve_consensus(relaxed, views)
    cen = solve_convex(relaxed)
    rel = abs(dis.objective - cen.objective) / max(1.0, abs(cen.objective))
    assert rel <= 1e-4
    assert dis.iterations <= 500


def test_consensus_nonconvergence_raises_with_advice(instances):
    from ogpf.errors import NonConvergence

    inst = instances["chain2area"]
    model, index = build_model(inst, PwaConfig(r=2))
    relaxed = relax(model)
    views = area_views(relaxed, inst, index)
    with pytest.raises(NonConvergence, match="rho"):
        solve_consensus(relaxed, views, ConsensusOptions(max_outer=2))


def test_consensus_records_residual_history(instances):
    inst = instances["small2area"]
    model, index = build_model(inst, PwaConfig(r=2))
    relaxed = relax(model)
    views = area_views(relaxed, inst, index)
    opts = ConsensusOptions()
    dis = solve_consensus(relaxed, views, opts)
    assert dis.status == "Optimal"
    assert len(dis.history) == dis.iterations
    final_primal, _ = dis.history[-1]
    assert final_primal <= opts.primal_tol


def _consensus_inputs(instances, name, r):
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=r))
    relaxed = relax(model)
    return relaxed, area_views(relaxed, inst, index)


def test_consensus_repeats_bitwise(instances):
    """Warm-start state lives on one call's area problems only."""
    relaxed, views = _consensus_inputs(instances, "small2area", 4)
    a = solve_consensus(relaxed, views)
    b = solve_consensus(relaxed, views)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.history == b.history and a.iterations == b.iterations


def _area_iterations(monkeypatch, relaxed, views):
    """Consensus solution and the total IPM iterations of its area solves."""
    total = [0]
    iterate = ogpf.ipm._iterate

    def counting(*args):
        res = iterate(*args)
        total[0] += res.iterations
        return res

    monkeypatch.setattr(ogpf.ipm, "_iterate", counting)
    sol = solve_consensus(relaxed, views)
    monkeypatch.setattr(ogpf.ipm, "_iterate", iterate)
    return sol, total[0]


# outer iterations and objective of consensus with cold area restarts,
# recorded from the dict-based synchronisation the array version replaced
COLD_CONSENSUS = {
    ("small2area", 2): (47, 1.969998899128422),
    ("small2area", 4): (47, 1.9699988998558702),
    ("chain2area", 2): (41, 1.1328766572881033),
    ("chain2area", 4): (41, 1.132876657290272),
}


def _plain_admm(monkeypatch):
    """Switch off Anderson acceleration and inexact area solves."""
    monkeypatch.setattr(ogpf.convexsolve, "_AA_MEMORY", 0)
    monkeypatch.setattr(ogpf.convexsolve, "_INEXACT", 0.0)


@pytest.mark.parametrize("name,r", sorted(COLD_CONSENSUS))
def test_warm_start_cuts_area_iterations(monkeypatch, instances, name, r):
    _plain_admm(monkeypatch)
    relaxed, views = _consensus_inputs(instances, name, r)
    warm, warm_iters = _area_iterations(monkeypatch, relaxed, views)
    # a recording threshold no gap meets: every area solve starts cold
    monkeypatch.setattr(ogpf.ipm, "_WARM_GAP", -1.0)
    cold, cold_iters = _area_iterations(monkeypatch, relaxed, views)
    assert (cold.iterations, cold.objective) == COLD_CONSENSUS[(name, r)]
    assert warm.iterations == cold.iterations
    assert warm_iters <= 0.6 * cold_iters
    cen = solve_convex(relaxed, SolveOptions(feas_tol=1e-10, opt_tol=1e-10))
    for sol in (warm, cold):
        assert abs(sol.objective - cen.objective) <= 1e-4 * max(
            1.0, abs(cen.objective))


def test_area_probe_runs_once_per_area(monkeypatch, instances):
    """Capped area solves end MaxIter on every outer iteration; the probe
    verdict, which reads only the constraints, is reused after the first."""
    from ogpf.errors import NonConvergence

    relaxed, views = _consensus_inputs(instances, "small2area", 2)
    calls = []
    probe = ogpf.convexsolve.feasibility_probe

    def counting(model, opts):
        calls.append(model.num_vars)
        return probe(model, opts)

    monkeypatch.setattr(ogpf.convexsolve, "feasibility_probe", counting)
    opts = ConsensusOptions(max_outer=4, inner=SolveOptions(max_iter=3))
    with pytest.raises(NonConvergence, match="rho"):
        solve_consensus(relaxed, views, opts)
    assert len(calls) == len(views)


@pytest.mark.parametrize("name,r", [(name, r) for name in (
    "small2area", "chain2area", "medium3area") for r in (2, 4)])
def test_acceleration_never_costs_evaluations(monkeypatch, instances, name, r):
    """Anderson acceleration with inexact area solves needs no more
    evaluations of the ADMM map than plain ADMM, and cuts the slow
    medium3area run by at least 3x."""
    relaxed, views = _consensus_inputs(instances, name, r)
    fast = solve_consensus(relaxed, views)
    _plain_admm(monkeypatch)
    plain = solve_consensus(relaxed, views)
    assert fast.status == plain.status == "Optimal"
    assert fast.iterations <= plain.iterations
    if (name, r) == ("medium3area", 2):
        assert 3 * fast.iterations <= plain.iterations
    cen = solve_convex(relaxed, SolveOptions(feas_tol=1e-10, opt_tol=1e-10))
    for sol in (fast, plain):
        assert abs(sol.objective - cen.objective) <= 1e-4 * max(
            1.0, abs(cen.objective))


def test_rejected_candidates_count_as_evaluations(monkeypatch, instances):
    """A safeguard that rejects every Anderson candidate costs one
    evaluation per rejection, each recorded in the history; the run stays
    deterministic and still converges through the plain steps."""
    relaxed, views = _consensus_inputs(instances, "small2area", 2)
    accepted = solve_consensus(relaxed, views)
    monkeypatch.setattr(ogpf.convexsolve, "_AA_SAFE_D", 0.0)
    a = solve_consensus(relaxed, views)
    b = solve_consensus(relaxed, views)
    assert a.x.tobytes() == b.x.tobytes() and a.history == b.history
    assert a.status == "Optimal"
    assert len(a.history) == a.iterations > accepted.iterations
    assert len(accepted.history) == accepted.iterations


@pytest.mark.parametrize("make", [
    lambda: SolveOptions(feas_tol=0.0),
    lambda: SolveOptions(max_iter=0),
    lambda: ConsensusOptions(rho=0.0),
    lambda: ConsensusOptions(max_outer=0),
    lambda: ConsensusOptions(primal_tol=0.0),
    lambda: ConsensusOptions(dual_tol=-1.0),
])
def test_bad_options_raise_config_error(make):
    with pytest.raises(ogpf.ConfigError):
        make()
