import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import ogpf
import ogpf.convexsolve
import ogpf.ipm
from ogpf.convexsolve import solve_convex
from ogpf.ipm import Kkt, KktPartition, solve_ipm
from ogpf.mipbuild import (QuadBlock, StandardModel, area_views, build_model,
                           relax)
from ogpf.pwa import PwaConfig

from conftest import BUNDLED, no_quad


def _reference_rows(block, x):
    """Values and dense gradients of the quadratic rows, term by term."""
    value = block.d.copy()
    grad = np.zeros((len(block), block.n))
    for k, j, c in zip(block.q_row, block.q_col, block.q_coef):
        value[k] += c * x[j] * x[j]
        grad[k, j] += 2.0 * c * x[j]
    for k, j, c in zip(block.l_row, block.l_col, block.l_coef):
        value[k] += c * x[j]
        grad[k, j] += c
    return value, grad


@pytest.mark.parametrize("name", ["small2area", "loop1area"])
def test_kkt_refill_matches_explicit_assembly(instances, name):
    model, _ = build_model(instances[name], PwaConfig(r=4))
    model = relax(model)
    n, me = model.num_vars, model.num_eq
    G, A = model.g_in, model.a_eq
    quad = model.quad_ineq
    kkt = Kkt(G, A, quad)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-2.0, 2.0, n)
        W = rng.uniform(0.1, 10.0, model.num_in)
        V = rng.uniform(0.1, 10.0, len(quad))
        H = rng.uniform(0.1, 10.0, n)
        K = kkt.fill(W, H, V, quad.jac(x)).toarray()

        J = sp.csr_matrix(_reference_rows(quad, x)[1])
        M = G.T @ sp.diags(W) @ G + sp.diags(H) + J.T @ sp.diags(V) @ J
        ref = sp.bmat([[M, A.T], [A, -1e-10 * sp.identity(me)]]).toarray()
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()


def test_quad_block_matches_rows():
    # rows: 1.5 x0^2 + 0.5 x2^2 - x0 + 2 x1 + 3,  4 x2 - 1,  2 x1^2 + 0.5
    block = QuadBlock(3, [0, 0, 2], [0, 2, 1], [1.5, 0.5, 2.0],
                      [0, 0, 1], [0, 1, 2], [-1.0, 2.0, 4.0],
                      [3.0, -1.0, 0.5])
    x = np.array([0.3, -1.2, 2.5])
    mu = np.array([0.7, 1.1, 0.4])
    value, grad = _reference_rows(block, x)
    jac = np.zeros((3, 3))
    jac[block.j_row, block.j_col] = block.jac(x)
    # the block holds numbers only; the model's VarIndex names its rows
    assert len(block) == 3 and all(
        isinstance(getattr(block, f.name), (int, np.ndarray))
        for f in dataclasses.fields(block))
    assert np.allclose(block.value(x), value)
    assert np.allclose(jac, grad)
    assert np.allclose(block.jac_t(block.jac(x), mu), grad.T @ mu)
    assert np.allclose(block.jac_mul(block.jac(x), x), grad @ x)
    assert np.allclose(block.hess_diag(mu), [2 * (0.7 * 1.5), 2 * (0.4 * 2.0),
                                             2 * (0.7 * 0.5)])
    zero = np.zeros(3)
    assert np.allclose(block.curvature(x),
                       value - _reference_rows(block, zero)[0]
                       - _reference_rows(block, zero)[1] @ x)


# certificate, IPM iterations and objective of the two-stage solve, recorded
# from the dense-LU engine this sparse core replaced
RECORDED = {
    ("small2area", 4): ("Optimal", 18, 1.9700000000000903),
    ("small2area", 8): ("Optimal", 19, 1.9700000000000704),
    ("small2area", 16): ("Optimal", 20, 1.970000000000143),
    ("small2area", 32): ("Optimal", 20, 1.9700000000001747),
    ("single1area", 4): ("Optimal", 12, 0.511200000000145),
    ("single1area", 8): ("Optimal", 12, 0.5112000000001733),
    ("single1area", 16): ("Optimal", 13, 0.5112000000000009),
    ("single1area", 32): ("Optimal", 13, 0.5112000000001139),
    ("chain2area", 4): ("Optimal", 14, 1.1328750000000412),
    ("chain2area", 8): ("Optimal", 15, 1.1328750000002406),
    ("chain2area", 16): ("Optimal", 15, 1.1328750000087964),
    ("chain2area", 32): ("Optimal", 16, 1.1328750000001955),
    ("medium3area", 4): ("Optimal", 17, 3.471550000000089),
    ("medium3area", 8): ("Optimal", 17, 3.471550000002843),
    ("medium3area", 16): ("Optimal", 20, 3.4715500000001467),
    ("medium3area", 32): ("Optimal", 21, 3.471550000000472),
    ("loop1area", 4): ("Approximate", 11, 0.5090000000007093),
    ("loop1area", 8): ("Approximate", 12, 0.5090000000000121),
    ("loop1area", 16): ("Approximate", 12, 0.5090000000001855),
    ("loop1area", 32): ("Approximate", 12, 0.509000000000349),
}


@pytest.mark.parametrize("name,r", sorted(RECORDED))
def test_bundled_results_match_recorded(instances, name, r):
    kind, iterations, objective = RECORDED[(name, r)]
    res = ogpf.solve_two_stage(instances[name], r, stage1="bigm")
    assert res.certificate.kind == kind
    assert res.solution.iterations == iterations
    assert res.objective == pytest.approx(objective, rel=1e-9)


def test_kkt_memory_stays_sparse(instances):
    """A dense KKT of order n + me (~2140 at r=64) alone takes ~37 MB."""
    inst = instances["medium3area"]
    tracemalloc.start()
    try:
        res = ogpf.solve_two_stage(inst, 64, stage1="bigm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.certificate.is_optimal
    assert peak < 20 * 2 ** 20


def test_equality_qp_uses_single_solve():
    # minimize x0^2 + x1^2 subject to x0 + x1 = 2, no bounds
    model = StandardModel(
        2, np.ones(2), np.zeros(2), 0.0, sp.csr_matrix([[1.0, 1.0]]),
        np.array([2.0]), sp.csr_matrix((0, 2)), np.zeros(0), no_quad(2),
        np.full(2, -np.inf), np.full(2, np.inf), np.zeros(2, dtype=bool))
    res = solve_ipm(model)
    assert res.status == "optimal" and res.iterations == 1
    assert np.allclose(res.x, [1.0, 1.0])


def _stationarity(model, sol):
    """Gradient of the Lagrangian at ``sol`` from its reported duals."""
    duals = sol.duals
    quad = model.quad_ineq
    return (2.0 * model.obj_quad * sol.x + model.obj_lin
            + model.a_eq.T @ duals["eq"] + model.g_in.T @ duals["ineq"]
            + quad.jac_t(quad.jac(sol.x), duals["quad"])
            + duals["ub"] - duals["lb"])


def test_quadratic_row_without_equality_rows():
    """No equality rows, no model inequality rows, one quadratic row:
    minimize y - x subject to x^2 - y <= 0, x in [-2, 2], y in [0, 4],
    whose optimum is x = 1/2, y = 1/4 with the row's multiplier 1."""
    model = StandardModel(
        2, np.zeros(2), np.array([-1.0, 1.0]), 0.0, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix((0, 2)), np.zeros(0),
        QuadBlock(2, [0], [0], [1.0], [0], [1], [-1.0], [0.0]),
        np.array([-2.0, 0.0]), np.array([2.0, 4.0]), np.zeros(2, dtype=bool))
    sol = solve_convex(model)
    assert sol.status == "Optimal"
    assert np.abs(sol.x - [0.5, 0.25]).max() <= 1e-8
    assert sol.duals["quad"] == pytest.approx([1.0], abs=1e-8)
    assert np.abs(_stationarity(model, sol)).max() <= 1e-8


def test_inequality_row_with_lower_bounds_only():
    """No equality or quadratic rows and no finite upper bound: minimize
    (x0 - 1)^2 + (x1 - 3/2)^2 subject to x0 + x1 <= 1, x >= 0, whose
    optimum is the projection (1/4, 3/4) with the row's multiplier 3/2."""
    model = StandardModel(
        2, np.ones(2), np.array([-2.0, -3.0]), 3.25, sp.csr_matrix((0, 2)),
        np.zeros(0), sp.csr_matrix([[1.0, 1.0]]), np.array([1.0]),
        no_quad(2), np.zeros(2), np.full(2, np.inf), np.zeros(2, dtype=bool))
    sol = solve_convex(model)
    assert sol.status == "Optimal"
    assert np.abs(sol.x - [0.25, 0.75]).max() <= 1e-8
    assert sol.duals["ineq"] == pytest.approx([1.5], abs=1e-8)
    assert np.abs(_stationarity(model, sol)).max() <= 1e-8


def test_inconsistent_vanished_row_skips_engine_and_probe(monkeypatch):
    # 0 * x = 1: the presolve proves it infeasible before any iteration
    model = StandardModel(
        1, np.ones(1), np.zeros(1), 0.0, sp.csr_matrix((1, 1)),
        np.array([1.0]), sp.csr_matrix((0, 1)), np.zeros(0), no_quad(1),
        np.zeros(1), np.ones(1), np.zeros(1, dtype=bool))
    calls = []
    ipm = ogpf.convexsolve.solve_ipm

    def recording_ipm(*args, **kw):
        res = ipm(*args, **kw)
        calls.append((res.status, res.iterations))
        return res

    monkeypatch.setattr(ogpf.convexsolve, "solve_ipm", recording_ipm)
    monkeypatch.setattr(ogpf.ipm, "_iterate",
                        lambda *a: calls.append("iterate"))
    monkeypatch.setattr(ogpf.convexsolve, "feasibility_probe",
                        lambda *a: calls.append("probe"))
    sol = solve_convex(model)
    assert sol.status == "Infeasible"
    assert calls == [("infeasible", 0)]


def test_solve_ipm_rejects_integral_model(small2area_model):
    model, _ = small2area_model
    with pytest.raises(ogpf.ConfigError):
        solve_ipm(model)


def _kkt_and_labels(instances, name, r):
    """Kkt of the relaxed full model, refilled at random weights, and the
    KKT label of every column and equality row by area (-1 for the
    coupling rows)."""
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=r))
    model = relax(model)
    label = np.concatenate(area_views(model, inst, index))
    kkt = Kkt(model.g_in, model.a_eq, model.quad_ineq)
    rng = np.random.default_rng(5)
    K = kkt.fill(rng.uniform(0.1, 10.0, model.num_in),
                 rng.uniform(0.1, 10.0, model.num_vars),
                 rng.uniform(0.1, 10.0, len(model.quad_ineq)),
                 model.quad_ineq.jac(rng.uniform(-2.0, 2.0, model.num_vars)))
    return K, label, rng


@pytest.mark.parametrize("name", ["small2area", "chain2area", "medium3area"])
def test_area_blocks_solve_the_whole_kkt(instances, name):
    """Factoring each area's block and the coupling rows' Schur complement
    solves the same system as factoring K whole."""
    K, label, rng = _kkt_and_labels(instances, name, 4)
    part = KktPartition(K, label)
    assert len(part.blocks) == len(set(label.tolist()) - {-1}) > 1
    assert 0 < part.border.size <= 6
    rhs = rng.standard_normal(K.shape[0])
    whole = splu(K, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    sol = part.factor(K).solve(rhs)
    assert np.abs(sol - whole).max() <= 1e-8 * np.abs(whole).max()
    assert np.abs(K @ sol - rhs).max() <= 1e-8 * np.abs(rhs).max()


def test_one_block_factors_k_itself(instances):
    """The unpartitioned case is bitwise the solve of K's own factor."""
    K, label, rng = _kkt_and_labels(instances, "medium3area", 4)
    rhs = rng.standard_normal(K.shape[0])
    part = KktPartition(K, np.zeros_like(label))
    assert part.border.size == 0 and len(part.blocks) == 1
    sol = part.factor(K).solve(rhs)
    whole = ogpf.ipm._lu(K).solve(rhs)
    assert sol.tobytes() == whole.tobytes()


def test_non_finite_border_raises_runtime_error():
    """The interior point ends a solve as stalled on RuntimeError from the
    factorization; a non-finite border must take that path too."""
    K = sp.csc_matrix(np.array([[2.0, 0.0, 1.0],
                                [0.0, 2.0, 1.0],
                                [1.0, 1.0, -np.inf]]))
    part = KktPartition(K, np.array([0, 1, -1]))
    with pytest.raises(RuntimeError, match="non-finite"):
        part.factor(K)


_FIELDS = ("x", "nu", "lam_in", "lam_lb", "lam_ub", "mu_quad")


def _same(a, b):
    return (a.status == b.status and a.iterations == b.iterations
            and all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                    for f in _FIELDS))


@pytest.mark.parametrize("name", BUNDLED)
def test_prepared_solve_matches_solve_ipm(instances, name):
    """The area labels of ``area_views`` give ``solve_ipm``
    the centralized iterates: bitwise with one area (one block, empty
    border), and with several the same status and iterations and the
    objective to rounding. A second solve with the same labelling repeats
    the first bitwise: the partition keeps nothing between solves."""
    inst = instances[name]
    model, index = build_model(inst, PwaConfig(r=4))
    model = relax(model)
    areas = area_views(model, inst, index)
    whole = solve_ipm(model)
    blocked = solve_ipm(model, areas)
    assert _same(blocked, solve_ipm(model, areas))
    assert whole.status == "optimal"
    if inst.num_areas == 1:
        assert _same(blocked, whole)
    else:
        assert (blocked.status, blocked.iterations) == (whole.status,
                                                        whole.iterations)
        assert model.objective(blocked.x) == pytest.approx(
            model.objective(whole.x), rel=1e-9)
