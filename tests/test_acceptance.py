"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line. Expensive artifacts (oracle sweeps, Monte
Carlo batches) are shared through session fixtures.
"""

import time

import numpy as np
import pytest

import ogpf
from ogpf.convexsolve import solve_convex
from ogpf.mipbuild import build_model, check_point, fit_all_curves, relax
from ogpf.netmodel import scale_demands
from ogpf.oracle import enumerate_solve
from ogpf.pwa import PwaConfig, emit_mld, fit_pwa, max_region_error
from ogpf.recovery import solve_pressure_lp
from ogpf.twostage import solve_two_stage

from conftest import direct_lp, expand_point

SMALL = ["small2area", "single1area", "chain2area"]
MULTI_AREA = ["small2area", "chain2area", "medium3area"]


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def _perturbed(inst, rng, sigma=0.1):
    bus_f = rng.uniform(1.0 - sigma, 1.0 + sigma, size=len(inst.buses))
    node_f = rng.uniform(1.0 - sigma, 1.0 + sigma, size=len(inst.gas_nodes))
    return scale_demands(inst, bus_f, node_f)


@pytest.fixture(scope="session")
def oracle_runs(instances):
    """Two-stage vs enumeration on the small bundled instances, r in {2, 4},
    with the wall time of the whole sweep."""
    out = []
    t0 = time.perf_counter()
    for name in SMALL:
        inst = instances[name]
        for r in (2, 4):
            cfg = PwaConfig(r=r)
            model, index = build_model(inst, cfg)
            curves = fit_all_curves(inst, cfg)
            orc = enumerate_solve(model, index, curves)
            ts = solve_two_stage(inst, r)
            out.append({"name": name, "r": r, "oracle": orc.best_objective,
                        "two_stage": ts.objective,
                        "optimal": ts.certificate.is_optimal})
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    certified = [e for e in runs if e["optimal"]]
    worst = 0.0
    for e in certified:
        rel = abs(e["two_stage"] - e["oracle"]) / max(1.0, abs(e["oracle"]))
        worst = max(worst, rel)
    ok = (len(runs) == 6 and len(certified) == 6 and worst <= 1e-6
          and elapsed < 30.0)
    _line(1, "oracle equivalence", ok,
          f"{len(certified)}/6 certified, worst rel gap {worst:.2e}, "
          f"{elapsed:.1f}s (< 30s)")
    assert ok


@pytest.fixture(scope="session")
def monte_carlo_batch(instances):
    """200 seeded perturbed runs across the bundled instances."""
    plan = [("small2area", 2, 50), ("small2area", 4, 30),
            ("single1area", 2, 40), ("chain2area", 2, 50),
            ("chain2area", 4, 30)]
    rng = np.random.default_rng(20240809)
    out = []
    for name, r, count in plan:
        inst = instances[name]
        for _ in range(count):
            perturbed = _perturbed(inst, rng)
            out.append((perturbed, r, solve_two_stage(perturbed, r)))
    return out


def test_criterion_2_exactness_property(monte_carlo_batch):
    runs = monte_carlo_batch
    certified = [(inst, r, res) for inst, r, res in runs
                 if res.certificate.bound <= 1e-8]
    counterexamples = 0
    for inst, r, res in certified:
        # checked on the paper's model, the point expanded onto its columns
        model, index = build_model(inst, PwaConfig(r=r))
        x = expand_point(res.recovery.u_star, res.index,
                         res.recovery.configuration, index)
        rep = check_point(model, x, 1e-6, check_integrality=True)
        exact_obj = (res.model.objective(res.recovery.u_star)
                     == res.solution.objective)
        if not (rep.ok and exact_obj):
            counterexamples += 1
    ok = (len(runs) >= 200 and len(certified) >= 100
          and counterexamples == 0)
    _line(2, "recovered-point exactness", ok,
          f"{len(runs)} runs, {len(certified)} certified at 1e-8, "
          f"{counterexamples} counterexamples")
    assert ok


def test_criterion_3_relaxation_bound(instances, oracle_runs):
    runs, _ = oracle_runs
    pairs = [(f"{e['name']}/r={e['r']}", e["two_stage"], e["oracle"])
             for e in runs]
    # remaining bundled instances at r=2, nominal
    for name in ("medium3area", "loop1area"):
        inst = instances[name]
        cfg = PwaConfig(r=2)
        model, index = build_model(inst, cfg)
        orc = enumerate_solve(model, index, fit_all_curves(inst, cfg))
        sol = solve_convex(relax(model))
        pairs.append((f"{name}/r=2", sol.objective, orc.best_objective))
    # perturbed seeds on the small instances
    rng = np.random.default_rng(7)
    for name in SMALL:
        for _ in range(3):
            inst = _perturbed(instances[name], rng)
            cfg = PwaConfig(r=2)
            model, index = build_model(inst, cfg)
            orc = enumerate_solve(model, index, fit_all_curves(inst, cfg))
            sol = solve_convex(relax(model))
            pairs.append((f"{name}/seeded", sol.objective, orc.best_objective))
    violations = [(tag, lo, hi) for tag, lo, hi in pairs if lo > hi + 1e-8]
    ok = not violations
    worst = max((lo - hi) for _, lo, hi in pairs)
    _line(3, "relaxation lower bound", ok,
          f"{len(pairs)} instance/seed pairs, worst stage1-oracle gap "
          f"{worst:.2e} (<= 1e-8), violations {violations}")
    assert ok


def test_criterion_4_pwa_analytics():
    rng = np.random.default_rng(2024)
    worst_bp = 0.0
    worst_err = 0.0
    over_ok = True
    for _ in range(1000):
        r = int(2 * rng.integers(1, 11))
        c = float(rng.uniform(0.5, 4.0))
        cap = float(rng.uniform(0.5, 8.0))
        curve = fit_pwa(c, cap, PwaConfig(r=r))
        c2 = c * c
        for seg in curve.segments:
            for bp in (seg.lo, seg.hi):
                worst_bp = max(worst_bp, abs(seg.value(bp) - bp * bp / c2))
            analytic = (seg.hi - seg.lo) ** 2 / (4.0 * c2)
            worst_err = max(worst_err, abs(max_region_error(seg, c) - analytic))
            phis = rng.uniform(seg.lo, seg.hi, size=100)
            gap = seg.a * phis + seg.b - phis * phis / c2
            if (gap < -1e-12).any() or (gap > analytic + 1e-9).any():
                over_ok = False
    ok = worst_bp <= 1e-12 and worst_err <= 1e-9 and over_ok
    _line(4, "chord analytics", ok,
          f"worst breakpoint residual {worst_bp:.2e} (<= 1e-12), worst error "
          f"formula gap {worst_err:.2e} (<= 1e-9), overestimation {over_ok}")
    assert ok


def test_criterion_5_mld_logic_soundness():
    from conftest import pair_index, row_values

    rng = np.random.default_rng(99)
    counts = {k: [0, 0] for k in
              ("psi_order", "flow_sign", "region", "prod_flow", "prod_psi")}
    mismatches = []

    for _ in range(125):
        r = int(2 * rng.integers(1, 5))
        c = float(rng.uniform(0.5, 3.0))
        cap = float(rng.uniform(0.5, 5.0))
        eps = 10.0 ** rng.uniform(-7, -4)
        lo_i, lo_j = rng.uniform(0.0, 2.0, size=2)
        box_i = (lo_i, lo_i + rng.uniform(1.0, 5.0))
        box_j = (lo_j, lo_j + rng.uniform(1.0, 5.0))
        cfg = PwaConfig(r=r, epsilon=eps)
        curve = fit_pwa(c, cap, cfg)
        index = pair_index(r)
        ineq, _ = emit_mld({("i", "j"): curve}, cfg, index.col,
                           {"i": box_i, "j": box_j})
        by_family = {}
        for k in np.flatnonzero(ineq.owner == 0):
            by_family.setdefault(ineq.keys[k][0], []).append(k)

        def rows_ok(family_rows, x):
            return bool((row_values(ineq, x)[family_rows]
                         <= ineq.rhs[family_rows]).all())

        key = ("i", "j")
        for _ in range(8):
            x = np.zeros(len(index))
            psi_i = rng.uniform(*box_i)
            psi_j = rng.uniform(*box_j)
            if rng.random() < 0.2:
                psi_j = min(max(psi_i, box_j[0]), box_j[1])
            phi = float(rng.uniform(-cap, cap))
            dpsi = int(rng.integers(0, 2))
            x[index.col("psi", "i")] = psi_i
            x[index.col("psi", "j")] = psi_j
            x[index.col("phi", key)] = phi
            x[index.col("dpsi", key)] = dpsi

            # block 1: pressure order
            got = rows_ok(by_family["psi_order_up"] + by_family["psi_order_dn"], x)
            want = (psi_i >= psi_j) if dpsi else (psi_j - psi_i >= eps)
            counts["psi_order"][got] += 1
            if got != want:
                mismatches.append(("psi_order", dpsi, psi_i, psi_j))

            # block 2: flow sign
            got = rows_ok(by_family["flow_sign_up"] + by_family["flow_sign_dn"], x)
            want = (phi >= 0.0) if dpsi else (phi <= -eps)
            counts["flow_sign"][got] += 1
            if got != want:
                mismatches.append(("flow_sign", dpsi, phi))

            # block 3: region logic for a random region
            m = int(rng.integers(1, r + 1))
            seg = curve.segments[m - 1]
            a, b, d = (int(rng.integers(0, 2)) for _ in range(3))
            x[index.col("alpha", key, m)] = a
            x[index.col("beta", key, m)] = b
            x[index.col("dm", key, m)] = d
            fams = ["reg_hi_up", "reg_hi_dn", "reg_lo_up", "reg_lo_dn",
                    "reg_and_a", "reg_and_b", "reg_and_c"]
            rows_m = [k for fam in fams for k in by_family[fam]
                      if ineq.keys[k][2] == m]
            got = rows_ok(rows_m, x)
            want = ((phi <= seg.hi if a else phi >= seg.hi + eps)
                    and (phi >= seg.lo if b else phi <= seg.lo - eps)
                    and d <= a and d <= b and a + b - d <= 1)
            counts["region"][got] += 1
            if got != want:
                mismatches.append(("region", m, a, b, d, phi))

            # block 4: flow product
            ym = phi * d if rng.random() < 0.5 else float(rng.uniform(-cap, cap))
            x[index.col("ym", key, m)] = ym
            rows_m = [k for fam in ("prod_f_lb", "prod_f_ub", "prod_f_cap",
                                    "prod_f_floor")
                      for k in by_family[fam] if ineq.keys[k][2] == m]
            got = rows_ok(rows_m, x)
            want = (ym == phi) if d else (ym == 0.0)
            counts["prod_flow"][got] += 1
            if got != want:
                mismatches.append(("prod_flow", d, phi, ym))

            # block 5: pressure product
            yp = psi_i * dpsi if rng.random() < 0.5 else float(rng.uniform(*box_i))
            x[index.col("ypsi", key)] = yp
            rows_p = [k for fam in ("prod_p_lb", "prod_p_ub", "prod_p_cap",
                                    "prod_p_floor")
                      for k in by_family[fam]]
            got = rows_ok(rows_p, x)
            want = (yp == psi_i) if dpsi else (yp == 0.0)
            counts["prod_psi"][got] += 1
            if got != want:
                mismatches.append(("prod_psi", dpsi, psi_i, yp))

    total = {k: sum(v) for k, v in counts.items()}
    both_sides = all(v[0] > 0 and v[1] > 0 for v in counts.values())
    ok = not mismatches and all(t == 1000 for t in total.values()) and both_sides
    _line(5, "mixed-logical soundness", ok,
          f"1000 assignments per block, mismatches {len(mismatches)}")
    assert ok, mismatches[:5]


def test_criterion_6_pressure_lp_vs_grid():
    rng = np.random.default_rng(61)
    worst = 0.0
    step = 1e-3
    for draw in range(50):
        n = 2 if draw < 25 else 3
        k = int(rng.integers(1, n + 1))
        rows = np.zeros((k, n))
        for row in rows:
            i, j = rng.choice(n, size=2, replace=False)
            s = float(rng.choice([-1.0, 1.0]))
            row[i], row[j] = s, -s
        theta = rng.uniform(-0.4, 0.4, size=k)
        lo = rng.uniform(0.0, 1.0, size=n)
        width = rng.uniform(0.05, 0.24 if n == 2 else 0.15, size=n)
        hi = lo + width
        lp = direct_lp(rows, theta, lo, hi)
        _, j_lp = solve_pressure_lp(lp)

        axes = [np.arange(lo[d], hi[d] + step / 2, step) for d in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        best = None
        for row, th in zip(rows, theta):
            val = np.zeros_like(grids[0])
            for d in range(n):
                if row[d]:
                    val = val + row[d] * grids[d]
            val = np.abs(val - th)
            best = val if best is None else np.maximum(best, val)
        j_grid = float(best.min())
        worst = max(worst, abs(j_lp - j_grid))
    ok = worst <= 2e-3
    _line(6, "pressure problem vs grid search", ok,
          f"50 draws, worst |lp - grid| {worst:.2e} (<= 2e-3)")
    assert ok


def test_criterion_7_deviation_trend(instances):
    from ogpf.cli import monte_carlo_runs

    inst = instances["medium3area"]
    means = {}
    counts = {}
    for r in (4, 16):
        runs = monte_carlo_runs(inst, 20, 0.1, seed=11, r=r)
        optimal = [e for e in runs if not e.get("error")
                   and e["certificate"] == "Optimal"]
        counts[r] = len(optimal)
        means[r] = float(np.mean([e["mean_abs_dev"] for e in optimal]))
    ok = counts[4] > 0 and counts[16] > 0 and means[16] <= means[4]
    _line(7, "deviation decreases with regions", ok,
          f"mean |dev| r=4: {means[4]:.4f} ({counts[4]}/20 certified), "
          f"r=16: {means[16]:.4f} ({counts[16]}/20 certified)")
    assert ok


def test_criterion_8_consensus_agreement(instances):
    # under either stage-1 relaxation (the pipes' hulls and the paper's
    # big-M), the area-blocked interior point takes the centralized one's
    # steps: the same status, iterations and certificate, and the objective
    # to rounding
    worst = 0.0
    differ = []
    for stage1 in ("hull", "bigm"):
        for name in MULTI_AREA:
            inst = instances[name]
            cen = solve_two_stage(inst, 2, stage1=stage1)
            dis = solve_two_stage(inst, 2, mode="consensus", stage1=stage1)
            rel = (abs(dis.objective - cen.objective)
                   / max(1.0, abs(cen.objective)))
            worst = max(worst, rel)
            if ((dis.solution.status, dis.solution.iterations,
                 dis.certificate.kind)
                    != (cen.solution.status, cen.solution.iterations,
                        cen.certificate.kind)):
                differ.append(f"{name}/{stage1}")
    ok = worst <= 1e-12 and not differ
    _line(8, "consensus agreement", ok,
          f"hull and big-M stage 1, worst rel objective diff {worst:.2e} "
          f"(<= 1e-12), status, iterations and certificate kind differ on "
          f"{differ or 'none'}")
    assert ok
