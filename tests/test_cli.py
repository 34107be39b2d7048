import copy
import json

import pytest

import ogpf
import ogpf.cli
import ogpf.mipbuild
import ogpf.twostage
from ogpf.cli import _exit_code, _run_entry, aggregate_runs, main

SMALL = ogpf.instance_path("small2area")
LOOP = ogpf.instance_path("loop1area")


def _run(args):
    return main(args)


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def _strip_times(report):
    out = copy.deepcopy(report)
    for run in out.get("runs", []):
        run.pop("build_time_s", None)
        run.pop("stage1_time_s", None)
        run.pop("stage2_time_s", None)
    out.get("aggregate", {}).pop("mean_time_s", None)
    out.get("oracle", {}).pop("time_s", None)
    return out


def test_solve_exit_zero_on_exact_instance(tmp_path):
    out = tmp_path / "rep.json"
    code = _run(["solve", "--instance", SMALL, "--r", "4", "--out", str(out)])
    assert code == 0
    rep = _report(out)
    assert rep["runs"][0]["certificate"] == "Optimal"
    assert rep["config"]["sign_convention"]


def test_run_entry_times_the_build(tmp_path):
    out = tmp_path / "rep.json"
    assert _run(["solve", "--instance", SMALL, "--r", "4",
                 "--out", str(out)]) == 0
    entry = _report(out)["runs"][0]
    assert entry["build_time_s"] > 0.0
    assert entry["stage1_time_s"] > 0.0 and entry["stage2_time_s"] > 0.0


def test_solve_rejects_odd_region_count(capsys):
    code = _run(["solve", "--instance", SMALL, "--r", "3"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_exit_two_on_approximate(tmp_path):
    out = tmp_path / "rep.json"
    code = _run(["solve", "--instance", LOOP, "--r", "4", "--out", str(out)])
    assert code == 2
    assert _report(out)["runs"][0]["certificate"] == "Approximate"


def test_approximate_report_lists_worst_pipes(tmp_path):
    out = tmp_path / "rep.json"
    assert _run(["solve", "--instance", LOOP, "--r", "4",
                 "--out", str(out)]) == 2
    entry = _report(out)["runs"][0]
    worst = entry["worst_pipes"]
    # loop1area has three pipes, each violating its flow equality
    assert len(worst) == 3
    assert all(label.startswith("pwa_flow[") for label, _ in worst)
    values = [v for _, v in worst]
    assert max(values) == entry["certificate_bound"]
    assert min(values) > 1e-8
    # the pressure LP equalizes the mismatches around the cycle, so they
    # tie (within 1e-9 relative) and come in row order; each is the
    # flow-equality residual of the assembled point
    assert values == pytest.approx([max(values)] * 3, rel=1e-9)
    ref = ogpf.solve_two_stage(ogpf.load_instance(LOOP), 4)
    model, index = ref.model, ref.index
    rows = index.rows("eq", "pwa_flow")
    resid = abs(model.a_eq[rows] @ ref.recovery.u_star - model.b_eq[rows])
    assert values == resid.tolist()
    assert [label for label, _ in worst] == [
        index.row_name("eq", k) for k in rows]


def test_solve_missing_instance_is_error(tmp_path):
    code = _run(["solve", "--instance", str(tmp_path / "nope.json")])
    assert code == 1


def test_solve_invalid_instance_is_error(tmp_path):
    doc = json.load(open(SMALL))
    doc["gas_nodes"][0]["demand_g"] = -5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert _run(["solve", "--instance", str(bad)]) == 1


def test_consensus_mode_matches_centralized(tmp_path):
    out_c = tmp_path / "cen.json"
    out_d = tmp_path / "dis.json"
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--out", str(out_c)]) == 0
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--mode", "consensus", "--out", str(out_d)]) == 0
    obj_c = _report(out_c)["runs"][0]["objective"]
    obj_d = _report(out_d)["runs"][0]["objective"]
    assert abs(obj_c - obj_d) <= 1e-9 * max(1.0, abs(obj_c))


def test_consensus_report_has_centralized_keys(tmp_path):
    out_c = tmp_path / "cen.json"
    out_d = tmp_path / "dis.json"
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--out", str(out_c)]) == 0
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--mode", "consensus", "--out", str(out_d)]) == 0
    cen = _report(out_c)["runs"][0]
    dis = _report(out_d)["runs"][0]
    assert set(dis) == set(cen)
    assert dis["solver_iterations"] == cen["solver_iterations"]
    # the report is the library's default consensus solve
    ref = ogpf.solve_two_stage(ogpf.load_instance(SMALL), 2,
                               mode="consensus")
    expected = _run_entry(0, ref)
    for key in ("build_time_s", "stage1_time_s", "stage2_time_s"):
        del dis[key], expected[key]
    assert dis == expected


def test_sweep_single_row_csv(tmp_path):
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    code = _run(["sweep-r", "--instance", SMALL, "--r", "4",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == ("r,mean_abs_dev,max_abs_dev,certificate_bound,"
                        "objective,time_s")
    assert len(lines) == 2
    assert lines[1].startswith("4,")


def test_sweep_deviation_decreases_with_regions(tmp_path):
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    assert _run(["sweep-r", "--instance", SMALL, "--r", "4,16",
                 "--out", str(out), "--csv", str(csv)]) == 0
    rows = [l.split(",") for l in csv.read_text().strip().splitlines()[1:]]
    devs = {int(r[0]): float(r[1]) for r in rows}
    assert devs[16] <= devs[4]


def test_sweep_rejects_odd_region(tmp_path):
    assert _run(["sweep-r", "--instance", SMALL, "--r", "4,5"]) == 1


def test_montecarlo_reports_are_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["montecarlo", "--instance", SMALL, "--r", "2", "--seed", "7",
            "--runs", "3", "--sigma", "0.1"]
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    assert _strip_times(_report(out1)) == _strip_times(_report(out2))


def test_montecarlo_sigma_zero_matches_nominal(tmp_path):
    out = tmp_path / "mc.json"
    nominal = tmp_path / "solve.json"
    assert _run(["montecarlo", "--instance", SMALL, "--r", "2", "--seed", "3",
                 "--runs", "3", "--sigma", "0.0", "--out", str(out)]) == 0
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--out", str(nominal)]) == 0
    mc = _report(out)
    ref = _report(nominal)["runs"][0]["objective"]
    for run in mc["runs"]:
        assert run["objective"] == ref
        assert all(f == 1.0 for f in run["bus_factors"])


def test_montecarlo_aggregate_fields(tmp_path):
    out = tmp_path / "mc.json"
    assert _run(["montecarlo", "--instance", SMALL, "--r", "2", "--seed", "1",
                 "--runs", "5", "--sigma", "0.1", "--out", str(out)]) == 0
    rep = _report(out)
    assert 0.0 <= rep["aggregate"]["fraction_optimal"] <= 1.0
    assert len(rep["runs"]) == 5
    assert all("certificate_bound" in run for run in rep["runs"])


def test_montecarlo_bad_config(tmp_path):
    assert _run(["montecarlo", "--instance", SMALL, "--runs", "0"]) == 1
    assert _run(["montecarlo", "--instance", SMALL, "--sigma", "1.5"]) == 1


def test_montecarlo_records_failures_and_continues(tmp_path):
    # source capacity sits just above the nominal node demand plus the gas
    # unit's minimum draw, so upward perturbations are infeasible; those runs
    # must be recorded as errors without aborting the batch
    doc = json.load(open(ogpf.instance_path("single1area")))
    for src in doc["gas_sources"]:
        src["g_max"] = 31.5
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(doc))
    out = tmp_path / "mc.json"
    _run(["montecarlo", "--instance", str(tight), "--r", "2", "--seed", "2",
          "--runs", "8", "--sigma", "0.1", "--out", str(out)])
    rep = _report(out)
    assert len(rep["runs"]) == 8
    failed = [r for r in rep["runs"] if r.get("error")]
    assert failed, "expected at least one infeasible perturbed run"
    assert rep["aggregate"]["num_failed"] == len(failed)
    assert any(r.get("error") is None for r in rep["runs"])


def test_montecarlo_exit_two_when_runs_approximate(tmp_path):
    out = tmp_path / "mc.json"
    code = _run(["montecarlo", "--instance", LOOP, "--r", "4", "--seed", "1",
                 "--runs", "2", "--sigma", "0.05", "--out", str(out)])
    assert code == 2


def test_aggregates_recompute_exactly(tmp_path):
    out = tmp_path / "mc.json"
    assert _run(["montecarlo", "--instance", SMALL, "--r", "2", "--seed", "5",
                 "--runs", "4", "--sigma", "0.1", "--out", str(out)]) == 0
    rep = _report(out)
    assert aggregate_runs(rep["runs"]) == rep["aggregate"]


def test_oracle_subcommand_gap(tmp_path):
    out = tmp_path / "oracle.json"
    code = _run(["oracle", "--instance", SMALL, "--r", "2",
                 "--out", str(out)])
    assert code == 0
    rep = _report(out)
    assert rep["two_stage"]["certificate"] == "Optimal"
    assert abs(rep["gap"]) <= 1e-6
    assert rep["gap"] >= -1e-6
    assert rep["oracle"]["num_configurations"] == 8


def test_oracle_reports_unresolved_configurations(tmp_path):
    # loop1area r=4 configuration 38 is feasible but its solve ends MaxIter
    out = tmp_path / "oracle.json"
    assert _run(["oracle", "--instance", LOOP, "--r", "4",
                 "--out", str(out)]) == 0
    assert _report(out)["oracle"]["num_unresolved"] == 1


def test_exit_code_flags_unconverged_stage_one():
    def row(certificate, status):
        return {"certificate": certificate, "solver_status": status,
                "error": None}

    assert _exit_code([row("Optimal", "Optimal")]) == 0
    assert _exit_code([row("Optimal", "Optimal"),
                       row("Optimal", "MaxIter")]) == 2
    assert _exit_code([row("Approximate", "Optimal")]) == 2
    assert _exit_code([{"run": 0, "error": "infeasible"}]) == 1


def test_oracle_enumerates_off_the_hull_model(monkeypatch, tmp_path,
                                             small2area):
    """``ogpf oracle`` reads its configuration models off the hull model
    and never builds the big-M model; enumerating off the big-M model gives
    the same report."""
    build = ogpf.mipbuild.build_model
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    for module in (ogpf.mipbuild, ogpf.twostage, ogpf.cli):
        monkeypatch.setattr(module, "build_model", counting)
    out = tmp_path / "oracle.json"
    assert _run(["oracle", "--instance", SMALL, "--r", "4",
                 "--out", str(out)]) == 0
    assert calls == []
    report = _report(out)["oracle"]
    model, index = build(small2area, ogpf.PwaConfig(r=4))
    ref = ogpf.enumerate_solve(model, index, index.curves)
    assert report["best_objective"] == ref.best_objective
    assert report["best_configuration"] == {
        f"{a}->{b}": m for (a, b), m in ref.best_configuration.items()}
    assert report["num_feasible"] == sum(e["objective"] is not None
                                         for e in ref.log)
    assert report["num_unresolved"] == sum(e["status"] == "MaxIter"
                                           for e in ref.log)


def test_oracle_cap_exceeded_is_error(tmp_path):
    code = _run(["oracle", "--instance", SMALL, "--r", "2", "--cap", "3"])
    assert code == 1


def test_dump_model_flag(tmp_path):
    dump = tmp_path / "model.txt"
    assert _run(["solve", "--instance", SMALL, "--r", "2",
                 "--out", str(tmp_path / "r.json"),
                 "--dump-model", str(dump)]) == 0
    text = dump.read_text()
    assert text.startswith("vars ")
    assert "eq power_balance[b1]:" in text


def test_dump_model_matches_fresh_build(tmp_path):
    dump = tmp_path / "model.txt"
    assert _run(["solve", "--instance", LOOP, "--r", "4",
                 "--epsilon", "1e-5", "--out", str(tmp_path / "r.json"),
                 "--dump-model", str(dump)]) == 2
    model, index = ogpf.build_model(ogpf.load_instance(LOOP),
                                    ogpf.PwaConfig(r=4, epsilon=1e-5))
    assert dump.read_text() == ogpf.dump_model(model, index)
