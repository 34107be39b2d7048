"""Command-line front end.

Subcommands:
    solve        two-stage solve of one instance
    sweep-r      solve over a list of region counts, emit a CSV table
    montecarlo   repeated solves under random demand perturbation
    oracle       brute-force enumeration, with gap to the two-stage objective

Reports are JSON (written to --out or stdout); sweep-r additionally writes a
CSV with header ``r,mean_abs_dev,max_abs_dev,certificate_bound,objective,
time_s``. ``--stage1`` picks the stage-1 relaxation, the pipes' convex hulls
(``hull``, the default) or the paper's big-M relaxation (``bigm``); the
config echo and every run entry name it, since the certificate refers to it.

Exit codes: 0 when every solved run certifies Optimal and its stage-1 solve
converged (``solver_status`` Optimal); 2 when some run returns an
Approximate certificate or its stage 1 ended unconverged (``solver_status``
MaxIter, centralized or consensus: the iteration cap or a stall, with no
proof of infeasibility), whatever its certificate; 1 on any error (bad
configuration, unreadable instance, infeasibility, exceeded enumeration
cap) or when no run succeeded.
The oracle report counts configurations that ended MaxIter as
``num_unresolved``: they are neither feasible nor proven infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .convexsolve import MAX_ITER, OPTIMAL
from .errors import ConfigError, OgpfError
from .mipbuild import build_model, dump_model, hull_model
from .netmodel import NetworkInstance, load_instance, scale_demands
from .oracle import enumerate_solve
from .pwa import PwaConfig
from .recovery import CERT_OPTIMAL, max_abs_deviation, mean_abs_deviation
from .twostage import (BIGM, CENTRALIZED, CONSENSUS, HULL, SIGN_CONVENTION,
                       solve_two_stage)

EXIT_OPTIMAL = 0
EXIT_ERROR = 1
EXIT_APPROXIMATE = 2


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs of one CLI invocation, echoed into every report."""

    instance: str
    r: object          # int, or comma list for sweeps
    epsilon: float
    cert_tol: float
    mode: str = CENTRALIZED
    stage1: str = HULL
    seed: int | None = None
    num_runs: int | None = None
    sigma: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.num_runs is not None and self.num_runs < 1:
            raise ConfigError("--runs must be >= 1")
        if self.sigma is not None and not 0.0 <= self.sigma < 1.0:
            raise ConfigError("--sigma must be in [0, 1)")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(instance=args.instance, r=getattr(args, "r", None),
                   epsilon=args.epsilon, cert_tol=args.cert_tol,
                   mode=getattr(args, "mode", CENTRALIZED),
                   stage1=args.stage1,
                   seed=getattr(args, "seed", None),
                   num_runs=getattr(args, "runs", None),
                   sigma=getattr(args, "sigma", None),
                   out=args.out)


def _config_echo(cfg: RunConfig, command: str) -> dict:
    echo = {"command": command, "sign_convention": SIGN_CONVENTION}
    echo.update(asdict(cfg))
    del echo["out"]  # report destination is not part of the run identity
    return echo


def _run_entry(run_id: int, result) -> dict:
    """One report row, the same keys in either mode; Approximate runs add
    their worst pipes."""
    dev = result.recovery.deviations
    entry = {
        "run": run_id,
        "objective": float(result.objective),
        "stage1": result.stage1,
        "certificate": result.certificate.kind,
        "certificate_bound": float(result.certificate.bound),
        "mean_abs_dev": mean_abs_deviation(dev),
        "max_abs_dev": max_abs_deviation(dev),
        "build_time_s": result.build_time_s,
        "stage1_time_s": result.stage1_time_s,
        "stage2_time_s": result.stage2_time_s,
        "solver_iterations": result.solution.iterations,
        "solver_status": result.solution.status,
        "error": None,
    }
    if not result.certificate.is_optimal:
        entry["worst_pipes"] = result.recovery.worst_pipes
    return entry


def aggregate_runs(runs: list[dict]) -> dict:
    """Aggregate per-run report rows; recomputable from the rows exactly."""
    ok = [r for r in runs if r.get("error") is None]
    n_ok = len(ok)
    return {
        "num_runs": len(runs),
        "num_failed": len(runs) - n_ok,
        "fraction_optimal": (sum(1 for r in ok
                                 if r["certificate"] == CERT_OPTIMAL) / n_ok
                             if n_ok else 0.0),
        "mean_abs_dev": (sum(r["mean_abs_dev"] for r in ok) / n_ok
                         if n_ok else 0.0),
        "mean_certificate_bound": (sum(r["certificate_bound"] for r in ok)
                                   / n_ok if n_ok else 0.0),
        "mean_time_s": (sum(r["stage1_time_s"] + r["stage2_time_s"]
                            for r in ok) / n_ok if n_ok else 0.0),
    }


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _exit_code(runs: list[dict]) -> int:
    ok = [r for r in runs if r.get("error") is None]
    if not ok:
        return EXIT_ERROR
    if all(r["certificate"] == CERT_OPTIMAL and r["solver_status"] == OPTIMAL
           for r in ok):
        return EXIT_OPTIMAL
    return EXIT_APPROXIMATE


def _solve_kwargs(args) -> dict:
    return dict(epsilon=args.epsilon, cert_tol=args.cert_tol, mode=args.mode,
                stage1=args.stage1)


def cmd_solve(args) -> int:
    cfg = RunConfig.from_args(args)
    inst = load_instance(cfg.instance)
    result = solve_two_stage(inst, cfg.r, **_solve_kwargs(args))
    if args.dump_model:
        model, index = build_model(inst, PwaConfig(r=cfg.r,
                                                   epsilon=args.epsilon))
        with open(args.dump_model, "w") as fh:
            fh.write(dump_model(model, index))
    runs = [_run_entry(0, result)]
    report = {"config": _config_echo(cfg, "solve"), "runs": runs,
              "aggregate": aggregate_runs(runs)}
    _emit(report, cfg.out)
    return _exit_code(runs)


def cmd_sweep_r(args) -> int:
    cfg = RunConfig.from_args(args)
    inst = load_instance(cfg.instance)
    r_values = _parse_r_list(cfg.r)
    runs = []
    csv_lines = ["r,mean_abs_dev,max_abs_dev,certificate_bound,objective,"
                 "time_s"]
    prev_time = None
    for r in r_values:
        result = solve_two_stage(inst, r, **_solve_kwargs(args))
        entry = _run_entry(r, result)
        entry["r"] = r
        runs.append(entry)
        total_t = result.stage1_time_s + result.stage2_time_s
        csv_lines.append(
            f"{r},{entry['mean_abs_dev']:.12g},{entry['max_abs_dev']:.12g},"
            f"{entry['certificate_bound']:.12g},{entry['objective']:.17g},"
            f"{total_t:.6g}")
        if prev_time is not None and total_t < prev_time:
            print(f"note: time at r={r} below previous row "
                  f"({total_t:.3g}s < {prev_time:.3g}s)", file=sys.stderr)
        prev_time = total_t
    report = {"config": _config_echo(cfg, "sweep-r"), "runs": runs,
              "aggregate": aggregate_runs(runs)}
    _emit(report, cfg.out)
    csv_path = args.csv or (args.out + ".csv" if args.out else None)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    else:
        print("\n".join(csv_lines))
    return _exit_code(runs)


def _parse_r_list(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(spec).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse region list {spec!r}") from exc
    if not values:
        raise ConfigError("empty region list")
    return [PwaConfig(r=r).r for r in values]


def monte_carlo_runs(inst: NetworkInstance, num_runs: int, sigma: float,
                     seed: int, r: int, **solve_kw) -> list[dict]:
    """Perturbed solves: every electrical and gas demand is scaled by an
    independent uniform factor in [1 - sigma, 1 + sigma] per run."""
    rng = np.random.default_rng(seed)
    runs = []
    for k in range(num_runs):
        bus_f = rng.uniform(1.0 - sigma, 1.0 + sigma, size=len(inst.buses))
        node_f = rng.uniform(1.0 - sigma, 1.0 + sigma,
                             size=len(inst.gas_nodes))
        try:
            perturbed = scale_demands(inst, bus_f, node_f)
            result = solve_two_stage(perturbed, r, **solve_kw)
            entry = _run_entry(k, result)
        except OgpfError as exc:
            entry = {"run": k, "error": str(exc)}
        entry["bus_factors"] = [float(f) for f in bus_f]
        entry["node_factors"] = [float(f) for f in node_f]
        runs.append(entry)
    return runs


def cmd_montecarlo(args) -> int:
    cfg = RunConfig.from_args(args)
    inst = load_instance(cfg.instance)
    runs = monte_carlo_runs(inst, cfg.num_runs, cfg.sigma, cfg.seed, cfg.r,
                            **_solve_kwargs(args))
    report = {"config": _config_echo(cfg, "montecarlo"), "runs": runs,
              "aggregate": aggregate_runs(runs)}
    _emit(report, cfg.out)
    return _exit_code(runs)


def cmd_oracle(args) -> int:
    run_cfg = RunConfig.from_args(args)
    inst = load_instance(run_cfg.instance)
    model, index = hull_model(inst, PwaConfig(r=args.r, epsilon=args.epsilon))

    t0 = time.perf_counter()
    oracle = enumerate_solve(model, index, index.curves, cap=args.cap)
    t_oracle = time.perf_counter() - t0
    result = solve_two_stage(inst, args.r, epsilon=args.epsilon,
                             cert_tol=args.cert_tol, stage1=args.stage1)
    two_stage_obj = float(result.objective)
    gap = (two_stage_obj - oracle.best_objective) / max(
        1.0, abs(oracle.best_objective))
    report = {
        "config": _config_echo(run_cfg, "oracle"),
        "oracle": {
            "best_objective": oracle.best_objective,
            "best_configuration": {f"{a}->{b}": m for (a, b), m
                                   in oracle.best_configuration.items()},
            "num_configurations": oracle.num_configurations,
            "num_feasible": sum(1 for e in oracle.log
                                if e["objective"] is not None),
            "num_unresolved": sum(1 for e in oracle.log
                                  if e["status"] == MAX_ITER),
            "time_s": t_oracle,
        },
        "two_stage": {
            "objective": two_stage_obj,
            "certificate": result.certificate.kind,
            "certificate_bound": float(result.certificate.bound),
        },
        "gap": gap,
    }
    _emit(report, run_cfg.out)
    return EXIT_OPTIMAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ogpf",
        description="Two-stage solver for multi-area optimal gas-power flow")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_rint=True):
        p.add_argument("--instance", required=True, help="instance JSON path")
        if with_rint:
            p.add_argument("--r", type=int, default=4,
                           help="number of PWA regions (even)")
        p.add_argument("--epsilon", type=float, default=1e-6,
                       help="strict-inequality tolerance of the logic blocks")
        p.add_argument("--cert-tol", dest="cert_tol", type=float, default=1e-8,
                       help="certificate threshold on the pressure objective")
        p.add_argument("--stage1", choices=[HULL, BIGM], default=HULL,
                       help="stage-1 relaxation: each pipe's convex hull, or "
                       "the paper's big-M relaxation")
        p.add_argument("--out", default=None, help="JSON report path")

    p = sub.add_parser("solve", help="two-stage solve")
    common(p)
    p.add_argument("--mode", choices=[CENTRALIZED, CONSENSUS],
                   default=CENTRALIZED)
    p.add_argument("--dump-model", default=None,
                   help="write a plain-text export of the big-M model")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-r", help="solve across region counts")
    common(p, with_rint=False)
    p.add_argument("--r", default="4,8,16",
                   help="comma-separated region counts")
    p.add_argument("--mode", choices=[CENTRALIZED, CONSENSUS],
                   default=CENTRALIZED)
    p.add_argument("--csv", default=None, help="CSV table path")
    p.set_defaults(func=cmd_sweep_r)

    p = sub.add_parser("montecarlo", help="randomized demand perturbations")
    common(p)
    p.add_argument("--mode", choices=[CENTRALIZED, CONSENSUS],
                   default=CENTRALIZED)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.1)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("oracle", help="brute-force enumeration cross-check")
    common(p)
    p.add_argument("--cap", type=int, default=100_000,
                   help="configuration count cap")
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except OgpfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
