"""Benchmark of the ogpf two-stage solver: one workload per run.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/``; the
benchmark makes its inputs from ``--seed`` and hands the program only those.
One client runs whole rounds of the workload's operations in a closed loop
(the next operation starts when the last returns) for about ``--seconds``
seconds, and every output is checked by ``check.py``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate,
the per-layer metrics come from the traced rounds, the tracing overhead is
the difference of the two median operation times, and the spans are written
to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

# one BLAS thread: with OpenBLAS's default worker threads the dense LU in the
# interior-point solver stalls for tens of milliseconds at random on a
# 2-core machine, and the figures would measure the scheduler. Must be set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 3

BUNDLED = ("small2area", "single1area", "chain2area", "medium3area",
           "loop1area")

# scale: generator structure seeds and arguments; --seed perturbs demands
SCALE_R = 16
SCALE_INSTANCES = tuple(
    (gen_seed, dict(topology=topology, num_areas=2, nodes_per_area=nodes))
    for gen_seed, topology, nodes in ((11, "tree", 4), (21, "mesh", 3),
                                      (12, "tree", 4), (22, "mesh", 3),
                                      (13, "tree", 4), (23, "mesh", 3)))


def import_program():
    """Import ogpf from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ogpf", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/ogpf")
    sys.path.insert(0, SRC)
    import ogpf
    if not os.path.abspath(ogpf.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ogpf from {ogpf.__file__}, not {SRC}")
    return ogpf


ogpf = import_program()
import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
from tracing import METRICS as LAYER_UNITS, Tracer  # noqa: E402

CENTRALIZED, CONSENSUS, ORACLE = "centralized", "consensus", "oracle"


@dataclass
class Case:
    """One input and how it is solved; ``ref`` is the centralized two-stage
    result the consensus and oracle checks compare against."""

    label: str
    inst: object
    r: int
    mode: str
    ref: object = None


def _perturb(inst, rng, sigma):
    """Scale every demand by its own uniform factor in [1 - sigma, 1 + sigma]."""
    return ogpf.scale_demands(
        inst, rng.uniform(1 - sigma, 1 + sigma, len(inst.buses)),
        rng.uniform(1 - sigma, 1 + sigma, len(inst.gas_nodes)))


def _bundled(name):
    return ogpf.load_instance(ogpf.instance_path(name))


def scenarios_cases(seed):
    """Monte-Carlo sweep: 4 perturbations (+-10%) of each bundled instance
    at r=4 and r=8."""
    rng = np.random.default_rng(seed)
    cases = []
    for name in BUNDLED:
        base = _bundled(name)
        for r in (4, 8):
            for k in range(4):
                cases.append(Case(f"{name}/r{r}/p{k}", _perturb(base, rng, 0.1),
                                  r, CENTRALIZED))
    return cases


def scale_cases(seed):
    """Generated 2-area tree and mesh instances, demands perturbed +-10%, r=16."""
    rng = np.random.default_rng(seed)
    cases = []
    for gen_seed, kw in SCALE_INSTANCES:
        base = gen.generate(gen_seed, **kw)
        cases.append(Case(f"{kw['topology']}{gen_seed}/r{SCALE_R}",
                          _perturb(base, rng, 0.1), SCALE_R, CENTRALIZED))
    return cases


def consensus_cases(seed):
    """ADMM consensus at r=4: 3 perturbations each of small2area and
    chain2area. Perturbations are +-2%: at +-10% the outer iteration count of
    one small2area solve ranges over 43-70, and a run holds too few solves to
    average that out. medium3area (352 outer iterations, ~16 s) is left out:
    one such solve per run made the run's figures depend on the host's load
    during those 16 s."""
    rng = np.random.default_rng(seed)
    cases = []
    for name in ("small2area", "chain2area"):
        base = _bundled(name)
        for k in range(3):
            cases.append(Case(f"{name}/r4/p{k}", _perturb(base, rng, 0.02), 4,
                              CONSENSUS))
    return cases


def _perturb_costs(inst, rng, sigma):
    """Scale every production-cost and gas-price coefficient by its own
    uniform factor in [1 - sigma, 1 + sigma]."""
    f = lambda: float(rng.uniform(1 - sigma, 1 + sigma))  # noqa: E731
    gens = tuple(g if g.is_gas else replace(
        g, cost_c2=g.cost_c2 * f(), cost_c1=g.cost_c1 * f())
        for g in inst.generators)
    sources = tuple(replace(s, cost_c1=s.cost_c1 * f())
                    for s in inst.gas_sources)
    return ogpf.NetworkInstance(inst.num_areas, inst.buses, inst.lines, gens,
                                inst.gas_nodes, inst.pipelines, sources)


def oracle_cases(seed):
    """Brute-force enumeration at r=4 of bundled instances with costs
    perturbed +-10%: twelve of the 2-pipe tree single1area, with the 3-pipe
    tree small2area and the 3-pipe cycle loop1area among them. Demands stay
    as bundled: under demand perturbations the feasibility probe's stall
    point wanders (the same 13 infeasible single1area configurations take
    437-651 IPM iterations), under cost perturbations it stays put (463-473).
    The cheap enumerations are spread over the round, and one comes first so
    the warm-up is cheap; the median falls among them."""
    rng = np.random.default_rng(seed)
    single = _bundled("single1area")
    singles = [Case(f"single1area/r4/p{k}", _perturb_costs(single, rng, 0.1),
                    4, ORACLE) for k in range(12)]
    small2, loop = (Case(f"{name}/r4", _perturb_costs(_bundled(name), rng, 0.1),
                         4, ORACLE) for name in ("small2area", "loop1area"))
    return singles[:4] + [small2] + singles[4:8] + [loop] + singles[8:]


WORKLOADS = {
    "scenarios": scenarios_cases,
    "scale": scale_cases,
    "consensus": consensus_cases,
    "oracle": oracle_cases,
}


def run_op(case):
    if case.mode == ORACLE:
        cfg = ogpf.PwaConfig(r=case.r)
        model, index = ogpf.build_model(case.inst, cfg)
        return ogpf.enumerate_solve(model, index,
                                    ogpf.fit_all_curves(case.inst, cfg))
    return ogpf.solve_two_stage(case.inst, case.r, mode=case.mode)


def check_op(case, out):
    """Problems found in one output, its mean flow deviation and the
    objective used for the repeat check. The deviation is None for the
    oracle and for Approximate results, whose recovered pressures are one
    arbitrary vertex of the pressure LP's optimal set."""
    if case.mode == ORACLE:
        return (check.check_oracle(case.inst, case.r, out, case.ref.objective),
                None, out.best_objective)
    problems, dev = check.check_two_stage(case.inst, case.r, out, case.mode)
    if case.mode == CONSENSUS:
        problems += check.check_consensus(case.ref.objective, out)
    return problems, dev if out.certificate.is_optimal else None, out.objective


def set_up(workload, seed, tracer):
    """Build the inputs, the references the checks need, and run one warm-up
    operation (the first of a round)."""
    with tracer.span("netmodel.load"):
        cases = WORKLOADS[workload](seed)
    for case in cases:
        if case.mode == CENTRALIZED:
            continue
        case.ref = ogpf.solve_two_stage(case.inst, case.r)
        problems, _ = check.check_two_stage(case.inst, case.r, case.ref,
                                            CENTRALIZED)
        if problems:
            raise RuntimeError(f"reference solve of {case.label}: {problems}")
    warm = run_op(cases[0])
    return cases, warm


class Loop:
    """Closed-loop client: whole rounds of every case, checked as they come."""

    def __init__(self, cases, tracer):
        self.cases = cases
        self.tracer = tracer
        self.times = {False: [], True: []}   # untraced / traced op seconds
        self.devs = []
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.first_objective = {}

    def record(self, case, out):
        problems, dev, obj = check_op(case, out)
        seen = self.first_objective.setdefault(case.label, obj)
        if seen != obj:
            problems.append(f"repeat gave objective {obj!r}, first {seen!r}")
        if dev is not None and not problems:
            self.devs.append(dev)
        return problems

    def run_round(self, traced):
        for case in self.cases:
            self.attempted += 1
            if traced:
                self.tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = run_op(case)
            except Exception:  # a program fault fails the operation, not the run
                self.failed += 1
                print(f"perfbench: {case.label} raised\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            self.times[traced].append(time.perf_counter() - t0)
            problems = self.record(case, out)
            if problems:
                self.failed += 1
                self.check_failures += 1
                print(f"perfbench: {case.label} failed checks: {problems[:5]}",
                      file=sys.stderr)

    def run(self, seconds, trace):
        """Whole rounds until the next would end past ``seconds``; in trace
        mode, untraced and traced rounds alternate, in pairs."""
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            self.run_round(traced)
            self.tracer.uninstall()
            rounds += 1
            last = time.perf_counter() - t0
            if trace and rounds % 2:
                continue
            if time.perf_counter() - start + last * (2 if trace else 1) > seconds:
                return rounds


def measure_setup(args) -> float:
    """Median wall time of fresh processes that only set up: interpreter
    start, imports, inputs, references and the warm-up operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    tracer = Tracer()
    if trace:
        tracer.install()
    t_setup = time.perf_counter()
    cases, warm = set_up(args.workload, args.seed, tracer)
    tracer.uninstall()
    if args.setup_only:
        return 0

    loop = Loop(cases, tracer)
    problems, _, loop.first_objective[cases[0].label] = check_op(cases[0], warm)
    if problems:
        raise RuntimeError(f"warm-up output failed checks: {problems}")
    t_loop = time.perf_counter()
    rounds = loop.run(args.seconds, trace)
    loop_s = time.perf_counter() - t_loop
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = loop.times[False]
    if not plain:
        raise RuntimeError("no operation completed")
    p50 = statistics.median(plain)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "ops_per_round": len(cases), "loop_s": loop_s,
               "in_process_setup_s": t_loop - t_setup, "untraced_ops": len(plain)}
    if len(plain) >= 100:
        summary["solve_p90_s"] = statistics.quantiles(plain, n=10)[-1]
    if trace:
        traced = loop.times[True]
        overhead = statistics.median(traced) - p50 if traced else float("nan")
        layer = tracer.metrics(len(traced), overhead)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in layer.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
                    {**summary, "metrics": layer})
    else:
        if not loop.devs:   # the oracle's flow accuracy is its references'
            loop.devs = [check.check_two_stage(c.inst, c.r, c.ref, CENTRALIZED)[1]
                         for c in cases if c.ref.certificate.is_optimal]
        metrics = {
            "setup_s": {"value": measure_setup(args), "unit": "s"},
            "solve_p50_s": {"value": p50, "unit": "s"},
            "solves_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "flow_dev_mean": {"value": float(np.mean(loop.devs)), "unit": "ratio"},
        }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": loop.check_failures == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
