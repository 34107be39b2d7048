"""Self-test of the output checks: corrupted results must count as failed.

    python3 perfbench/selftest.py

Runs one round of genuine operations through the benchmark's closed loop and
expects no failure, then runs the same round once per corruption, with every
output corrupted before it reaches the checks, and expects every operation to
count as failed. Exits 1 if a genuine output fails or a corrupted one passes.
"""

from __future__ import annotations

import dataclasses
import sys

import run
from tracing import Tracer

ogpf = run.ogpf


def shift_pressure(out):
    """Move the first gas node's recovered pressure by 1 unit."""
    out.recovery.u_star[out.index.columns("psi")[0]] += 1.0
    return out


def alter_objective(out):
    """Report an objective 1e-6 (relative) above the one found."""
    if isinstance(out, ogpf.OracleResult):
        return dataclasses.replace(out, best_objective=out.best_objective * (1 + 1e-6))
    out.solution.objective *= 1 + 1e-6
    return out


def cases():
    def one(name, mode):
        case = run.Case(f"{name}/r4", run._bundled(name), 4, mode)
        if mode != run.CENTRALIZED:
            case.ref = ogpf.solve_two_stage(case.inst, 4)
        return case

    return {
        "tree, Optimal": [one("small2area", run.CENTRALIZED)],
        "loop, Approximate": [one("loop1area", run.CENTRALIZED)],
        "consensus": [one("chain2area", run.CONSENSUS)],
        "oracle": [one("single1area", run.ORACLE)],
    }


def main() -> int:
    genuine_op = run.run_op
    ok = True
    for group, group_cases in cases().items():
        for name, corrupt in (("genuine", None), ("shifted pressure", shift_pressure),
                              ("altered objective", alter_objective)):
            if corrupt is shift_pressure and group == "oracle":
                continue
            run.run_op = genuine_op if corrupt is None else \
                (lambda case, c=corrupt: c(genuine_op(case)))
            loop = run.Loop(group_cases, Tracer())
            loop.run_round(traced=False)
            expected = 0 if corrupt is None else loop.attempted
            verdict = "ok" if loop.failed == expected else "WRONG"
            ok &= loop.failed == expected
            print(f"{group:18s} {name:18s} attempted {loop.attempted} "
                  f"failed {loop.failed} (expected {expected}) {verdict}")
    run.run_op = genuine_op
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
