#!/usr/bin/env python3
"""Record the reference verdicts that perfbench/run.py checks runs against.

    python3 perfbench/record_references.py

For each workload, decides the pool in presentations 0 .. SEEDS-1 and
requires the same status for an item in every presentation (a presentation
changes the input, never the answer). Each status is then checked
independently of the route that produced it: NOT_INJECTIVE by verifying its
certificate, INJECTIVE by a falsifier run with TRIALS trials that must find
nothing. Writes perfbench/references.json with, per workload, the statuses
(one letter per pool item: I, N or U for INCONCLUSIVE) and a hash of the base
pool they belong to.
"""

import json
import sys

import run

SEEDS = 10        # presentations that must agree on every status
TRIALS = 20000    # falsifier trials per INJECTIVE reference verdict


def main() -> int:
    numpy, injcheck = run._imports()
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        statuses = None
        for seed in range(SEEDS):
            items = workload.generate(seed)
            pool = [workloads.build(item) for item in items]
            result = run.run_pass(injcheck, workload, items, pool, None, decide_only=True)
            if statuses is not None and result.statuses != statuses:
                raise SystemExit(f"{name}: presentation {seed} changes a verdict: "
                                 f"{result.statuses} vs {statuses}")
            statuses = result.statuses
        items = workload.generate(0)
        cfg = injcheck.OracleConfig(trials=TRIALS, seed=1)
        for item, status in zip(items, statuses):
            problem = workloads.build(item)
            verdict = injcheck.check_injectivity(problem)
            if status == "N" and not injcheck.verify_certificate(verdict, problem):
                raise SystemExit(f"{name}/{item.name}: certificate does not verify")
            if status == "I" and injcheck.falsify(problem, cfg) is not None:
                raise SystemExit(f"{name}/{item.name}: falsifier refutes INJECTIVE")
        out[name] = {"base": run.base_digest(workload), "statuses": statuses}
        print(f"{name}: {statuses}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
