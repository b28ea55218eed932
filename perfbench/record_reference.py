"""Record the reference summaries that the benchmark's correctness gate uses.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py [workload ...]

For each workload it runs one unit per seed (0-63, the default seed and the
held-out seed), checks it, and stores the unit shape and the summary numbers
(per-arm task means, chosen etas, swap regrets) in ``perfbench/reference.json``.
A run whose shape differs from the stored one has no reference to compare to.
"""

from __future__ import annotations

import json
import sys

from run import import_workloads

SEEDS = tuple(range(64))


def record(workloads, workload):
    seeds = {}
    for seed in sorted(set(SEEDS) | {workload.default_seed, workload.held_out_seed}):
        inputs = workload.build(seed)
        try:
            outcome = workload.check(inputs, workload.run(inputs))
        finally:
            workload.close(inputs)
        if outcome.failed:
            raise SystemExit(f"{workload.name} seed {seed}: checks failed: {outcome.notes}")
        seeds[str(seed)] = {key: value for key, (value, _) in outcome.summary.items()}
        print(f"{workload.name} seed {seed}: {len(outcome.summary)} numbers", flush=True)
    return {"shape": workload.shape, "seeds": seeds}


def main(names):
    workloads = import_workloads()
    try:
        table = json.loads(workloads.REFERENCE_PATH.read_text())
    except FileNotFoundError:
        table = {}
    for name in names or workloads.WORKLOADS:
        table[name] = record(workloads, workloads.WORKLOADS[name])
        workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
