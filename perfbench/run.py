"""metagames benchmark: one workload per run, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload ne-anchor [--seed 123] [--seconds 25] [--trace 0|1]

With ``--trace 0`` the run reports the end-to-end metrics, tracing off.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Raw results and spans go to ``perfbench/out/``.
``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("warmstart-arms", "ne-anchor", "swap-chain", "stackelberg-ewoo")
SETUP_SAMPLES = 5  # fresh-process set-ups per run; setup_s is their median
PLAYERS = 2  # every harness workload plays two-player matrix games

END_TO_END = (("tasks_per_s", "tasks/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics are "<module>.<function>.<kind>"; kinds are calls and
# self_s, plus a few ratios derived from the same spans.
CALLS_AND_SELF = (
    "geometry.project_simplex", "geometry.prox_step",
    "games.utility_gradient", "games.lipschitz_constant",
    "learners.OMDLearner.play", "learners.OMDLearner.update",
    "learners.external_regret", "learners.rvu_terms",
    "swapregret.stationary_distribution", "swapregret.SwapWrapper.update",
    "meta.ewoo_next_eta", "meta.Initializer.observe",
    "metrics.saddle_point", "metrics.duality_gap", "metrics.ne_gap",
    "stackelberg.defender_payoff",
)
SELF_ONLY = (
    "games.sample_game_sequence", "swapregret.swap_regret",
    "meta.Initializer.initialization", "meta.ne_similarity_worst", "meta.kl_anchor_variance",
    "stackelberg.run_meta_stackelberg", "stackelberg.build_extreme_points",
    "harness.run_experiment", "harness.compare_arms",
    "harness.write_records_csv", "harness.write_task_summaries", "cli.main",
)
PER_LAYER = (
    tuple((f"{n}.{k}", u) for n in CALLS_AND_SELF for k, u in (("calls", "count"), ("self_s", "s")))
    + tuple((f"{n}.self_s", "s") for n in SELF_ONLY)
    + (
        ("metrics.saddle_point.distinct_ratio", "ratio"),
        ("harness.compare_arms.parallelism", "ratio"),
        ("harness.make_learner.attempts_per_task", "ratio"),
        ("harness.write_records_csv.bytes", "bytes"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage", "ratio"),
    )
)


def import_workloads():
    """Import metagames from this checkout's ``src``, then the workloads."""
    if not (SRC_DIR / "metagames" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no metagames sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import metagames
    import workloads

    if not Path(metagames.__file__).resolve().is_relative_to(SRC_DIR.resolve()):
        raise SystemExit(f"benchmark: imported metagames from {metagames.__file__}, not {SRC_DIR}")
    return workloads


def setup_once(name, seed):
    """Import the program and build the inputs: (seconds, workloads, workload, seed, inputs)."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    inputs = workload.build(seed)
    return time.perf_counter() - t0, workloads, workload, seed, inputs


def setup_probe(name, seed):
    """Body of a fresh set-up process: print its set-up seconds."""
    seconds, _, workload, _, inputs = setup_once(name, seed)
    workload.close(inputs)
    print(repr(seconds))


def fresh_setup_seconds(name, seed, samples):
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
        f"import run; run.setup_probe({name!r}, {seed})"
    )
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def machine_record(load_at_start):
    import numpy
    import scipy

    from metagames import harness

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "metagames_threads": harness.thread_cap(),
        "metagames_threads_env": os.environ.get("METAGAMES_THREADS"),
        "loadavg_at_start": list(load_at_start),
    }


def evaluate(workloads, workload, inputs, output, error, reference):
    """Outcome of one unit: a raise fails every operation, else run the checks."""
    if error is not None:
        outcome = workloads.Outcome(workload.ops())
        outcome.failed.update(outcome.ops)
        outcome.notes.append(f"raised {type(error).__name__}: {error}")
        return outcome
    outcome = workload.check(inputs, output)
    if reference is not None:
        outcome.failed |= workloads.reference_failures(outcome.summary, reference)
    return outcome


def timed_pass(workload, inputs=None, seed=None, tracer=None):
    """Run one unit, building its inputs first when ``inputs`` is None.

    Returns (seconds, inputs, output, error); a raise from the program is
    returned, not propagated, so the run goes on and counts it as failed.
    """
    gc.collect()
    output = error = None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        if inputs is None:
            inputs = workload.build(seed)
        try:
            output = workload.run(inputs)
        except Exception as exc:
            error = exc
        seconds = time.perf_counter() - t0
    return seconds, inputs, output, error


def end_to_end(workloads, workload, inputs, seconds, reference):
    """Repeat the unit on fixed inputs until ``seconds`` have passed."""
    units, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        dt, _, output, error = timed_pass(workload, inputs)
        units.append(dt)
        outcomes.append(evaluate(workloads, workload, inputs, output, error, reference))
    return units, outcomes


def layer_metrics(tracer, lo, hi, ops, pass_seconds):
    """Per-layer metrics of one traced pass, whose spans are [lo, hi)."""
    import numpy as np
    from spans import root_coverage, self_times

    spans = tracer.arrays(lo, hi)
    own = self_times(spans, offset=lo)
    dur = spans["end"] - spans["start"]
    masks = {name: spans["name"] == nid for nid, name in enumerate(tracer.names)}
    no_spans = np.zeros(len(dur), dtype=bool)

    def calls(name):
        return int(np.count_nonzero(masks.get(name, no_spans)))

    def self_s(name):
        return float(np.sum(own[masks.get(name, no_spans)]))

    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s(name)
    n_saddle = calls("metrics.saddle_point")
    distinct = len(tracer.distinct["metrics.saddle_point"])
    out["metrics.saddle_point.distinct_ratio"] = distinct / n_saddle if n_saddle else 0.0
    compare = masks.get("harness.compare_arms", no_spans)
    if compare.any():
        arm_runs = masks["harness.run_experiment"] & np.isin(spans["parent"], np.flatnonzero(compare) + lo)
        out["harness.compare_arms.parallelism"] = float(np.sum(dur[arm_runs]) / np.sum(dur[compare]))
    else:
        out["harness.compare_arms.parallelism"] = 0.0
    out["harness.make_learner.attempts_per_task"] = calls("harness.make_learner") / (ops * PLAYERS)
    out["harness.write_records_csv.bytes"] = tracer.counters["harness.write_records_csv.bytes"]
    out["trace.coverage"] = root_coverage(spans, offset=lo) / pass_seconds
    return out


def traced(workloads, workload, seed, seconds, reference):
    """Alternate untraced and traced passes (build + unit) until ``seconds`` pass.

    Per-layer metrics are medians over the traced passes; the overhead is
    each traced pass against the untraced pass just before it.
    """
    from spans import Tracer

    tracer = Tracer()
    passes, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        plain_s, inputs, output, error = timed_pass(workload, seed=seed)
        outcomes.append(evaluate(workloads, workload, inputs, output, error, reference))
        workload.close(inputs)

        lo = len(tracer.start)
        traced_s, inputs, output, error = timed_pass(workload, seed=seed, tracer=tracer)
        outcomes.append(evaluate(workloads, workload, inputs, output, error, reference))
        workload.close(inputs)
        row = layer_metrics(tracer, lo, len(tracer.start), len(workload.ops()), traced_s)
        row["trace.overhead_frac"] = traced_s / plain_s - 1.0
        tracer.counters.clear()
        tracer.distinct.clear()
        passes.append({"untraced_s": plain_s, "traced_s": traced_s, "metrics": row})
    metrics = {name: statistics.median(p["metrics"][name] for p in passes) for name, _ in PER_LAYER}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")
    return metrics, passes, outcomes


def main(argv=None):
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s, workloads, workload, seed, inputs = setup_once(args.workload, args.seed)
    reference = workloads.load_reference(workload, seed)
    machine = machine_record(load_at_start)
    print(
        "machine: nproc={nproc} affinity={affinity} python={python} numpy={numpy} "
        "scipy={scipy} METAGAMES_THREADS={metagames_threads} (env: {metagames_threads_env}) "
        "loadavg={loadavg_at_start}".format(**machine)
    )
    print(
        f"workload {workload.name} seed {seed} (held-out seed {workload.held_out_seed}); "
        f"shape {workload.shape}; reference {'found' if reference else 'not recorded for this seed'}"
    )
    record = {"workload": workload.name, "seed": seed, "trace": args.trace, "machine": machine}

    if args.trace:
        workload.close(inputs)
        metrics, passes, outcomes = traced(workloads, workload, seed, args.seconds, reference)
        record["passes"] = passes
        print(f"{len(passes)} traced passes, each after an untraced one")
        reported = PER_LAYER
    else:
        try:
            samples = [setup_s] + fresh_setup_seconds(workload.name, seed, SETUP_SAMPLES - 1)
            units, outcomes = end_to_end(workloads, workload, inputs, args.seconds, reference)
        finally:
            workload.close(inputs)
        metrics = {
            "tasks_per_s": sum(len(o.ops) for o in outcomes) / sum(units),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_samples_s=samples, unit_s=units)
        print(
            f"{len(units)} units of {len(workload.ops())} tasks; unit seconds median "
            f"{statistics.median(units):.4f} min {min(units):.4f} max {max(units):.4f}; "
            f"set-up seconds " + " ".join(f"{s:.3f}" for s in samples)
        )
        reported = END_TO_END

    attempted = sum(len(o.ops) for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    for note in sorted({n for o in outcomes for n in o.notes}):
        print(f"check: {note}")
    for name, unit in reported:
        print(f"{name:45s} {metrics[name]:>14.6g} {unit}")
    print(f"{'fail_frac':45s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} operations)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }
    record.update(result=result, fail_frac=failed / attempted)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
