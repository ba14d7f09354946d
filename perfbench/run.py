"""Run one benchmark workload of holocode and print its metrics.

    python3 perfbench/run.py --workload threshold-heptagon --seed 1 \
        --seconds 30 --trace 0

Runs from the repository root (or any checkout of it) against the source
tree in ``src/``.  A run repeats whole rounds of the workload while the
next one still fits in ``--seconds`` (at least the workload's
``min_rounds``), then repeats the set-up alone (see ``MIN_SETUPS``).
Time metrics are scaled to a reference host speed (see ``pace.py``); the
summary record keeps them unscaled too.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans around every call into
holocode, adds the per-layer probe and reports the per-layer metrics.
The last line of standard output is one JSON object; the full record,
and the spans of a traced run, go to ``perfbench/results/``.
``--workload all`` runs every workload in its own process, one after
another.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import holocode  # noqa: E402

if not os.path.abspath(holocode.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"holocode imported from {holocode.__file__}, not from {ROOT}/src")

import checks  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402
from tracing import Tracer, percentile, span_cost_us  # noqa: E402
from workloads import TRIAL_CALLS, WORKLOADS  # noqa: E402

RESULTS = os.path.join(HERE, "results")
# Set-up is repeated alone after the rounds until there are MIN_SETUPS
# samples, and further, up to MAX_SETUPS, while the next repeat still
# fits in SETUP_SHARE of --seconds.
MIN_SETUPS = 2
MAX_SETUPS = 40
SETUP_SHARE = 0.1

# Per-layer metric -> span whose summed duration per round, set-up or
# probe gives it (median over those groups).
GROUP_SUMS = {
    "tiling.build_tiling_s": "tiling.build_tiling",
    "builder.network_state_s": "builder.network_state",
    "builder.extract_code_s": "builder.extract_code",
    "decoder.init_s": "decoder.CodeDecoder",
    "decoder.trellis_init_s": "decoder.CosetTrellis",
    "distance.bit_distance_s": "distance.bit_distance",
    "distance.word_distance_s": "distance.word_distance",
}


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name](seed)
    tracer = Tracer(trace)
    with Pace() as pace:
        rounds, setups = measure(workload, tracer, seconds, pace)
        probe = workload.probe(tracer, rounds[-1][0]) if trace else None
        cost_us = span_cost_us() if trace else None
    slowness = pace.slowness()

    attempted = sum(r.ops for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    summary = {"rounds": len(rounds), "setups": len(setups),
               "pace": {"kernel_ms": slowness * REFERENCE_S * 1e3,
                        "samples": len(pace.samples),
                        "slowness": slowness}}
    last = rounds[-1][0].state
    for key in ("weights", "p_th"):
        if key in last:
            summary[key] = last[key]
    if trace:
        attempted += probe["trials"]
        failed += probe["timeouts"]
        metrics = layer_metrics(tracer, [r for r, _ in rounds], probe, cost_us)
        summary.update(layer_summary(tracer, probe))
        summary["unscaled"] = {k: v for k, (v, u) in metrics.items()
                               if u in SCALED}
        metrics = {k: (at_reference_speed(v, u, slowness), u)
                   for k, (v, u) in metrics.items()}
        return attempted, failed, metrics, summary, tracer

    summary["unscaled"] = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": attempted / sum(r.solve_s for r, _ in rounds),
        "wall_s": statistics.fmean(r.wall_s for r, _ in rounds),
    }
    metrics = {
        "setup_s": (statistics.median(s / k for s, k in setups), "s"),
        "ops_per_s": (attempted / sum(r.solve_s / k for r, k in rounds),
                      "1/s"),
        "wall_s": (statistics.fmean(r.wall_s / k for r, k in rounds), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    return attempted, failed, metrics, summary, None


# Units of the per-layer time metrics, which are scaled to the reference
# host speed, and whether a slower host makes their values larger.
SCALED = {"s": True, "us": True, "1/s": False}


def at_reference_speed(value, unit, slowness):
    """``value`` as it would read on the reference host (see pace.py)."""
    if unit not in SCALED:
        return value
    return value / slowness if SCALED[unit] else value * slowness


def measure(workload, tracer, seconds, pace):
    """Whole rounds while the next one still fits in ``seconds`` (at least
    ``workload.min_rounds``), then the set-up alone (see ``MIN_SETUPS``).
    Returns (round, slowness) and (set-up seconds, slowness) pairs, each
    with the host's slowness while it ran."""
    start = time.perf_counter()
    rounds = []
    while True:
        if rounds:
            rounds[-1][0].state = None  # keep one round's codes in memory
        t, mark = time.perf_counter(), len(pace.samples)
        rounds.append((workload.round(tracer), pace.slowness(mark)))
        took = time.perf_counter() - t
        if (len(rounds) >= workload.min_rounds
                and time.perf_counter() - start + took > seconds):
            break
    setups = [(r.setup_s, k) for r, k in rounds]
    extra = []
    mark = len(pace.samples)
    while len(setups) + len(extra) < MIN_SETUPS or (
            len(setups) + len(extra) < MAX_SETUPS
            and sum(extra) + (extra[-1] if extra else setups[-1][0])
            <= SETUP_SHARE * seconds):
        extra.append(workload.setup(tracer)[0])
    if extra:  # each repeat is too short for a slowness of its own
        slowness = pace.slowness(mark)
        setups += [(s, slowness) for s in extra]
    return rounds, setups


def group_sums(tracer, name):
    """Summed durations of ``name`` spans per top-level span."""
    top = []
    for _, _, _, parent in tracer.spans:
        top.append(len(top) if parent < 0 else top[parent])
    sums = {}
    for i, (n, s, e, _) in enumerate(tracer.spans):
        if n == name:
            sums[top[i]] = sums.get(top[i], 0.0) + (e - s) * 1e-9
    return list(sums.values())


def layer_metrics(tracer, rounds, probe, cost_us):
    metrics = {}
    for metric, span in GROUP_SUMS.items():
        sums = group_sums(tracer, span)
        checks.require(bool(sums), f"no {span} span recorded")
        metrics[metric] = (statistics.median(sums), "s")
    means = 0.0
    for metric, span in TRIAL_CALLS.items():
        us = [d * 1e6 for d in tracer.durations(span)]
        checks.require(len(us) >= 1000, f"{span}: {len(us)} samples, need 1000")
        metrics[metric + "_us"] = (statistics.median(us), "us")
        metrics[metric + "_us.p99"] = (percentile(us, 99.0), "us")
        if metric != "decoder.trellis_minimize":
            means += statistics.fmean(us)
    per_trial = probe["loop_s"] / probe["loop_trials"] * 1e6
    metrics["sim.trial_overhead_us"] = (per_trial - means, "us")
    metrics["sim.weights"] = (probe["weights"], "count")
    metrics["trace.wall_s"] = (statistics.fmean(r.wall_s for r in rounds), "s")
    metrics["trace.span_cost_us"] = (cost_us, "us")
    return metrics


def layer_summary(tracer, probe):
    """Figures for the record that not every workload has."""
    out = {"spans": len(tracer.spans),
           "self_s": {k: round(v, 6) for k, v in
                      sorted(tracer.self_times().items())},
           "samples": {span: len(tracer.durations(span))
                       for span in TRIAL_CALLS.values()},
           "state_profiles": probe["profiles"]}
    mix = [d * 1e6 for d in tracer.durations("sim.binomial_mix")]
    if mix:
        out["sim.binomial_mix_us"] = statistics.median(mix)
        out["sim.binomial_mix_calls"] = len(mix)
    scan = tracer.durations("sim.estimate_threshold")
    if scan:
        out["sim.estimate_threshold_s"] = statistics.median(scan)
    return out


def run_all(args):
    """Every workload in its own process, one after another; prints each
    one's metric lines and ends with their results in one JSON object."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.exit(f"{name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    try:
        attempted, failed, metrics, summary, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(1)

    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print("summary " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, summary=summary), fh, indent=1, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        tracer.write(stem + ".spans.json")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
