"""The benchmark's workloads, driven through holocode's public functions.

A workload has three parts:

- ``setup``: build the workload's codes (and, on the Monte Carlo
  workloads, their ``CodeDecoder``); timed as ``setup_s``.
- ``round``: one pass of the pipeline the ``reproduce`` command runs,
  set-up included; timed as ``wall_s``.  A run repeats whole rounds.
- ``probe``: traced runs only.  It calls every layer the per-layer
  metrics name on the workload's own codes, one public call per span,
  and checks each decode against properties of exact minimum-weight
  decoding.

Inputs derive from the seed alone.  Round i of a Monte Carlo run passes
``seed * 1000 + i`` to ``simulate_code``, so a run's median averages over
the weights that ``auto`` picks for several seeds; the seed also keys the
probe's error sampler.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from holocode import (
    CodeDecoder,
    CosetTrellis,
    binomial_mix,
    bit_distance,
    build_code,
    build_tiling,
    estimate_threshold,
    extract_code,
    network_state,
    pure_error,
    run_trials,
    sample_fixed_weight_error,
    simulate_code,
    word_distance,
)
from holocode.builder import DEFAULT_SEEDS, ORIENTATIONS, seed_for_tile
from holocode.seeds import CATALOG

import checks

# Spans whose per-call durations give the per-trial layer metrics.
TRIAL_CALLS = {
    "sim.sample": "sim.sample_fixed_weight_error",
    "decoder.syndrome": "decoder.syndrome",
    "decoder.decode": "decoder.decode",
    "decoder.trellis_minimize": "decoder.CosetTrellis.minimize",
    "decoder.effect": "decoder.net_logical_effect",
}

# The probe decodes at least this many trials, so p99 keeps ten samples
# beyond it.
PROBE_TRIALS = 1000

BINOMIAL_MIX_GRID = np.linspace(0.005, 0.5, 25)


@dataclass
class Round:
    wall_s: float
    setup_s: float
    ops: int  # decode trials or distance rows
    failed: int  # timed-out trials or uncertified rows
    solve_s: float  # time in simulate_code or in the distance calls
    state: dict = field(default_factory=dict)


def build(tracer, family, variant, radius):
    """``build_code``; split into its public stages when tracing."""
    if not tracer.enabled:
        return build_code(family, variant, radius)
    with tracer.span("tiling.build_tiling"):
        graph = build_tiling(family, radius, variant)
    seed_name = DEFAULT_SEEDS[(family, variant)]
    with tracer.span("builder.seed_for_tile"):
        base = CATALOG[seed_name]()
        seed_map = {t.id: seed_for_tile(base, t.kind, t.sides)
                    for t in graph.tiles}
    with tracer.span("builder.network_state"):
        state = network_state(graph, seed_map, ORIENTATIONS.get(seed_name, {}))
    with tracer.span("builder.extract_code"):
        return extract_code(state, graph, seed_name)


def probe_rng(seed: int, label: str) -> Generator:
    digest = hashlib.blake2b(f"perfbench:{seed}:{label}".encode(),
                             digest_size=16).digest()
    return Generator(Philox(key=np.frombuffer(digest, dtype=np.uint64)))


def trellises(tracer, dec):
    """The decoder's trellises, rebuilt from its public generator lists;
    CSS codes give (Z-error sector, X-error sector)."""
    with tracer.span("decoder.CosetTrellis"):
        if dec.mode == "css":
            return (CosetTrellis(dec.z_gens, dec.n),
                    CosetTrellis(dec.x_gens, dec.n))
        return (CosetTrellis(dec.sym_gens, 2 * dec.n, fold_shift=dec.n),)


def state_profile(trellis):
    """(peak state bits, summed states over the sweep's columns)."""
    bits = peak = total = 0
    for op in trellis.schedule:
        if op[0] == "branch":
            bits += 1
            peak = max(peak, bits)
        elif op[0] == "merge":
            bits -= 1
        else:
            total += 1 << bits
    return peak, total


def probe_trials(tracer, dec, trellis_pair, weights, per_weight, a_max, rng):
    """Decode ``per_weight`` sampled errors at each weight, one span per
    public call.  The trellis minima are taken in a second pass, so the
    probe's own trellis does not share the cache with the decoder's while
    the trial path is timed.  Returns (trials, timeouts)."""
    n = dec.n
    decoded = []
    timeouts = 0
    for a in weights:
        for _ in range(per_weight):
            with tracer.span("sim.sample_fixed_weight_error"):
                err = sample_fixed_weight_error(n, a, rng)
            with tracer.span("decoder.syndrome"):
                syn = dec.syndrome(err)
            with tracer.span("decoder.decode"):
                corr, certified = dec.decode(syn)
            if not certified:
                timeouts += 1
                continue
            net = err.mul(corr)
            with tracer.span("decoder.net_logical_effect"):
                effect = dec.net_logical_effect(net)
            if a <= a_max:
                checks.require(effect[0] == "I",
                               f"n={n}: logical failure at a={a} <= {a_max}")
            decoded.append((syn, err, corr))
    for syn, err, corr in decoded:
        if dec.mode == "css":
            targets = (pure_error(dec.fx, syn[0]), pure_error(dec.fz, syn[1]))
        else:
            targets = (pure_error(dec.f, syn),)
        minima = []
        for trellis, target in zip(trellis_pair, targets):
            with tracer.span("decoder.CosetTrellis.minimize"):
                minima.append(trellis.minimize(target)[0])
        checks.check_correction(dec, syn, err, corr, minima)
    return len(weights) * per_weight, timeouts


def probe_distances(tracer, family, variant, radius, code):
    with tracer.span("distance.bit_distance"):
        db = bit_distance(code, 0)
    with tracer.span("distance.word_distance"):
        dw = word_distance(code, 0)
    checks.require(db.certified and dw.certified,
                   f"{family}/{variant} R={radius}: distance uncertified")
    checks.check_distance_row(family, variant, radius, db.value, dw.value)


class MonteCarlo:
    """``simulate_code`` curves with ``weights="auto"`` on the central
    qubit, then ``estimate_threshold`` when there are two radii."""

    min_rounds = 1

    def __init__(self, seed, codes, trials_per_weight, threshold):
        self.seed = seed
        self.specs = codes
        self.trials = trials_per_weight
        self.threshold = threshold
        self.rounds = 0

    def setup(self, tracer):
        start = time.perf_counter()
        built = []
        with tracer.span("bench.setup"):
            for spec in self.specs:
                code = build(tracer, *spec)
                with tracer.span("decoder.CodeDecoder"):
                    dec = CodeDecoder(code)
                built.append((spec, code, dec))
        return time.perf_counter() - start, built

    def round(self, tracer):
        start = time.perf_counter()
        curves = []
        solve = 0.0
        seed = self.seed * 1000 + self.rounds
        self.rounds += 1
        with tracer.span("bench.round"):
            setup_s, built = self.setup(tracer)
            for _, code, _ in built:
                t = time.perf_counter()
                with tracer.span("sim.simulate_code"):
                    curve = simulate_code(code, target_qubit=0,
                                          trials_per_weight=self.trials,
                                          seed=seed, weights="auto",
                                          threads=1)
                solve += time.perf_counter() - t
                curves.append(curve)
            p_th = None
            if self.threshold:
                with tracer.span("sim.estimate_threshold"):
                    p_th = estimate_threshold(curves)[0]
        wall = time.perf_counter() - start

        for (spec, code, _), curve in zip(built, curves):
            checks.check_n(*spec, code.n)
            checks.check_failure_free(curve, checks.correctable_weight(*spec))
        if self.threshold:
            checks.check_crossing(p_th)
        records = [r for c in curves for r in c.records]
        return Round(wall, setup_s, sum(r.m for r in records),
                     sum(r.timeouts for r in records), solve,
                     {"built": built, "curves": curves, "p_th": p_th,
                      "weights": [len(c.records) for c in curves]})

    def probe(self, tracer, last):
        """Per-call layer timings over the last round's codes and weights."""
        built, curves = last.state["built"], last.state["curves"]
        n_weights = sum(len(c.records) for c in curves)
        per_weight = math.ceil(PROBE_TRIALS / n_weights)
        trials = timeouts = 0
        profiles = {}
        with tracer.span("bench.probe"):
            for (spec, code, dec), curve in zip(built, curves):
                pair = trellises(tracer, dec)
                profiles["/".join(map(str, spec))] = [state_profile(t) for t in pair]
                done, lost = probe_trials(
                    tracer, dec, pair, [r.a for r in curve.records],
                    per_weight, checks.correctable_weight(*spec),
                    probe_rng(self.seed, str(spec)))
                trials += done
                timeouts += lost
                probe_distances(tracer, *spec, code)
                for p in BINOMIAL_MIX_GRID:
                    with tracer.span("sim.binomial_mix"):
                        binomial_mix(curve.records, float(p), curve.n)
        return {
            "trials": trials,
            "timeouts": timeouts,
            "weights": n_weights,
            "loop_s": last.solve_s,
            "loop_trials": last.ops,
            "profiles": profiles,
        }


TABLE_ROWS = [(family, variant, radius)
              for family, variant in (("heptagon", "max"),
                                      ("pentagon", "reduced"),
                                      ("pentagon", "zero"))
              for radius in range(1, 5)]


class DistanceTable:
    """Every row of ``reproduce table3 --max-radius 4``: the central
    qubit's bit distance, plus its word distance when k > 1."""

    # One round's distance time is mostly one call (pentagon/zero R=4,
    # about 5 s of passes over 900 MB); two rounds average its noise.
    min_rounds = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self, tracer):
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            built = [(spec, build(tracer, *spec)) for spec in TABLE_ROWS]
        return time.perf_counter() - start, built

    def round(self, tracer):
        start = time.perf_counter()
        rows = []
        solve = 0.0
        failed = 0
        with tracer.span("bench.round"):
            setup_s, built = self.setup(tracer)
            for spec, code in built:
                t = time.perf_counter()
                with tracer.span("distance.bit_distance"):
                    db = bit_distance(code, 0)
                dw = None
                if code.k > 1:
                    with tracer.span("distance.word_distance"):
                        dw = word_distance(code, 0)
                solve += time.perf_counter() - t
                certified = db.certified and (dw is None or dw.certified)
                failed += not certified
                rows.append((spec, code, db, dw, certified))
        wall = time.perf_counter() - start

        fit_rows = []
        for spec, code, db, dw, certified in rows:
            checks.check_n(*spec, code.n)
            if certified:
                word = None if dw is None else dw.value
                checks.check_distance_row(*spec, db.value, word)
                fit_rows.append((*spec, code.n, db.value, word))
        checks.check_exponents(fit_rows)
        return Round(wall, setup_s, len(rows), failed, solve,
                     {"built": built})

    def probe(self, tracer, last):
        """Decoder layers on the R <= 3 rows: ``run_trials`` and a traced
        trial loop at the largest weight below half the word distance,
        where an exact decoder never fails."""
        small = [(spec, code) for spec, code in last.state["built"]
                 if spec[2] <= 3]
        per_code = math.ceil(PROBE_TRIALS / len(small))
        trials = timeouts = 0
        loop_s = 0.0
        profiles = {}
        with tracer.span("bench.probe"):
            for spec, code in small:
                with tracer.span("decoder.CodeDecoder"):
                    dec = CodeDecoder(code)
                pair = trellises(tracer, dec)
                profiles["/".join(map(str, spec))] = [state_profile(t) for t in pair]
                a_max = checks.correctable_weight(*spec)
                t = time.perf_counter()
                with tracer.span("sim.run_trials"):
                    rec = run_trials(code, 0, a_max, per_code, self.seed,
                                     decoder=dec)
                loop_s += time.perf_counter() - t
                checks.require(rec.f == rec.timeouts,
                               f"{spec}: {rec.f - rec.timeouts} failures at "
                               f"a={a_max}, below half the word distance")
                timeouts += rec.timeouts
                done, lost = probe_trials(
                    tracer, dec, pair, [a_max], per_code, a_max,
                    probe_rng(self.seed, str(spec)))
                trials += done + per_code
                timeouts += lost
        return {
            "trials": trials,
            "timeouts": timeouts,
            "weights": len(small),
            "loop_s": loop_s,
            "loop_trials": per_code * len(small),
            "profiles": profiles,
        }


WORKLOADS = {
    "threshold-heptagon": lambda seed: MonteCarlo(
        seed, [("heptagon", "max", 2), ("heptagon", "max", 3)],
        trials_per_weight=100, threshold=True),
    "mc-zero-rate": lambda seed: MonteCarlo(
        seed, [("pentagon", "zero", 3)], trials_per_weight=50,
        threshold=False),
    "distance-table": DistanceTable,
}
