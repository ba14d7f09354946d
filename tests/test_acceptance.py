"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The simulation criteria take a few minutes of CPU; everything is
deterministic for the seeds fixed here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from holocode.builder import DEFAULT_SEEDS, ORIENTATIONS, build_code
from holocode.decoder import CodeDecoder, CosetTrellis, pure_error
from holocode.distance import bit_distance, fit_distance_scaling, word_distance
from holocode.gf2 import PauliVector, right_inverse
from holocode.seeds import (
    CATALOG,
    five_qubit_tensor,
    is_block_perfect,
    is_perfect,
    scf_tensor,
    steane_tensor,
)
from holocode.sim import sample_fixed_weight_error, simulate_code, write_curve_csv
from holocode.tiling import REFERENCE_BOUNDARY_COUNTS, build_tiling, counts
from oracles import DecodeProblem, exhaustive_min, milp_min, row_parities


def report(criterion, text):
    print(f"\n[criterion {criterion}] PASS: {text}")


# -- 1: seed tensor properties ----------------------------------------------


def test_criterion_1_seed_properties():
    start = time.monotonic()
    assert is_block_perfect(steane_tensor())
    assert is_block_perfect(scf_tensor())
    assert is_perfect(five_qubit_tensor())
    assert not is_perfect(scf_tensor())
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"seed isometry properties verified in {elapsed:.2f}s")


# -- 2: tiling counts ---------------------------------------------------------


def test_criterion_2_tiling_counts():
    start = time.monotonic()
    checked = 0
    for (family, variant), expected in REFERENCE_BOUNDARY_COUNTS.items():
        for radius, n_expected in enumerate(expected, start=1):
            n, _, _ = counts(build_tiling(family, radius, variant))
            assert n == n_expected, (family, variant, radius, n, n_expected)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 18 and elapsed < 10.0
    report(2, f"18/18 boundary counts exact in {elapsed:.2f}s")


# -- 3: single-tile codes -----------------------------------------------------


def test_criterion_3_single_tile_codes():
    steane = build_code("heptagon", "max", 1)
    dec = CodeDecoder(steane)
    for q, kind in itertools.product(range(7), "XYZ"):
        err = PauliVector.single(7, q, kind)
        corr, cert = dec.decode(dec.syndrome(err))
        assert cert
        assert dec.net_logical_effect(err.mul(corr)) == ["I"], (q, kind)

    scf = build_code("pentagon", "max", 1, "scf")
    dec = CodeDecoder(scf)
    for q, kind in itertools.product(range(5), "XYZ"):
        err = PauliVector.single(5, q, kind)
        assert dec.syndrome(err) != (0, 0), (q, kind)

    five = build_code("pentagon", "max", 1, "five_qubit")
    dec = CodeDecoder(five)
    for q, kind in itertools.product(range(5), "XYZ"):
        err = PauliVector.single(5, q, kind)
        corr, cert = dec.decode(dec.syndrome(err))
        assert cert
        assert dec.net_logical_effect(err.mul(corr)) == ["I"], (q, kind)
    report(3, "Steane corrects 21/21, SCF detects 15/15, "
              "five-qubit corrects 15/15 weight-1 errors")


# -- 4: decoder oracle equivalence --------------------------------------------


def _coset_leader_table(gens, width):
    """Exact minimum coset weights by breadth-first search over syndromes.

    Enumerates error vectors in order of increasing weight (as shortest
    paths in the syndrome Cayley graph), which is equivalent to exhausting
    all 2^|G| coset combinations for every syndrome at once.
    """
    from holocode.gf2 import kernel as gf2_kernel

    # vectors orthogonal to every generator: rows of a parity matrix whose
    # kernel is exactly span(gens)
    checks = gf2_kernel(list(gens), width)
    r = len(checks)
    col_syn = np.array([row_parities(checks, 1 << j) for j in range(width)],
                       dtype=np.int64)
    size = 1 << r
    dist = np.full(size, -1, dtype=np.int16)
    dist[0] = 0
    frontier = np.array([0], dtype=np.int64)
    w = 0
    while frontier.size:
        w += 1
        nxt = np.unique((frontier[:, None] ^ col_syn[None, :]).ravel())
        fresh = nxt[dist[nxt] == -1]
        dist[fresh] = w
        frontier = fresh
    assert np.all(dist >= 0)
    return checks, dist


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2024)
    total = 0

    # Single tiles: literal 2^|G| enumeration, both sectors / joint.
    for name in ("steane", "scf", "five_qubit"):
        fam = "heptagon" if name == "steane" else "pentagon"
        code = build_code(fam, "max", 1, name)
        dec = CodeDecoder(code)
        for *_, gens, s in dec._sectors:
            F = right_inverse(s.checks, s.width)
            trellis = CosetTrellis(gens, s.width, fold_shift=s.fold)
            for _ in range(1000 // len(dec._sectors)):
                y = int(rng.integers(0, 1 << len(s.checks)))
                e = pure_error(F, y)
                prob = DecodeProblem(e, gens, s.width, fold_shift=s.fold)
                got = trellis.minimize(e)[0]
                assert got == exhaustive_min(prob)
                total += 1

    # Heptagon R=2 sector problems: exhaustive-equivalent coset-leader BFS.
    code = build_code("heptagon", "max", 2)
    dec = CodeDecoder(code)
    for *_, gens, s in dec._sectors:
        H, dist = _coset_leader_table(gens, code.n)
        F = right_inverse(s.checks, s.width)
        trellis = CosetTrellis(gens, code.n)
        for _ in range(500):
            y = int(rng.integers(0, 1 << len(s.checks)))
            e = pure_error(F, y)
            got = trellis.minimize(e)[0]
            oracle = int(dist[row_parities(H, e)])
            assert got == oracle
            total += 1
    report(4, f"trellis matches exhaustive enumeration on {total} syndromes")


# Decodes checked against the paper's own integer program, per code: how
# many sampled errors, and the most weight one may have as a fraction of n.
# pentagon/zero R=3 joint decoding is left out: HiGHS takes 4-48 s there.
MILP_DECODES = {
    ("heptagon", "max", 3): (6, 10),
    ("pentagon", "reduced", 3): (12, 4),
    ("pentagon", "zero", 2): (12, 4),
}


def test_criterion_4_milp_supplement():
    rng = np.random.default_rng(2025)
    total = 0
    start = time.monotonic()
    for spec, (errors, frac) in MILP_DECODES.items():
        code = build_code(*spec)
        dec = CodeDecoder(code)
        n = code.n
        for _ in range(errors):
            a = int(rng.integers(1, n // frac + 1))
            err = sample_fixed_weight_error(n, a, rng)
            if code.css:
                yx, yz = dec.syndrome(err)
                probs = [DecodeProblem(pure_error(dec.fx, yx), dec.z_gens, n),
                         DecodeProblem(pure_error(dec.fz, yz), dec.x_gens, n)]
            else:
                e = pure_error(dec.f, dec.syndrome(err))
                probs = [DecodeProblem(e, dec.sym_gens, 2 * n, fold_shift=n)]
            for (_, _, trellis, *_), prob in zip(dec._sectors, probs):
                assert trellis.minimize(prob.target)[0] == milp_min(prob)
                total += 1
    report(4, f"trellis matches HiGHS on {total} R=2,3 decodes "
              f"({time.monotonic() - start:.1f} s)")


# -- 5: distances -------------------------------------------------------------

DISTANCE_TABLE = {
    ("heptagon", "max"): {1: (3, 3), 2: (9, 6), 3: (19, 8)},
    ("pentagon", "reduced"): {1: (2, 2), 2: (4, 4), 3: (8, 4)},
    ("pentagon", "zero"): {1: (3, None), 2: (9, None), 3: (19, None)},
}

STRETCH_TABLE = {
    ("heptagon", "max"): (45, 15),
    ("pentagon", "reduced"): (16, 8),
    ("pentagon", "zero"): (41, None),
}


@pytest.fixture(scope="module")
def distance_results():
    results = {}
    start = time.monotonic()
    for (family, variant), rows in DISTANCE_TABLE.items():
        for radius, expected in rows.items():
            code = build_code(family, variant, radius)
            db = bit_distance(code, 0)
            # with a single logical qubit the word distance has an empty
            # mu sum and coincides with the bit distance
            dw = word_distance(code, 0) if expected[1] is not None else None
            results[(family, variant, radius)] = (code.n, db, dw)
    results["elapsed"] = time.monotonic() - start
    return results


def test_criterion_5_distances(distance_results):
    for (family, variant), rows in DISTANCE_TABLE.items():
        for radius, (db_expected, dw_expected) in rows.items():
            n, db, dw = distance_results[(family, variant, radius)]
            assert db.certified and db.value == db_expected, \
                (family, variant, radius, db)
            if dw_expected is not None:
                assert dw.certified and dw.value == dw_expected, \
                    (family, variant, radius, dw)
    elapsed = distance_results["elapsed"]
    assert elapsed < 3600.0
    report(5, f"all R<=3 distances exact with certificates in {elapsed:.1f}s")


def test_criterion_5_stretch_radius_four():
    lines = []
    for (family, variant), (db_e, dw_e) in STRETCH_TABLE.items():
        code = build_code(family, variant, 4)
        db = bit_distance(code, 0)
        assert db.value == db_e and db.certified, (family, variant, db)
        line = f"{family}/{variant}: dB={db.value}"
        if dw_e is not None:
            dw = word_distance(code, 0)
            assert dw.value == dw_e and dw.certified
            line += f" dW={dw.value}"
        lines.append(line)
    report(5, "stretch R=4 rows certified exact (" + "; ".join(lines) + ")")


# Every (rotation, reflect) option of each seed's oriented tile role that
# reproduces the R<=3 rows of DISTANCE_TABLE.  The calibrated choice is not
# unique: R=4 further narrows Steane to (5, True) and (6, False) and SCF to
# (0, True), (1, False) and (2, True); the five-qubit tensor is cyclic.
MATCHING_ORIENTATIONS = {
    "steane": {(0, False), (0, True), (2, False), (2, True), (4, False),
               (4, True), (5, False), (5, True), (6, False), (6, True)},
    "scf": {(0, True), (1, False), (2, True), (4, False)},
    "five_qubit": {(r, f) for r in range(5) for f in (False, True)},
}


def test_criterion_5_orientation_sweep():
    """Pins ``ORIENTATIONS``: a change to leg numbering or to the
    orientation convention moves the matching set and fails here."""
    for (family, variant), rows in DISTANCE_TABLE.items():
        seed = DEFAULT_SEEDS[(family, variant)]
        (role, calibrated), = ORIENTATIONS[seed].items()
        sides = CATALOG[seed]().n
        matching = set()
        for option in itertools.product(range(sides), (False, True)):
            for radius, expected in rows.items():
                code = build_code(family, variant, radius,
                                  orientations={role: option})
                dw = (word_distance(code, 0).value
                      if expected[1] is not None else None)
                if (bit_distance(code, 0).value, dw) != expected:
                    break
            else:
                matching.add(option)
        assert matching == MATCHING_ORIENTATIONS[seed], seed
        assert calibrated in matching, seed
    report(5, "calibrated orientations reproduce the R<=3 table")


# -- 6: binomial mixing -------------------------------------------------------


def test_criterion_6_binomial_mix_oracle():
    import mpmath

    from holocode.sim import WeightRecord, binomial_mix

    rng = np.random.default_rng(7)
    for n in (9, 41, 203):
        recs = [WeightRecord(a, 2000, int(rng.integers(0, 2001)))
                for a in range(n + 1)]
        for p in (0.003, 0.05, 0.11, 0.37):
            value, _ = binomial_mix(recs, p, n)
            with mpmath.workdps(60):
                oracle = mpmath.fsum(
                    mpmath.binomial(n, r.a) * mpmath.mpf(p) ** r.a
                    * (1 - mpmath.mpf(p)) ** (n - r.a) * mpmath.mpf(r.f) / r.m
                    for r in recs)
            assert abs(value - float(oracle)) <= 1e-12 * float(oracle)
    # analytic edge cases
    n = 17
    zeros = [WeightRecord(a, 10, 0) for a in range(n + 1)]
    assert binomial_mix(zeros, 0.2, n)[0] == 0.0
    step = [WeightRecord(0, 10, 0)] + [WeightRecord(a, 10, 10)
                                       for a in range(1, n + 1)]
    assert binomial_mix(step, 0.0, n)[0] == 0.0
    for p in (0.01, 0.2):
        value, _ = binomial_mix(step, p, n)
        assert value == pytest.approx(1 - (1 - p) ** n, rel=1e-12)
    report(6, "binomial mixing matches the high-precision oracle to 1e-12")


# -- 7: threshold brackets ----------------------------------------------------

TRIALS = 2000


@pytest.fixture(scope="module")
def heptagon_curves():
    curves = []
    for radius in (2, 3):
        code = build_code("heptagon", "max", radius)
        curves.append(simulate_code(code, trials_per_weight=TRIALS,
                                    seed=2024, weights="auto"))
    return curves


@pytest.fixture(scope="module")
def reduced_curves():
    curves = []
    for radius in (1, 3):
        code = build_code("pentagon", "reduced", radius)
        curves.append(simulate_code(code, trials_per_weight=TRIALS,
                                    seed=2024, weights="auto"))
    return curves


def test_criterion_7_heptagon_threshold_bracket(heptagon_curves):
    from holocode.sim import estimate_threshold

    p_th, bracket, _ = estimate_threshold(heptagon_curves)
    assert 0.05 <= p_th <= 0.10, (p_th, bracket)
    report(7, f"heptagon R2/R3 crossing at p={p_th:.4f} within [0.05, 0.10]")


def test_criterion_7_reduced_ordering(reduced_curves):
    """The reduced-rate curves of the same-parity radii R=1 and R=3 are
    ordered one way at p = 0.04 and the other way at p = 0.13, bracketing
    a crossing near the low end of the paper's 7%-16% threshold range.

    Same-parity radii are compared because R=2 and R=3 cannot flip: both
    have word distance 4 (criterion 5), so failures start at error weight
    2 in both, and R=3's 75 qubits against R=2's 25 keep its curve above
    R=2's.  With these settings the R2/R3 pair has no crossing anywhere
    in [0.005, 0.5], and scoring the decoder's ties exactly keeps R=3
    above R=2 at p = 0.04 under every uniform tie rule (P2/P3 = 0.027/
    0.051 for a fair coin, 0.004/0.011 if every tie is resolved correctly,
    0.050/0.089 if every tie is resolved wrongly).  R=1 against R=3 flips
    by 16.6 sigma at p = 0.04 and 31.8 sigma at p = 0.13, crossing near
    p = 0.067.
    """
    c1, c3 = reduced_curves
    lo1, slo1 = c1.mixed(0.04)
    lo3, slo3 = c3.mixed(0.04)
    hi1, shi1 = c1.mixed(0.13)
    hi3, shi3 = c3.mixed(0.13)
    # the deeper code should win below the crossing at 3 sigma ...
    assert lo3 + 3 * math.hypot(slo3, slo1) < lo1, \
        f"R3 not below R1 at p=0.04: P3={lo3:.4f} P1={lo1:.4f}"
    # ... and lose above it
    assert hi3 - 3 * math.hypot(shi3, shi1) > hi1, \
        f"R3 not above R1 at p=0.13: P3={hi3:.4f} P1={hi1:.4f}"
    report(7, f"reduced R1/R3 ordering flips: P3(0.04)={lo3:.4f} < "
              f"P1={lo1:.4f}; P3(0.13)={hi3:.4f} > P1={hi1:.4f} at 3 sigma")


def test_criterion_7_reduced_within_parity_supplement(reduced_curves):
    """Supplementary evidence (not a stated criterion): the reduced-rate
    thresholds quoted as 7.1% (odd) / 8.2% (even) are crossings of
    same-parity radii.  The odd-family crossing R=1 vs R=3 must land in a
    loose bracket around 7%."""
    from holocode.sim import estimate_threshold

    p_odd, bracket, _ = estimate_threshold(reduced_curves)
    assert 0.05 <= p_odd <= 0.10, (p_odd, bracket)
    report(7, f"supplement: reduced odd-family (R1 vs R3) crossing at "
              f"p={p_odd:.4f}, consistent with the quoted 7.1%")


# -- 8: distance scaling fits -------------------------------------------------


def test_criterion_8_scaling_fits(distance_results):
    bands = {
        ("heptagon", "max", "bit"): (0.54, 0.03),
        ("heptagon", "max", "word"): (0.37, 0.07),
        ("pentagon", "reduced", "bit"): (0.31, 0.10),
        ("pentagon", "reduced", "word"): (0.48, 0.07),
        ("pentagon", "zero", "bit"): (0.65, 0.08),
    }
    points = {}
    for (family, variant), rows in DISTANCE_TABLE.items():
        bit_pts, word_pts = [], []
        for radius in rows:
            n, db, dw = distance_results[(family, variant, radius)]
            assert db.value > 0
            bit_pts.append((n, db.value))
            if dw is not None:
                assert dw.value <= db.value
                word_pts.append((n, dw.value))
        points[(family, variant, "bit")] = bit_pts
        points[(family, variant, "word")] = word_pts
    for key, (center, half) in bands.items():
        pts = points[key]
        if len(pts) < 3:
            continue
        exponent, (lo, hi) = fit_distance_scaling(pts)
        assert exponent > 0
        assert lo <= center + half and hi >= center - half, (key, exponent, lo, hi)
    report(8, "power-law exponents consistent with the quoted 95% bands; "
              "word <= bit everywhere")


# -- 9: reproducibility across workers ---------------------------------------


def test_criterion_9_bit_identical_across_workers(tmp_path):
    code = build_code("heptagon", "max", 2)
    outputs = []
    for threads in (1, 4, 8):
        curve = simulate_code(code, trials_per_weight=50, seed=31,
                              weights=[0, 2, 5, 9, 14], threads=threads)
        path = tmp_path / f"workers{threads}.csv"
        write_curve_csv(curve, str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report(9, "simulate output bit-identical for 1, 4 and 8 workers")


# -- 10: uncertainty formula --------------------------------------------------


def test_criterion_10_sigma_formula(heptagon_curves):
    checked = 0
    for curve in heptagon_curves:
        for rec in curve.records:
            p = rec.f / rec.m
            assert rec.sigma == math.sqrt(p * (1.0 - p) / rec.m)
            checked += 1
    assert checked > 0
    report(10, f"sigma = sqrt(P(1-P)/m) exact on {checked} records")
