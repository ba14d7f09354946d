"""Monte Carlo harness: sampling, mixing, thresholds, reproducibility."""

import hashlib
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocode.builder import build_code
from holocode.decoder import CodeDecoder
from holocode.sim import (
    FailureCurve,
    WeightRecord,
    _binomial_pmf,
    _trial_rng,
    binomial_mix,
    estimate_threshold,
    read_curve_csv,
    run_trials,
    sample_fixed_weight_error,
    simulate_code,
    write_curve_csv,
)


def test_sample_weight_zero_is_identity():
    rng = _trial_rng(0, "c", 0, 0)
    err = sample_fixed_weight_error(11, 0, rng)
    assert err.weight() == 0


def test_sample_full_weight_touches_every_qubit():
    rng = _trial_rng(0, "c", 11, 0)
    err = sample_fixed_weight_error(11, 11, rng)
    assert err.weight() == 11


def test_sample_fixed_weight_exact():
    rng = _trial_rng(1, "c", 4, 0)
    for t in range(200):
        err = sample_fixed_weight_error(9, 4, rng)
        assert err.weight() == 4


def test_sample_rejects_bad_weight():
    rng = _trial_rng(0, "c", 0, 0)
    with pytest.raises(ValueError):
        sample_fixed_weight_error(5, 6, rng)


def test_sample_marginals_uniform():
    # each qubit in support with probability a/n; X, Y, Z each 1/3
    n, a, draws = 10, 3, 30000
    support_counts = np.zeros(n)
    kind_counts = np.zeros(3)
    for t in range(draws):
        rng = _trial_rng(7, "marginals", a, t)
        err = sample_fixed_weight_error(n, a, rng)
        for q in range(n):
            x = (err.x >> q) & 1
            z = (err.z >> q) & 1
            if x or z:
                support_counts[q] += 1
                kind_counts[x + 2 * z - 1] += 1
    expect_q = draws * a / n
    sigma_q = math.sqrt(draws * (a / n) * (1 - a / n))
    assert np.all(np.abs(support_counts - expect_q) < 5 * sigma_q)
    total = draws * a
    sigma_k = math.sqrt(total * (1 / 3) * (2 / 3))
    assert np.all(np.abs(kind_counts - total / 3) < 5 * sigma_k)


def test_trial_rng_is_counter_keyed():
    a = _trial_rng(1, "x", 3, 17).integers(0, 1 << 30)
    b = _trial_rng(1, "x", 3, 17).integers(0, 1 << 30)
    c = _trial_rng(1, "x", 3, 18).integers(0, 1 << 30)
    assert a == b and a != c


def test_sigma_formula():
    rec = WeightRecord(a=3, m=100, f=50)
    assert rec.p == 0.5
    assert rec.sigma == math.sqrt(0.5 * 0.5 / 100)
    rec = WeightRecord(a=3, m=100, f=0)
    assert rec.sigma == 0.0


def test_run_trials_weight_zero_never_fails():
    code = build_code("heptagon", "max", 1)
    rec = run_trials(code, 0, 0, 50, seed=3)
    assert rec.f == 0 and rec.m == 50


def test_run_trials_steane_weight_one_never_fails():
    code = build_code("heptagon", "max", 1)
    rec = run_trials(code, 0, 1, 200, seed=3)
    assert rec.f == 0


def test_run_trials_scf_weight_one_sometimes_fails():
    # distance-2 code: some weight-1 errors misdecode, all are detected
    code = build_code("pentagon", "max", 1, "scf")
    rec = run_trials(code, 0, 1, 200, seed=3)
    assert 0 < rec.f < 200


@pytest.mark.parametrize("target, m", [(1, 10), (-1, 10), (0, 0)])
def test_bad_target_or_trial_count_raises_before_decoding(target, m):
    code = build_code("heptagon", "max", 1)  # k = 1
    with pytest.raises(ValueError):
        run_trials(code, target, 0, m, seed=0)
    with pytest.raises(ValueError):
        simulate_code(code, target, trials_per_weight=m, weights=[0])


def test_binomial_mix_analytic_cases():
    n = 9
    zero = [WeightRecord(a, 100, 0) for a in range(n + 1)]
    for p in (0.0, 0.1, 0.7):
        assert binomial_mix(zero, p, n)[0] == 0.0
    step = [WeightRecord(0, 100, 0)] + [WeightRecord(a, 100, 100)
                                        for a in range(1, n + 1)]
    for p in (0.0, 0.05, 0.3):
        value, _ = binomial_mix(step, p, n)
        assert value == pytest.approx(1 - (1 - p) ** n, rel=1e-12)
    assert binomial_mix(step, 0.0, n)[0] == 0.0


def test_binomial_mix_rejects_bad_rate():
    recs = [WeightRecord(0, 10, 0)]
    with pytest.raises(ValueError):
        binomial_mix(recs, 1.5, 3)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_mixer_rejects_bad_rate(p):
    curve = FailureCurve("f", "v", 1, 3, 1, 0, 0,
                         records=[WeightRecord(0, 10, 0)])
    with pytest.raises(ValueError, match=r"p outside \[0, 1\]"):
        curve.mixer()(p)


@pytest.mark.parametrize("n", [42, 203, 973, 4662])
def test_binomial_pmf_against_high_precision_oracle(n):
    # Every term above 1e-12 of the peak lies within 12 sigma of the mean;
    # the oracle evaluates that window, and the terms outside it must be
    # below that cut.
    import mpmath

    for p in (0.003, 0.05, 0.11, 0.37, 0.5):
        w = _binomial_pmf(n, p)
        assert w.shape == (n + 1,)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
        half = 12 * math.sqrt(n * p * (1 - p)) + 5
        lo, hi = max(0, int(n * p - half)), min(n, int(n * p + half) + 1)
        with mpmath.workdps(40):
            q = mpmath.mpf(p)
            exact = [mpmath.binomial(n, a) * q ** a * (1 - q) ** (n - a)
                     for a in range(lo, hi + 1)]
        cut = 1e-12 * float(max(exact))
        for a, term in zip(range(lo, hi + 1), exact):
            if term > cut:
                assert abs(w[a] - term) <= 1e-13 * term, (n, p, a)
        outside = np.concatenate([w[:lo], w[hi + 1:]])
        assert (outside <= cut).all(), (n, p)


@pytest.mark.parametrize("n", [0, 1, 42, 4662])
def test_binomial_pmf_certain_rates_are_one_hot(n):
    for p, a in ((0.0, 0), (1.0, n)):
        w = _binomial_pmf(n, p)
        assert w[a] == 1.0 and w.sum() == 1.0


def test_binomial_mix_against_high_precision_oracle():
    import mpmath

    rng = np.random.default_rng(5)
    n = 60
    recs = [WeightRecord(a, 1000, int(rng.integers(0, 1001)))
            for a in range(n + 1)]
    for p in (0.01, 0.07, 0.3):
        value, _ = binomial_mix(recs, p, n)
        with mpmath.workdps(60):
            oracle = mpmath.fsum(
                mpmath.binomial(n, r.a) * mpmath.mpf(p) ** r.a
                * (1 - mpmath.mpf(p)) ** (n - r.a) * mpmath.mpf(r.f) / r.m
                for r in recs
            )
        assert abs(value - float(oracle)) <= 1e-12 * max(float(oracle), 1e-300)


def test_binomial_mix_monotone_in_entries():
    n = 12
    recs = [WeightRecord(a, 10, 0) for a in range(n + 1)]
    base = binomial_mix(recs, 0.2, n)[0]
    recs[4] = WeightRecord(4, 10, 5)
    assert binomial_mix(recs, 0.2, n)[0] > base


def test_curve_fill_policy():
    curve = FailureCurve("f", "v", 1, 10, 1, 0, 0)
    curve.records = [WeightRecord(2, 10, 2), WeightRecord(6, 10, 8)]
    probs, _ = curve.filled_probabilities()
    assert probs[0] == 0.0
    assert probs[2] == pytest.approx(0.2)
    assert probs[6] == pytest.approx(0.8)
    assert probs[4] == pytest.approx(0.5)  # linear between anchors
    assert probs[10] == pytest.approx(0.8)  # flat tail


class _SyntheticCurve(FailureCurve):
    """Failure curve with a closed-form mixed value, for crossing tests."""

    def mixed(self, p):
        return min(1.0, (p / 0.07) ** self.radius), 0.0

    def mixer(self):
        return self.mixed


def test_threshold_synthetic_exact_crossing():
    curves = [_SyntheticCurve("f", "v", R, 40, 1, 0, 0) for R in (2, 3)]
    p_th, bracket, pairs = estimate_threshold(curves)
    assert p_th == pytest.approx(0.07, abs=1e-6)
    assert bracket[0] <= p_th <= bracket[1]
    assert pairs[0]["radii"] == (2, 3)


class _LowNoiseCurve(FailureCurve):
    """Crosses R=2 at p = 0.07, but R=3 also sits above R=2 below
    p = 0.012, as one early failure at a low weight can put it."""

    def mixed(self, p):
        blip = 0.01 if self.radius == 3 and p < 0.012 else 0.0
        return 0.5 * (p / 0.07) ** self.radius + blip, 0.0

    def mixer(self):
        return self.mixed


def test_threshold_ignores_negative_to_positive_turn():
    curves = [_LowNoiseCurve("f", "v", R, 40, 1, 0, 0) for R in (2, 3)]
    assert curves[0].mixed(0.005)[0] < curves[1].mixed(0.005)[0]
    p_th, _, _ = estimate_threshold(curves)
    assert p_th == pytest.approx(0.07, abs=1e-6)


def test_threshold_identical_curves_no_crossing():
    n = 20
    recs = [WeightRecord(a, 10, min(10, a)) for a in range(n + 1)]
    c1 = FailureCurve("f", "v", 2, n, 1, 0, 0, records=list(recs))
    c2 = FailureCurve("f", "v", 3, n, 1, 0, 0, records=list(recs))
    with pytest.raises(ValueError, match="no crossing"):
        estimate_threshold([c1, c2])


def test_threshold_requires_two_curves():
    c = FailureCurve("f", "v", 2, 5, 1, 0, 0,
                     records=[WeightRecord(0, 1, 0)])
    with pytest.raises(ValueError):
        estimate_threshold([c])


def test_simulate_reproducible_across_worker_counts():
    code = build_code("pentagon", "reduced", 2)
    curves = []
    for threads in (1, 4):
        curve = simulate_code(code, trials_per_weight=40, seed=11,
                              weights=[0, 1, 3, 5, 8], threads=threads)
        curves.append([(r.a, r.m, r.f, r.timeouts) for r in curve.records])
    assert curves[0] == curves[1]


def test_simulate_same_seed_same_result():
    code = build_code("heptagon", "max", 1)
    a = simulate_code(code, trials_per_weight=30, seed=5, weights=[0, 2, 4])
    b = simulate_code(code, trials_per_weight=30, seed=5, weights=[0, 2, 4])
    assert [(r.a, r.f) for r in a.records] == [(r.a, r.f) for r in b.records]
    c = simulate_code(code, trials_per_weight=30, seed=6, weights=[0, 2, 4])
    assert [(r.a, r.f) for r in a.records] != [(r.a, r.f) for r in c.records]


def test_simulate_all_weights_small_code():
    code = build_code("pentagon", "max", 1, "scf")
    curve = simulate_code(code, trials_per_weight=25, seed=2, weights="auto")
    assert [r.a for r in curve.records] == list(range(6))
    assert all(r.m == 25 for r in curve.records)


def test_adaptive_schedule_concentrates_on_transition():
    code = build_code("heptagon", "max", 2)
    # force the adaptive branch despite n <= 50
    curve = simulate_code(code, trials_per_weight=60, seed=4, weights="auto")
    sampled = [r.a for r in curve.records]
    assert sampled == sorted(set(sampled))
    assert len(sampled) == code.n + 1  # n <= 50: every weight sampled


# sha256 of ``write_curve_csv`` output (weights="all", 50 trials, seed 1).
# They pin the sampler, the decoder's tie-breaks and the CSV format
# together, so any change to what a curve reads shows here.
CURVE_DIGESTS = {
    ("heptagon", "max", 2):
        "211ea939fcddc05d4cbb4f588ea1473a6865fc6f2f88bd42d0d91b633a28a15c",
    ("pentagon", "zero", 2):
        "815e1fb79ba0c2e47a3a12d6d57bc38ed81e1fc3947328a6195e151659c10b59",
}


@pytest.mark.parametrize("spec", sorted(CURVE_DIGESTS))
def test_curve_digest(spec, tmp_path):
    curve = simulate_code(build_code(*spec), trials_per_weight=50, seed=1,
                          weights="all")
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CURVE_DIGESTS[spec]


def test_csv_roundtrip(tmp_path):
    code = build_code("pentagon", "max", 1, "scf")
    curve = simulate_code(code, trials_per_weight=20, seed=9, weights="all")
    path = str(tmp_path / "curve.csv")
    write_curve_csv(curve, path)
    again = read_curve_csv(path)
    assert [(r.a, r.m, r.f) for r in again.records] == \
        [(r.a, r.m, r.f) for r in curve.records]
    assert (again.family, again.variant, again.radius) == \
        (curve.family, curve.variant, curve.radius)
    assert again.n == curve.n


@st.composite
def curves(draw):
    n = draw(st.integers(1, 1000))
    k = draw(st.integers(1, 300))
    curve = FailureCurve(draw(st.sampled_from(["heptagon", "pentagon"])),
                         draw(st.sampled_from(["max", "reduced", "zero"])),
                         draw(st.integers(1, 8)), n, k,
                         draw(st.integers(0, k - 1)), 0)
    for a in draw(st.lists(st.integers(0, n), min_size=1, max_size=30,
                           unique=True)):
        m = draw(st.integers(1, 10**6))
        curve.records.append(WeightRecord(a, m, draw(st.integers(0, m))))
    return curve


@settings(max_examples=100, deadline=None)
@given(curves())
def test_csv_roundtrip_property(curve):
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/curve.csv"
        write_curve_csv(curve, path)
        again = read_curve_csv(path)
    # The file does not hold the seed (the strategy draws 0), and reading
    # sorts the rows by weight.
    curve.records.sort(key=lambda r: r.a)
    assert again == curve


def test_mixed_curve_values_in_range():
    code = build_code("pentagon", "max", 1, "scf")
    curve = simulate_code(code, trials_per_weight=50, seed=1, weights="all")
    mix = curve.mixer()
    for p in np.linspace(0, 1, 7):
        value, sigma = curve.mixed(p)
        assert 0.0 <= value <= 1.0
        assert sigma >= 0.0
        assert mix(p) == (value, sigma)  # one fill, the same values
