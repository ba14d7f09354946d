"""Bit and word distances against the small-radius reference values."""

import tracemalloc

import pytest

from holocode import distance
from holocode.builder import build_code
from holocode.decoder import CosetTrellis, coset_sectors
from holocode.distance import bit_distance, fit_distance_scaling, word_distance
from oracles import DecodeProblem, milp_min

# (family, variant): radius -> (bit, word); word is None for k = 1 codes
REFERENCE = {
    ("heptagon", "max"): {1: (3, 3), 2: (9, 6)},
    ("pentagon", "reduced"): {1: (2, 2), 2: (4, 4), 3: (8, 4)},
    ("pentagon", "zero"): {1: (3, None), 2: (9, None)},
}


@pytest.mark.parametrize("family,variant", sorted(REFERENCE))
def test_small_radius_distances(family, variant):
    for radius, (db_expected, dw_expected) in REFERENCE[(family, variant)].items():
        code = build_code(family, variant, radius)
        db = bit_distance(code, 0)
        assert db.certified and db.value == db_expected
        if dw_expected is not None:
            dw = word_distance(code, 0)
            assert dw.certified and dw.value == dw_expected


def test_word_distance_equals_bit_distance_for_single_logical():
    code = build_code("pentagon", "zero", 2)
    assert code.k == 1
    db = bit_distance(code, 0)
    dw = word_distance(code, 0)
    assert db.value == dw.value


@pytest.mark.parametrize("radius,expected", [(1, 3), (2, 9), (3, 19)])
def test_non_css_distance_is_the_same_for_every_logical_class(radius, expected):
    # Non-CSS distances search the X-bar class only; the Z-bar and Y-bar
    # classes of pentagon/zero give the same bit and word distances.  With
    # k = 1 there are no other logical rows, so the bit and word cosets are
    # both the stabilizer span.
    code = build_code("pentagon", "zero", radius)
    assert code.k == 1
    [s] = coset_sectors(code)
    [(xbar, zbar)] = s.logicals
    trellis = CosetTrellis(s.stabilizers, s.width, fold_shift=s.fold)
    for target in (xbar, zbar, xbar ^ zbar):
        assert trellis.minimize(target)[0] == expected
    assert bit_distance(code, 0).value == word_distance(code, 0).value == expected


def test_non_css_distances_with_many_logicals_match_milp():
    # pentagon/max R=2 on the five-qubit seed: n=25, k=11, not CSS.  The
    # oracle's rows come straight from the code: stabilizers (plus the
    # other qubits' X-bar and Z-bar for a word distance), X-bar as target,
    # Pauli weight.  Qubit 3 has word distance 4 below its bit distance 5.
    code = build_code("pentagon", "max", 2, "five_qubit")
    assert (code.n, code.k, code.css) == (25, 11, False)
    n = code.n

    def pack(p):
        return p.x | (p.z << n)

    def oracle(qubit, with_others):
        rows = [pack(s) for s in code.stabilizers]
        if with_others:
            rows += [pack(rep) for j, lq in enumerate(code.logicals)
                     if j != qubit for rep in (lq.x_rep, lq.z_rep)]
        target = pack(code.logicals[qubit].x_rep)
        return milp_min(DecodeProblem(target, rows, 2 * n, fold_shift=n))

    for q in range(1, code.k):
        assert bit_distance(code, q).value == oracle(q, False)
    for q in (3, 6):
        assert word_distance(code, q).value == oracle(q, True)
    assert word_distance(code, 3).value == 4 < bit_distance(code, 3).value


def test_bit_distance_streams_its_trellis():
    # pentagon/zero R=4 sweeps 2^20 states at its peak.  A stored
    # trellis keeps a parity byte per state and column, 78 MiB here; the
    # streamed sweep holds one row buffer (a byte per peak state) and one
    # weights buffer (two), about 3.2 MiB.
    code = build_code("pentagon", "zero", 4)
    tracemalloc.start()
    try:
        assert bit_distance(code, 0).value == 41
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_word_never_exceeds_bit():
    for fam, var, R in (("heptagon", "max", 2), ("pentagon", "reduced", 3)):
        code = build_code(fam, var, R)
        for q in range(0, code.k, max(1, code.k // 4)):
            db = bit_distance(code, q)
            dw = word_distance(code, q)
            assert dw.value <= db.value
            assert db.certified and dw.certified
            assert 1 <= dw.value <= code.n


def test_self_dual_sectors_agree():
    code = build_code("heptagon", "max", 2)
    for kind in (bit_distance, word_distance):
        dx = kind(code, 0, sector="x")
        dz = kind(code, 0, sector="z")
        assert dx.value == dz.value


@pytest.mark.parametrize("family,variant,radius,sweeps", [
    ("heptagon", "max", 2, 1),  # self-dual: both sectors one problem
    ("pentagon", "reduced", 3, 2),
    ("pentagon", "zero", 2, 1),  # five-qubit seed: one Pauli sector
])
def test_distance_sweeps_each_distinct_sector_once(monkeypatch, family,
                                                   variant, radius, sweeps):
    code = build_code(family, variant, radius)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = distance.coset_weight
    monkeypatch.setattr(distance, "coset_weight", counted)
    for kind in (bit_distance, word_distance):
        calls.clear()
        kind(code, 0)
        assert len(calls) == sweeps


def test_distance_invariant_under_representative_choice():
    code = build_code("heptagon", "max", 2)
    baseline = bit_distance(code, 0).value
    # multiply the central representatives by same-sector stabilizers
    x_stab = next(s for s in code.stabilizers if s.z == 0)
    z_stab = next(s for s in code.stabilizers if s.x == 0)
    lq = code.logicals[0]
    other = type(lq)(lq.id, lq.layer, lq.x_rep.mul(x_stab),
                     lq.z_rep.mul(z_stab))
    mutated = type(code)(code.family, code.variant, code.radius,
                         code.seed_name, code.n, code.stabilizers,
                         [other] + code.logicals[1:], code.css)
    mutated.validate()
    assert bit_distance(mutated, 0).value == baseline


def test_layer_homogeneity_small_radii():
    # bit distance depends only on the depth below the boundary
    r2 = build_code("heptagon", "max", 2)
    outer = [bit_distance(r2, q).value for q in range(1, r2.k)]
    assert set(outer) == {3}  # depth 1 = seed distance
    assert bit_distance(r2, 0).value == 9  # depth 2
    r3 = build_code("heptagon", "max", 3)
    layer1 = [q for q in range(r3.k) if r3.logicals[q].layer == 1]
    assert bit_distance(r3, layer1[0]).value == 9


def test_boundary_layer_qubits_have_seed_distance():
    r3 = build_code("heptagon", "max", 3)
    layer2 = [q for q in range(r3.k) if r3.logicals[q].layer == 2]
    assert bit_distance(r3, layer2[0]).value == 3


def test_sector_argument_validation():
    code = build_code("heptagon", "max", 1)
    with pytest.raises(ValueError):
        bit_distance(code, 5)
    with pytest.raises(ValueError, match="bogus"):
        bit_distance(code, 0, sector="bogus")
    with pytest.raises(ValueError, match="pauli"):
        bit_distance(code, 0, sector="pauli")
    assert bit_distance(code, 0).sector == "min"
    assert word_distance(code, 0, sector="x").sector == "x"
    # A non-CSS code has the one joint sector, which "min" names.
    zero = build_code("pentagon", "zero", 1)
    for kind in (bit_distance, word_distance):
        assert kind(zero, 0).sector == "pauli"
        assert kind(zero, 0, sector="pauli").sector == "pauli"
        with pytest.raises(ValueError, match="sectors: pauli"):
            kind(zero, 0, sector="x")


def test_fit_exact_power_law():
    points = [(n, n ** 0.5) for n in (10, 100, 1000, 10000)]
    exponent, (lo, hi) = fit_distance_scaling(points)
    assert exponent == pytest.approx(0.5, abs=1e-12)
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(0.5, abs=1e-9)


# heptagon/max R=1..4 central (n, bit) and (n, word) points, as in fig5.
HEPTAGON_FIT_POINTS = [
    [(7, 3), (42, 9), (203, 19), (973, 45)],
    [(7, 3), (42, 6), (203, 8), (973, 15)],
]


@pytest.mark.parametrize("points", HEPTAGON_FIT_POINTS + [
    [(n, n ** 0.5) for n in (10, 100, 1000, 10000)],
    [(7, 3), (42, 9), (203, 19)],
    [(7, 3), (42, 3), (203, 3), (973, 3)],
    [(5, 2), (25, 2), (125, 3)],
], ids=["bit", "word", "exact", "three", "constant", "noisy"])
def test_fit_equals_scipy_stats(points):
    import numpy as np
    from scipy import stats

    res = stats.linregress(np.log([p[0] for p in points]),
                           np.log([p[1] for p in points]))
    half = stats.t.ppf(0.975, len(points) - 2) * res.stderr
    if not np.isfinite(half):
        half = 0.0
    assert fit_distance_scaling(points) == (
        res.slope, (res.slope - half, res.slope + half))


def test_t_quantile_table_equals_scipy():
    from scipy.special import stdtrit

    assert len(distance._T975) == 30
    for df, value in enumerate(distance._T975, start=1):
        assert value == stdtrit(df, 0.975), df


def test_fit_past_the_table_equals_scipy_stats():
    # 40 points: df = 38 reads the quantile from scipy, not the table
    test_fit_equals_scipy_stats([(7 * 2 ** i, 3 + i + i % 3)
                                 for i in range(40)])


def test_fit_requires_three_points():
    with pytest.raises(ValueError):
        fit_distance_scaling([(10, 3), (100, 9)])


def test_fit_degenerate_points():
    with pytest.raises(ValueError):
        fit_distance_scaling([(10, 3), (10, 5), (10, 7)])


def test_fit_heptagon_bit_exponent_matches_reference_band():
    # certified values radii 1..3 (computed by this package's solver)
    points = [(7, 3), (42, 9), (203, 19)]
    exponent, (lo, hi) = fit_distance_scaling(points)
    assert lo <= 0.54 + 0.03 and hi >= 0.54 - 0.03
    assert 0.4 < exponent < 0.7


# Word distance of every bulk qubit, grouped by layer (0 is the centre).  A
# heptagon qubit's word distance is set by its depth below the boundary:
# the outermost layer has 3 at every radius, and the layers further in have
# 6, 8 and then 15.  heptagon/max R=4 takes about 10 s.
WORD_DISTANCE_BY_LAYER = {
    ("heptagon", "max", 2): {0: {6}, 1: {3}},
    ("heptagon", "max", 3): {0: {8}, 1: {6}, 2: {3}},
    ("heptagon", "max", 4): {0: {15}, 1: {8}, 2: {6}, 3: {3}},
    ("pentagon", "reduced", 3): {0: {4}, 2: {2, 3}},
    ("pentagon", "reduced", 4): {0: {8}, 2: {4, 6}},
}


@pytest.mark.parametrize("spec", sorted(WORD_DISTANCE_BY_LAYER),
                         ids=lambda s: "-".join(map(str, s)))
def test_bulk_word_distance_by_layer(spec):
    code = build_code(*spec)
    by_layer = {}
    for q, lq in enumerate(code.logicals):
        by_layer.setdefault(lq.layer, set()).add(word_distance(code, q).value)
    assert by_layer == WORD_DISTANCE_BY_LAYER[spec]
