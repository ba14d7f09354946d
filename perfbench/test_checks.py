"""Each benchmark check rejects a wrong result.

    python3 -m pytest perfbench
"""

import pytest

import checks
from holocode import CodeDecoder, CosetTrellis, PauliVector, build_code, pure_error
from holocode.sim import FailureCurve, WeightRecord
from tracing import Tracer


def curve(records):
    return FailureCurve("heptagon", "max", 3, 203, 43, 0, 1, records=records)


def test_failure_below_half_the_distance_is_rejected():
    a_max = checks.correctable_weight("heptagon", "max", 3)
    assert a_max == 3
    checks.check_failure_free(curve([WeightRecord(0, 100, 0),
                                     WeightRecord(3, 100, 0),
                                     WeightRecord(4, 100, 7)]), a_max)
    with pytest.raises(checks.CheckError, match="below half"):
        checks.check_failure_free(curve([WeightRecord(0, 100, 0),
                                         WeightRecord(3, 100, 1)]), a_max)
    with pytest.raises(checks.CheckError, match="no weight"):
        checks.check_failure_free(curve([WeightRecord(0, 100, 0),
                                         WeightRecord(9, 100, 0)]), a_max)


def test_distance_off_by_one_is_rejected():
    checks.check_distance_row("heptagon", "max", 3, 19, 8)
    checks.check_distance_row("pentagon", "zero", 4, 41, None)
    for bit, word in ((20, 8), (18, 8), (19, 9), (19, 7)):
        with pytest.raises(checks.CheckError, match="distance"):
            checks.check_distance_row("heptagon", "max", 3, bit, word)
    with pytest.raises(checks.CheckError, match="n=204"):
        checks.check_n("heptagon", "max", 3, 204)


def table_rows():
    return [(family, variant, radius,
             checks.BOUNDARY_COUNTS[(family, variant)][radius - 1],
             bit, word)
            for (family, variant), rows in checks.DISTANCES.items()
            for radius, (bit, word) in rows.items()]


def test_exponent_outside_band_is_rejected():
    rows = table_rows()
    checks.check_exponents(rows)
    # pentagon/zero distances growing as n rather than n^0.65
    steep = [(f, v, r, n, n if f == "pentagon" and v == "zero" else b, w)
             for f, v, r, n, b, w in rows]
    with pytest.raises(checks.CheckError, match="outside band"):
        checks.check_exponents(steep)


def test_crossing_outside_the_bracket_is_rejected():
    checks.check_crossing(0.071)
    for p in (0.049, 0.101, 0.2):
        with pytest.raises(checks.CheckError, match="outside"):
            checks.check_crossing(p)


@pytest.mark.parametrize("family", ["heptagon", "pentagon"])
def test_correction_heavier_than_its_error_is_rejected(family):
    variant = "max" if family == "heptagon" else "zero"
    code = build_code(family, variant, 1)
    dec = CodeDecoder(code)
    err = PauliVector.single(code.n, 0, "X")
    syn = dec.syndrome(err)
    corr, certified = dec.decode(syn)
    assert certified
    if dec.mode == "css":
        trellises = [CosetTrellis(dec.z_gens, dec.n), CosetTrellis(dec.x_gens, dec.n)]
        targets = [pure_error(dec.fx, syn[0]), pure_error(dec.fz, syn[1])]
    else:
        trellises = [CosetTrellis(dec.sym_gens, 2 * dec.n, fold_shift=dec.n)]
        targets = [pure_error(dec.f, syn)]
    minima = [t.minimize(e)[0] for t, e in zip(trellises, targets)]
    checks.check_correction(dec, syn, err, corr, minima)

    heavier = corr.mul(code.stabilizers[0])  # same syndrome, more weight
    assert dec.syndrome(heavier) == syn
    with pytest.raises(checks.CheckError, match="above error weight"):
        checks.check_correction(dec, syn, err, heavier, minima)
    with pytest.raises(checks.CheckError, match="syndrome"):
        checks.check_correction(dec, syn, err, PauliVector(code.n), minima)


def test_self_time_excludes_children():
    tracer = Tracer(True)
    with tracer.span("bench.round"):
        with tracer.span("sim.simulate_code"):
            sum(range(10000))
    outer = tracer.durations("bench.round")[0]
    inner = tracer.durations("sim.simulate_code")[0]
    self_times = tracer.self_times()
    assert self_times["sim"] == pytest.approx(inner)
    assert self_times["bench"] == pytest.approx(outer - inner)
    assert Tracer(False).span("x.y") is Tracer(False).span("z.w")
