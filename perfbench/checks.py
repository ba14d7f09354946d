"""Output checks for the benchmark workloads.

Every check compares against reference data kept here, apart from the
program (the acceptance criteria's tables: boundary counts of criterion 2,
distances of criterion 5 and its R=4 stretch rows, the threshold bracket
of criterion 7 and the exponent bands of criterion 8), or against a
property every exact minimum-weight decoder has whatever its tie-break.
A failed check raises ``CheckError`` and fails the run.
"""

from __future__ import annotations

from holocode import PauliVector, fit_distance_scaling


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


# Criterion 2: boundary qubit counts n for R = 1, 2, 3, 4.
BOUNDARY_COUNTS = {
    ("heptagon", "max"): (7, 42, 203, 973),
    ("pentagon", "reduced"): (5, 25, 75, 255),
    ("pentagon", "zero"): (5, 25, 95, 355),
}

# Criterion 5 (R <= 3) and its R = 4 stretch rows: central qubit's
# (bit distance, word distance).  With one logical qubit the word distance
# coincides with the bit distance; pentagon/zero has k = 1 at every radius.
DISTANCES = {
    ("heptagon", "max"): {1: (3, 3), 2: (9, 6), 3: (19, 8), 4: (45, 15)},
    ("pentagon", "reduced"): {1: (2, 2), 2: (4, 4), 3: (8, 4), 4: (16, 8)},
    ("pentagon", "zero"): {1: (3, 3), 2: (9, 9), 3: (19, 19), 4: (41, 41)},
}

# Criterion 7: bracket of the heptagon R2/R3 crossing.
THRESHOLD_BRACKET = (0.05, 0.10)

# Criterion 8: (centre, half-width) of the power-law exponent bands.  A fit
# passes when its 95% interval overlaps the band.
EXPONENT_BANDS = {
    ("heptagon", "max", "bit"): (0.54, 0.03),
    ("heptagon", "max", "word"): (0.37, 0.07),
    ("pentagon", "reduced", "bit"): (0.31, 0.10),
    ("pentagon", "reduced", "word"): (0.48, 0.07),
    ("pentagon", "zero", "bit"): (0.65, 0.08),
}


def check_n(family: str, variant: str, radius: int, n: int):
    expected = BOUNDARY_COUNTS[(family, variant)][radius - 1]
    require(n == expected,
            f"{family}/{variant} R={radius}: n={n}, reference {expected}")


def correctable_weight(family: str, variant: str, radius: int) -> int:
    """Largest a with 2a < d_W: no error this light can flip the central
    qubit after an exact minimum-weight correction."""
    return (DISTANCES[(family, variant)][radius][1] - 1) // 2


def check_distance_row(family: str, variant: str, radius: int,
                       bit: int, word: int | None):
    """One certified table row against the reference; ``word`` is None
    where the pipeline skips it (k = 1)."""
    ref_bit, ref_word = DISTANCES[(family, variant)][radius]
    require(bit == ref_bit, f"{family}/{variant} R={radius}: bit distance "
                            f"{bit}, reference {ref_bit}")
    if word is not None:
        require(word == ref_word, f"{family}/{variant} R={radius}: word "
                                  f"distance {word}, reference {ref_word}")
        require(word <= bit, f"{family}/{variant} R={radius}: word distance "
                             f"{word} above bit distance {bit}")


def check_exponents(rows):
    """Criterion 8 on table rows (family, variant, radius, n, bit, word);
    a row without a word distance has k = 1 and contributes its bit
    distance."""
    points = {}
    for family, variant, _, n, bit, word in rows:
        points.setdefault((family, variant, "bit"), []).append((n, bit))
        points.setdefault((family, variant, "word"), []).append(
            (n, bit if word is None else word))
    for key, (centre, half) in EXPONENT_BANDS.items():
        pts = points.get(key, [])
        require(len(pts) >= 3, f"{key}: {len(pts)} points, need 3 to fit")
        exponent, (lo, hi) = fit_distance_scaling(pts)
        require(lo <= centre + half and hi >= centre - half,
                f"{key}: exponent {exponent:.3f} (95% [{lo:.3f}, {hi:.3f}]) "
                f"outside band {centre}±{half}")


def check_failure_free(curve, a_max: int):
    """Zero logical failures at every sampled a <= a_max, and at least one
    such weight above zero was sampled."""
    low = [r for r in curve.records if r.a <= a_max]
    require(any(r.a > 0 for r in low),
            f"R={curve.radius}: no weight in 1..{a_max} sampled")
    for r in low:
        failures = r.f - r.timeouts  # timeouts are counted as failed trials
        require(failures == 0, f"R={curve.radius}: {failures} failures at "
                               f"a={r.a} <= {a_max}, below half the word "
                               f"distance")


def check_crossing(p_th: float):
    lo, hi = THRESHOLD_BRACKET
    require(lo <= p_th <= hi, f"crossing {p_th:.4f} outside [{lo}, {hi}]")


def check_correction(decoder, syndrome, err: PauliVector,
                     corr: PauliVector, sector_weights):
    """The correction reproduces the syndrome and is no heavier than the
    error: per sector for CSS codes, in Pauli weight otherwise.
    ``sector_weights`` are the trellis minima of the same syndrome, which
    the decoder's correction must attain."""
    require(decoder.syndrome(corr) == syndrome,
            "correction does not reproduce the syndrome")
    if decoder.mode == "css":
        got = (corr.z.bit_count(), corr.x.bit_count())
        bound = (err.z.bit_count(), err.x.bit_count())
    else:
        got = (corr.weight(),)
        bound = (err.weight(),)
    require(all(g <= b for g, b in zip(got, bound)),
            f"correction weight {got} above error weight {bound}")
    require(tuple(sector_weights) == got,
            f"correction weight {got}, trellis minimum {tuple(sector_weights)}")
