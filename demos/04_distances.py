"""Code distances: how protection deepens towards the centre.

The bit distance of a bulk qubit is the minimum weight of a boundary
operator acting on it alone; the word distance allows side effects on
other bulk qubits and is never larger.  Both come from the same exact
coset minimizer used for decoding, so every number below is exact.
"""

from holocode import bit_distance, build_code, fit_distance_scaling, word_distance

print(f"{'family':20s} {'R':>2s} {'n':>4s} {'bit':>4s} {'word':>5s}")
points_bit = []
points_word = []
for family, variant, radii in (("heptagon", "max", (1, 2, 3)),
                               ("pentagon", "reduced", (1, 2, 3)),
                               ("pentagon", "zero", (1, 2, 3))):
    for radius in radii:
        code = build_code(family, variant, radius)
        db = bit_distance(code, 0)
        assert db.certified
        dw = word_distance(code, 0)  # equals bit distance when k = 1
        word = str(dw.value) if code.k > 1 else "= bit"
        print(f"{family + '/' + variant:20s} {radius:2d} {code.n:4d} "
              f"{db.value:4d} {word:>5s}")
        if family == "heptagon":
            points_bit.append((code.n, db.value))
            points_word.append((code.n, dw.value))
    print()

exp_b, ci_b = fit_distance_scaling(points_bit)
exp_w, ci_w = fit_distance_scaling(points_word)
print(f"heptagon bit-distance scaling:  n^{exp_b:.3f} "
      f"(95% CI {ci_b[0]:.2f}..{ci_b[1]:.2f})")
print(f"heptagon word-distance scaling: n^{exp_w:.3f} "
      f"(95% CI {ci_w[0]:.2f}..{ci_w[1]:.2f})")

# Distance depends only on depth below the boundary: every layer-1 qubit
# of the R=2 code matches the single-tile distance.
r2 = build_code("heptagon", "max", 2)
outer = {bit_distance(r2, q).value for q in range(1, r2.k)}
print("\nheptagon R=2 layer-1 bit distances:", outer)
