"""Reference coset minimizers that the tests compare ``CosetTrellis`` with.

Both return only the minimum weight of ``problem.target`` plus any
combination of ``problem.gens`` (a ``DecodeProblem``), with the problem's
own weight (Hamming, or Pauli weight when ``fold_shift`` is set).  Neither
shares code with the trellis.
"""


def exhaustive_min(problem):
    """Brute-force minimum over all 2^|G| coefficient choices."""
    best = problem.weight_of(problem.target)
    for mask in range(1 << len(problem.gens)):
        v = problem.target
        m = mask
        while m:
            i = m.bit_length() - 1
            m ^= 1 << i
            v ^= problem.gens[i]
        best = min(best, problem.weight_of(v))
    return best


def branch_and_bound_min(problem):
    """Exact depth-first branch and bound over the coefficients.

    Generators are branched in order of descending support overlap with
    the current residual, and a subtree is cut when the residual weight
    on positions no remaining generator can touch already reaches the
    incumbent.  Feasible where brute force is not, for a few dozen
    generators with local support.
    """
    gens = problem.gens
    fold = problem.fold
    gfold = [fold(g) for g in gens]
    used = [False] * len(gens)
    best = problem.weight_of(problem.target)

    def search(residual, rfold):
        nonlocal best
        w = rfold.bit_count()
        best = min(best, w)
        if best == 0:
            return
        union = 0
        pick = -1
        pick_ov = -1
        for i, gf in enumerate(gfold):
            if used[i]:
                continue
            union |= gf
            ov = (rfold & gf).bit_count()
            if ov > pick_ov:
                pick_ov = ov
                pick = i
        if pick < 0 or (rfold & ~union).bit_count() >= best:
            return
        used[pick] = True
        r2 = residual ^ gens[pick]
        rf2 = fold(r2)
        if rf2.bit_count() < w:
            search(r2, rf2)
            search(residual, rfold)
        else:
            search(residual, rfold)
            search(r2, rf2)
        used[pick] = False

    search(problem.target, fold(problem.target))
    return best
