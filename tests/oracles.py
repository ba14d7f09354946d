"""Reference coset minimizers that the tests compare ``CosetTrellis`` with,
the row-parity GF(2) product and column-scan elimination the tests
check ``gf2`` results against, and the full-scan weight reduction the
builder's indexed one is checked against.

Each minimizer returns only the minimum weight of ``problem.target`` plus
any combination of ``problem.gens`` (a ``DecodeProblem``), with the
problem's own weight (Hamming, or Pauli weight when ``fold_shift`` is set).
None shares code with the trellis.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from holocode.gf2 import PauliVector


def row_parities(rows, v: int) -> int:
    """The GF(2) product of the matrix with packed ``rows`` and the vector
    v, one row at a time: bit i is the parity of rows[i] & v."""
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & v).bit_count() & 1) << i
    return out


def column_scan_eliminate(rows, cols: int):
    """Reduced row elimination by columns, with an identity augment.

    Columns in increasing order; the first row at or below the current
    rank with that column set becomes the pivot and is cleared from every
    other row.  Returns ``(rows, combos, pivots)`` as ``gf2.eliminate``
    does; rows past ``len(pivots)`` are zero, and their combos record the
    dependencies among the input rows.
    """
    rows = list(rows)
    m = len(rows)
    combos = [1 << i for i in range(m)]
    pivots = []
    for col in range(cols):
        rank_ = len(pivots)
        bit = 1 << col
        pivot = next((r for r in range(rank_, m) if rows[r] & bit), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        combos[rank_], combos[pivot] = combos[pivot], combos[rank_]
        for r in range(m):
            if r != rank_ and rows[r] & bit:
                rows[r] ^= rows[rank_]
                combos[r] ^= combos[rank_]
        pivots.append(col)
    return rows, combos, pivots


def full_scan_reduce_pass(v: PauliVector, rows: list, sups: list,
                          skip: int = -1):
    """One pass of multiplying v by each row, but row ``skip``, that
    lowers its Pauli weight.  ``sups[j]`` is row j's support; rows with
    disjoint support can only grow the weight, so they are skipped without
    forming the product.  Candidates are weighed on the raw x and z bits.
    Returns (v, whether it changed)."""
    x, z = v.x, v.z
    sup = x | z
    weight = sup.bit_count()
    for j, (row, row_sup) in enumerate(zip(rows, sups)):
        if j == skip or not (sup & row_sup):
            continue
        cx, cz = x ^ row.x, z ^ row.z
        if (cx | cz).bit_count() < weight:
            x, z = cx, cz
            sup = x | z
            weight = sup.bit_count()
    if x == v.x and z == v.z:
        return v, False
    return PauliVector(v.n, x, z), True


def full_scan_reduce_weights(stabilizers: list, reps: list):
    """The builder's greedy weight reduction with a scan of every row in
    each pass: two rounds over the stabilizers, in place, each against
    all the others, then each representative until a pass changes
    nothing.  Returns the reduced representatives and the (v, changed)
    result of every pass, in call order."""
    passes = []

    def reduce_pass(*args):
        passes.append(full_scan_reduce_pass(*args))
        return passes[-1]

    sups = [s.support for s in stabilizers]
    for _ in range(2):
        changed = False
        for i, s in enumerate(stabilizers):
            s, changed_i = reduce_pass(s, stabilizers, sups, i)
            if changed_i:
                stabilizers[i], sups[i] = s, s.support
                changed = True
        if not changed:
            break

    def reduce(rep):
        changed = True
        while changed:
            rep, changed = reduce_pass(rep, stabilizers, sups)
        return rep

    return [reduce(rep) for rep in reps], passes


@dataclass
class DecodeProblem:
    """Minimum-weight coset search instance over packed bit-vectors.

    The coset is ``target`` plus the span of ``gens``.  When
    ``fold_shift`` is set the vectors are symplectic (x || z) pairs and the
    weight of a vector is the number of active positions after OR-folding
    the two halves (Pauli weight); otherwise plain Hamming weight is used.
    """

    target: int
    gens: list
    width: int
    fold_shift: int | None = None

    def weight_of(self, v: int) -> int:
        return self.fold(v).bit_count()

    def fold(self, v: int) -> int:
        if self.fold_shift is None:
            return v
        return (v | (v >> self.fold_shift)) & ((1 << self.fold_shift) - 1)


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


def milp_min(problem):
    """The decoder's integer program, solved exactly by HiGHS.

    Variables, in order: a binary coefficient per generator, the binary
    coset vector w, an integer slack t per position, and for Pauli weight
    a binary y per qubit.  Each position p satisfies
    w_p = target_p + sum_g g_p c_g - 2 t_p.  Hamming weight minimizes
    sum w; Pauli weight minimizes sum y subject to y_q >= w_q (X part) and
    y_q >= w_{q+n} (Z part).  This is the integer-optimisation decoder of
    the source paper, so it is independent of the trellis.
    """
    m, width = len(problem.gens), problem.width
    G = np.array([[(g >> p) & 1 for p in range(width)] for g in problem.gens],
                 dtype=float).reshape(m, width)
    target = np.array([(problem.target >> p) & 1 for p in range(width)],
                      dtype=float)
    n = problem.fold_shift or 0
    eye = np.eye(width)
    rows = [np.hstack([-G.T, eye, 2 * eye, np.zeros((width, n))])]
    lo, hi = [target], [target]
    cost = np.concatenate([np.zeros(m), np.full(width, 0.0 if n else 1.0),
                           np.zeros(width), np.ones(n)])
    if n:
        for half in (0, n):  # y_q - w_{half+q} >= 0
            a = np.zeros((n, m + 2 * width + n))
            a[:, m + half:m + half + n] = -np.eye(n)
            a[:, m + 2 * width:] = np.eye(n)
            rows.append(a)
            lo.append(np.zeros(n))
            hi.append(np.full(n, np.inf))
    slack = (G.sum(axis=0) + 1) // 2
    upper = np.concatenate([np.ones(m + width), slack, np.ones(n)])
    res = milp(cost,
               constraints=LinearConstraint(np.vstack(rows), np.concatenate(lo),
                                            np.concatenate(hi)),
               integrality=np.ones(len(cost)),
               bounds=Bounds(np.zeros(len(cost)), upper),
               options={"mip_rel_gap": 0})
    if res.status != 0:
        raise AssertionError(f"HiGHS did not prove optimality: {res.message}")
    return round(res.fun)
