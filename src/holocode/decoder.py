"""Exact most-likely-error decoding.

A syndrome is mapped to a pure error through the inverse syndrome former
(the GF(2) right inverse of the check matrix); the minimum-weight element
of the coset spanned by stabilizer and logical generators is then found
exactly by a Viterbi sweep over a precomputed minimal trellis
(``CosetTrellis``).  The same minimizer serves decoding and distances.
A trellis whose state profile exceeds its limit raises
``TrellisLimitError`` instead of returning an uncertified answer.

The same minimization can be phrased as a standard integer linear
program for users who prefer an external solver: minimize sum_i w_i
subject to w = e + G.x - 2t with x in {0,1}^|G|, t integer slack and
0 <= w <= 1 componentwise.  Nothing here requires it; the trellis is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import Gf2Matrix, PauliVector, parity, right_inverse
from .builder import HolographicCode, css_split


class TrellisLimitError(ValueError):
    """The minimal trellis needs more states than its limit allows."""


def _fold(v: int, fold_shift: int | None) -> int:
    if fold_shift is None:
        return v
    return (v | (v >> fold_shift)) & ((1 << fold_shift) - 1)


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
        return _fold(v, self.fold_shift)


def pure_error(F: Gf2Matrix, y: int) -> int:
    """Map a syndrome to a pure error, e = F.y."""
    if y >> F.cols:
        raise ValueError("syndrome longer than the ISF accepts")
    return F.mul_vec(y)


def _minimal_span(rows):
    """Row-reduce integer rows so all lowest and all highest set bits are
    distinct (minimal-span generator form).  Exactness of the sweep does
    not depend on this; it only shrinks the state profile.

    Returns (rows, combos), where combos[i] is the mask of original rows
    XORed into reduced row i; dependent input rows are dropped.
    """
    work = [(r, 1 << i) for i, r in enumerate(rows)]
    for _ in range(16 * len(rows) + 16):
        changed = False
        by_start = {}
        keep = []
        for r, cmb in work:
            while r:
                s = r & -r
                j = by_start.get(s)
                if j is None:
                    by_start[s] = len(keep)
                    keep.append((r, cmb))
                    break
                r2, c2 = keep[j]
                r ^= r2
                cmb ^= c2
                changed = True
            else:
                changed = True
        work = keep
        by_end = {}
        for i in range(len(work)):
            r, cmb = work[i]
            while True:
                e = r.bit_length()
                j = by_end.get(e)
                if j is None:
                    by_end[e] = i
                    break
                rj, cj = work[j]
                # Keep the later-starting row as the owner of this end so
                # the replacement inherits the earlier start.
                if (rj & -rj) < (r & -r):
                    work[j] = (r, cmb)
                    r, cmb = rj ^ r, cj ^ cmb
                else:
                    r ^= rj
                    cmb ^= cj
                changed = True
                if r == 0:
                    raise AssertionError("unexpected cancellation in span form")
            work[i] = (r, cmb)
        if not changed:
            return [r for r, _ in work], [c for _, c in work]
    raise AssertionError("minimal-span reduction did not converge")


class CosetTrellis:
    """Exact coset minimizer with a precomputed minimal trellis.

    The generator rows are put in minimal-span form over the column order;
    a Viterbi sweep over columns then carries one weight per assignment of
    the rows whose span straddles the current column.  Holographic codes
    have arc-local generators in boundary order, so the straddle count
    stays small and a sweep costs milliseconds.  The trellis (branch,
    parity and merge schedules) depends only on the generators and is
    reused across targets; ``minimize`` is exact for every target.
    Construction raises ``TrellisLimitError`` when some column needs more
    than ``state_limit`` states.
    """

    def __init__(self, gens, width: int, fold_shift: int | None = None,
                 state_limit: int = 1 << 22):
        import numpy as np

        self.np = np
        self.gens = list(gens)
        self.width = width
        self.fold_shift = fold_shift
        if fold_shift is None:
            rows = list(self.gens)
            positions = width
            stride = 1
        else:
            n = fold_shift
            nmask = (1 << n) - 1

            def interleave(v):
                x = v & nmask
                z = v >> n
                out = 0
                while x:
                    b = x & -x
                    x ^= b
                    out |= b * b
                while z:
                    b = z & -z
                    z ^= b
                    out |= 2 * b * b
                return out

            rows = [interleave(g) for g in self.gens]
            positions = n
            stride = 2
            self._interleave = interleave

        rows, combos = _minimal_span(rows)
        order = sorted(range(len(rows)),
                       key=lambda i: (rows[i] & -rows[i]).bit_length())
        rows = [rows[i] for i in order]
        self.combos = [combos[i] for i in order]
        starts = [((r & -r).bit_length() - 1) // stride for r in rows]
        ends = [(r.bit_length() - 1) // stride for r in rows]

        # Schedule: per position, rows that start and rows that end there.
        start_at = [[] for _ in range(positions)]
        end_at = [[] for _ in range(positions)]
        for i, r in enumerate(rows):
            start_at[starts[i]].append(i)
            end_at[ends[i]].append(i)

        # Walk the schedule once to freeze the state layout and parity
        # tables.  ``active`` maps state bit -> row id.
        self.schedule = []  # ops: ("branch", row) ("emit", arrays) ("merge", row, bit)
        active = []
        for p in range(positions):
            for i in start_at[p]:
                active.append(i)
                if 1 << len(active) > state_limit:
                    raise TrellisLimitError(
                        f"trellis needs 2^{len(active)} states at position "
                        f"{p}, above the limit of {state_limit}")
                self.schedule.append(("branch", i))
            size = 1 << len(active)
            idx = np.arange(size, dtype=np.uint32)
            if stride == 1:
                mask = 0
                for b, i in enumerate(active):
                    if (rows[i] >> p) & 1:
                        mask |= 1 << b
                par = (np.bitwise_count(idx & np.uint32(mask)) & 1).astype(np.int32)
                self.schedule.append(("emit", p, par))
            else:
                mx = mz = 0
                for b, i in enumerate(active):
                    if (rows[i] >> (2 * p)) & 1:
                        mx |= 1 << b
                    if (rows[i] >> (2 * p + 1)) & 1:
                        mz |= 1 << b
                parx = (np.bitwise_count(idx & np.uint32(mx)) & 1).astype(np.int32)
                parz = (np.bitwise_count(idx & np.uint32(mz)) & 1).astype(np.int32)
                self.schedule.append(("emit2", p, parx, parz))
            for i in reversed(end_at[p]):
                b = active.index(i)
                size = 1 << len(active)
                keep = np.array(
                    [s for s in range(size) if not (s >> b) & 1], dtype=np.intp
                )
                self.schedule.append(("merge", i, b, keep, keep | (1 << b)))
                # Remove bit b: remaining bits shift down.
                active.pop(b)
        if active:
            raise AssertionError("rows still active after final position")

    # -- queries ----------------------------------------------------------

    def target_bits(self, target: int):
        if self.fold_shift is not None:
            return self._interleave(target)
        return target

    def minimize(self, target: int):
        """(weight, combo mask over the original generators)."""
        np = self.np
        t = self.target_bits(target)
        W = np.zeros(1, dtype=np.int32)
        sels = []
        for op in self.schedule:
            kind = op[0]
            if kind == "branch":
                W = np.concatenate([W, W])
            elif kind == "emit":
                p, par = op[1], op[2]
                if (t >> p) & 1:
                    W = W + (1 - par)
                else:
                    W = W + par
            elif kind == "emit2":
                p, parx, parz = op[1], op[2], op[3]
                bx = (t >> (2 * p)) & 1
                bz = (t >> (2 * p + 1)) & 1
                cx = (1 - parx) if bx else parx
                cz = (1 - parz) if bz else parz
                W = W + np.maximum(cx, cz)
            else:  # merge
                _, b, keep0, keep1 = op[1], op[2], op[3], op[4]
                W0 = W[keep0]
                W1 = W[keep1]
                sel = W1 < W0
                sels.append(sel)
                W = np.where(sel, W1, W0)
        weight = int(W[0])

        # Backtrace: walk the schedule in reverse recovering each row's
        # coefficient at its merge, and each branch bit when it is removed.
        state = 0
        nbits = 0
        coeff = {}
        si = len(sels) - 1
        for op in reversed(self.schedule):
            kind = op[0]
            if kind == "merge":
                row, b = op[1], op[2]
                bit = int(sels[si][state])
                si -= 1
                coeff[row] = bit
                low = state & ((1 << b) - 1)
                state = ((state >> b) << (b + 1)) | (bit << b) | low
                nbits += 1
            elif kind == "branch":
                row = op[1]
                nbits -= 1
                # bit nbits of the state is this row's coefficient
                coeff[row] = (state >> nbits) & 1
                state &= (1 << nbits) - 1
        combo = 0
        for i, c in coeff.items():
            if c:
                combo ^= self.combos[i]
        return weight, combo




class CodeDecoder:
    """Per-code decoding context with precomputed check matrices, ISFs
    and coset trellises.

    For CSS codes the two sectors are decoded independently and the
    objective flag is irrelevant.  For non-CSS codes the default objective
    is Pauli weight (the most likely single error under depolarizing
    noise); "hamming" minimizes popcount(x) + popcount(z) instead, which
    treats a Y as two errors and cannot always correct single-qubit Ys.
    """

    def __init__(self, code: HolographicCode, objective: str = "pauli"):
        self.code = code
        self.objective = objective
        n = code.n
        self.n = n
        if code.css:
            self.mode = "css"
            sx, sz, (x_reps, z_reps) = css_split(code)
            self.sx = sx
            self.sz = sz
            self.fx = right_inverse(sx)
            self.fz = right_inverse(sz)
            # Z-error sector: X-type checks, Z-type coset generators.
            self.z_gens = [s.z for s in code.stabilizers if s.z] + z_reps
            self.x_gens = [s.x for s in code.stabilizers if s.x] + x_reps
            self._trellises = (
                CosetTrellis(self.z_gens, n),
                CosetTrellis(self.x_gens, n),
            )
        else:
            self.mode = "symplectic"
            rows = [s.z | (s.x << n) for s in code.stabilizers]
            self.h = Gf2Matrix(rows, 2 * n)
            self.f = right_inverse(self.h)
            gens = [s.x | (s.z << n) for s in code.stabilizers]
            for lq in code.logicals:
                gens.append(lq.x_rep.x | (lq.x_rep.z << n))
                gens.append(lq.z_rep.x | (lq.z_rep.z << n))
            self.sym_gens = gens
            fold = n if objective == "pauli" else None
            self._trellises = (
                CosetTrellis(self.sym_gens, 2 * n, fold_shift=fold),
            )
        # Per logical qubit, Z-bar and X-bar packed as x || z: with v packed
        # as z || x, parity(v & P) is the symplectic product <v, P>.
        self._partners = [(lq.z_rep.x | (lq.z_rep.z << n),
                           lq.x_rep.x | (lq.x_rep.z << n))
                          for lq in code.logicals]

    # -- syndromes ---------------------------------------------------------

    def syndrome(self, err: PauliVector):
        """CSS codes: (x-check syndrome, z-check syndrome); else one vector."""
        if self.mode == "css":
            return self.sx.mul_vec(err.z), self.sz.mul_vec(err.x)
        return self.h.mul_vec(err.x | (err.z << self.n))

    def syndrome_is_zero(self, err: PauliVector) -> bool:
        s = self.syndrome(err)
        return s == (0, 0) if self.mode == "css" else s == 0

    # -- decoding ----------------------------------------------------------

    def decode(self, syndrome):
        """Return (correction PauliVector, certificate flag).

        CSS mode expects the (x-check, z-check) syndrome pair and solves
        the two sectors independently; symplectic mode solves one joint
        problem over 2n binary variables.  The trellis is exact, so the
        flag is always True; it is kept for callers that record it.
        """
        if self.mode == "css":
            yx, yz = syndrome
            ez = self.fx.mul_vec(yx)
            if self.sx.mul_vec(ez) != yx:
                raise AssertionError("pure error does not satisfy the syndrome")
            ex = self.fz.mul_vec(yz)
            if self.sz.mul_vec(ex) != yz:
                raise AssertionError("pure error does not satisfy the syndrome")
            vz = self._apply(self._trellises[0], self.z_gens, ez)
            vx = self._apply(self._trellises[1], self.x_gens, ex)
            return PauliVector(self.n, vx, vz), True
        y = syndrome
        e = self.f.mul_vec(y)
        if self.h.mul_vec(e) != y:
            raise AssertionError("pure error does not satisfy the syndrome")
        v = self._apply(self._trellises[0], self.sym_gens, e)
        nmask = (1 << self.n) - 1
        return PauliVector(self.n, v & nmask, v >> self.n), True

    @staticmethod
    def _apply(trellis: CosetTrellis, gens, target: int) -> int:
        weight, combo = trellis.minimize(target)
        v = target
        while combo:
            i = combo.bit_length() - 1
            combo ^= 1 << i
            v ^= gens[i]
        if _fold(v, trellis.fold_shift).bit_count() != weight:
            raise AssertionError("trellis weight differs from its correction's")
        return v

    def decode_error(self, err: PauliVector):
        return self.decode(self.syndrome(err))

    # -- logical effect ----------------------------------------------------

    def net_logical_effect(self, v: PauliVector):
        """Per-bulk-qubit effect of a Pauli, or "detectable".

        A zero-syndrome operator is a product of stabilizers and logical
        representatives.  The representatives pair symplectically (the code
        validates it), so its X-coefficient on qubit i is its symplectic
        product with Z-bar_i and its Z-coefficient that with X-bar_i.
        """
        if not self.syndrome_is_zero(v):
            return "detectable"
        w = v.z | (v.x << self.n)
        return ["IXZY"[parity(w & zb) + 2 * parity(w & xb)]
                for zb, xb in self._partners]


def decode(code: HolographicCode, syndrome,
           objective: str = "pauli") -> PauliVector:
    """One-shot decode; prefer CodeDecoder for repeated use."""
    return CodeDecoder(code, objective).decode(syndrome)[0]
