"""Exact most-likely-error decoding.

A syndrome is mapped to a pure error through the inverse syndrome former,
one pure error per check (the columns of the GF(2) right inverse of the
check matrix); the minimum-weight element of the coset spanned by
stabilizer and logical generators is then found exactly by a Viterbi
sweep over a precomputed minimal trellis (``CosetTrellis``, the minimal
trellis of McEliece, "On the BCJR trellis for linear block codes", IEEE
Trans. IT 1996).  ``coset_sectors`` turns a code into these coset
problems, one per error sector; decoding and the distances of
``holocode.distance`` read the same sector rows and use the same
minimizer, and each solves a problem that two sectors share once (the X
and Z sectors of a self-dual CSS code, such as every heptagon/max code).
The trellis keeps its state bits ordered by where their rows end, the
first to end on the top bit, so a sweep is repeats, adds and compares of
contiguous halves over one weight array, and it stores one parity byte
per state and column, which the sweep compares with the target's bits
there.
A trellis whose state profile exceeds its limit raises
``TrellisLimitError`` instead of returning an uncertified answer.

One generator, ``_schedule``, yields a trellis's ops in sweep order, and
one forward pass, ``_sweep``, consumes them.  A decoder keeps the ops
(``CosetTrellis``) to sweep many targets and backtrace each.  A distance
needs one weight from one sweep, so ``coset_weight`` streams the ops
through ``_sweep`` and drops each column's parity row once swept: its
memory follows the peak state count, not the states summed over
columns.  The pentagon/zero R=4 bit distance (20 peak state bits) peaks
at 4.5 MiB under ``tracemalloc`` this way, against 78.4 MiB for a stored
trellis.

The same minimization can be phrased as a standard integer linear
program for users who prefer an external solver: minimize sum_i w_i
subject to w = e + G.x - 2t with x in {0,1}^|G|, t integer slack and
0 <= w <= 1 componentwise (for Pauli weight, minimize sum_q y_q with
y_q >= w_q and y_q >= w_{q+n}).  Nothing here requires it; the trellis
is exact, and the tests check it against this program.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .gf2 import PauliVector, echelon, gather_bits, right_inverse, transpose
from .builder import HolographicCode


class TrellisLimitError(ValueError):
    """The minimal trellis needs more states than its limit allows."""


def _fold(v: int, fold_shift: int | None) -> int:
    if fold_shift is None:
        return v
    return (v | (v >> fold_shift)) & ((1 << fold_shift) - 1)


def pure_error(units: list, y: int) -> int:
    """Map a syndrome to a pure error: the XOR of ``units[j]``, the pure
    error of check j, over the set bits j of y."""
    if y >> len(units):  # a negative y shifts to -1
        raise ValueError("syndrome outside the ISF's checks")
    return gather_bits(y, units)


def _minimal_span(rows):
    """Row-reduce integer rows so all lowest and all highest set bits are
    distinct (minimal-span generator form).  Exactness of the sweep does
    not depend on this; it only shrinks the state profile.

    Returns (rows, combos), where combos[i] is the mask of original rows
    XORed into reduced row i; dependent input rows are dropped.

    ``gf2.echelon`` leaves the starts distinct; the end pass here then
    only lowers ends, and it keeps the set of starts, because the XOR of
    two rows with different starts takes the lower start and is never
    zero.  So both forms hold after one round.  The rows are not reduced
    further: trellis states are coefficients over this basis, so another
    minimal-span basis would move the sweep's tie-breaks (the ``W1 < W0``
    choice at each merge).
    """
    work = list(zip(*echelon(rows)))
    by_end = {}
    for i in range(len(work)):
        r, cmb = work[i]
        while (j := by_end.get(r.bit_length())) is not None:
            rj, cj = work[j]
            # Keep the later-starting row as the owner of this end so
            # the replacement inherits the earlier start.
            if (rj & -rj) < (r & -r):
                work[j] = (r, cmb)
            r, cmb = rj ^ r, cj ^ cmb
        by_end[r.bit_length()] = i
        work[i] = (r, cmb)
    return [r for r, _ in work], [c for _, c in work]


# State bits whose part of a parity row is built as one Python int, one
# byte per state, before numpy doubles the row over the remaining bits.
_TABLE_BITS = 8
_ONES = [int.from_bytes(b"\x01" * (1 << b), "little") for b in range(_TABLE_BITS)]


def _parity_row(vs) -> np.ndarray:
    """The ``uint8`` row whose entry s is the XOR of ``vs[b]`` over the set
    bits b of s.

    The entries below 2^b, XORed with vs[b], are those of 2^b..2^(b+1)-1.
    The first ``_TABLE_BITS`` doublings run on one Python int, a byte per
    entry, so a narrow row costs one numpy assignment.
    """
    low = min(len(vs), _TABLE_BITS)
    t = 0
    for b in range(low):
        t |= (t ^ vs[b] * _ONES[b]) << (8 << b)
    code = np.empty(1 << len(vs), dtype=np.uint8)
    code[:1 << low] = np.frombuffer(t.to_bytes(1 << low, "little"), np.uint8)
    for b in range(low, len(vs)):
        h = 1 << b
        np.bitwise_xor(code[:h], vs[b], out=code[h:2 * h])
    return code


def _schedule(gens, width: int, fold_shift: int | None, state_limit: int):
    """The minimal trellis of ``gens`` as a stream of ops.

    Yields (spread, combos, weight dtype) first: the bit map that
    interleaves a folded target (None unfolded), each reduced row's mask
    over ``gens`` in row order, and the sweep's weight type.  Then one op
    at a time: ("branch", row, bit), ("emit", shift, pattern, code) and
    ("merge", row), in sweep order.  A branch's bit counts from the bottom:
    it is the number of active rows that end after the new one, or at the
    same column but start before it, so a merge always takes the top bit.
    A consumer that drops each op once swept holds one column's parity row
    at a time.  Raises ``TrellisLimitError`` at the first branch that
    needs more than ``state_limit`` states.
    """
    if fold_shift is None:
        spread = None
        rows = list(gens)
        positions = width
        stride = 1
    else:
        # Interleave the halves: x bit q -> bit 2q, z bit q -> bit 2q+1.
        n = fold_shift
        spread = ([1 << 2 * q for q in range(n)]
                  + [2 << 2 * q for q in range(n)])
        rows = [gather_bits(g, spread) for g in gens]
        positions = n
        stride = 2

    rows, combos = _minimal_span(rows)
    order = sorted(range(len(rows)),
                   key=lambda i: (rows[i] & -rows[i]).bit_length())
    rows = [rows[i] for i in order]
    start_at = [[] for _ in range(positions)]
    for i, r in enumerate(rows):
        start_at[((r & -r).bit_length() - 1) // stride].append(i)
    # Weights stay within [-positions, positions]; see ``_sweep``.
    yield (spread, [combos[i] for i in order],
           np.int16 if positions < 1 << 15 else np.int32)

    pattern = (1 << stride) - 1
    # State bit -> (-end position, row), ascending: the last to end holds
    # bit 0 and the first to end the top bit.
    active = []
    for p in range(positions):
        for i in start_at[p]:
            key = (-((rows[i].bit_length() - 1) // stride), i)
            b = bisect.bisect(active, key)
            active.insert(b, key)
            if 1 << len(active) > state_limit:
                raise TrellisLimitError(
                    f"trellis needs 2^{len(active)} states at position "
                    f"{p}, above the limit of {state_limit}")
            yield ("branch", i, b)
        vs = [(rows[i] >> (stride * p)) & pattern for _, i in active]
        yield ("emit", stride * p, pattern, _parity_row(vs))
        while active and active[-1][0] == -p:
            yield ("merge", active.pop()[1])
    if active:
        raise AssertionError("rows still active after final position")


def _sweep(ops, t: int, wtype, sels=None) -> int:
    """The least weight over the trellis ``ops`` at interleaved target t.

    The sweep adds weights in ``int16``, or ``int32`` from 2^15 positions
    on.  A one-bit column adds the parity, or, where the target bit is 1,
    subtracts it and adds 1 to an offset shared by every state; a merge
    compares differences, which the offset leaves alone.  A Pauli-folded
    column adds 1 where the parities differ from the target's bit pair.
    A merge drops the top state bit: the upper half of the weights, where
    the merged row's coefficient is 1, against the lower half.  With
    ``sels`` given, appends each merge's choice ``W1 < W0`` (the top bit is
    1 where the upper half's state is strictly lighter) for a backtrace.
    """
    W = np.zeros(1, dtype=wtype)
    offset = 0
    for op in ops:
        kind = op[0]
        if kind == "emit":
            # A one-bit column costs b + (1 - 2b) * code at target bit
            # b: add the code, or subtract it and carry the 1 in a
            # shared offset.
            if op[2] == 1:
                if (t >> op[1]) & 1:
                    W -= op[3]
                    offset += 1
                else:
                    W += op[3]
            else:
                W += op[3] != (t >> op[1]) & op[2]
        elif kind == "branch":
            W = W.reshape(-1, 1 << op[2]).repeat(2, axis=0).ravel()
        else:  # merge: drop the top state bit, keeping 0 on ties
            h = len(W) >> 1
            W0 = W[:h]
            W1 = W[h:]
            if sels is not None:
                sels.append(W1 < W0)
            W = np.minimum(W0, W1)
    return int(W[0]) + offset


def _interleave(target: int, spread) -> int:
    return target if spread is None else gather_bits(target, spread)


def coset_weight(gens, width: int, target: int, fold_shift: int | None = None,
                 state_limit: int = 1 << 22) -> int:
    """The least weight in ``target``'s coset of the span of ``gens``.

    Equal to ``CosetTrellis(gens, width, fold_shift).minimize(target)[0]``,
    but the trellis is streamed through one weights-only sweep and never
    stored, so memory follows the peak state count rather than the summed
    states of every column.
    """
    ops = _schedule(gens, width, fold_shift, state_limit)
    spread, _, wtype = next(ops)
    return _sweep(ops, _interleave(target, spread), wtype)


class CosetTrellis:
    """Exact coset minimizer with a precomputed minimal trellis.

    The generator rows are put in minimal-span form over the column order;
    a Viterbi sweep over columns then carries one weight per assignment of
    the rows whose span straddles the current column.  Holographic codes
    have arc-local generators in boundary order, so the straddle count
    stays small and a sweep costs milliseconds.  The trellis depends only
    on the generators and is reused across targets; ``minimize`` is exact
    for every target.  Construction raises ``TrellisLimitError`` when some
    column needs more than ``state_limit`` states.

    State layout: the active rows are kept ordered by the column where
    they end, rows ending together in reverse start order, and the first
    of them holds the top state bit: a row's bit b is the number of active
    rows after it in that order.  So every merge drops the top bit, the
    min of the weight array's two contiguous halves, and a new row's bit
    is inserted at its count.  A column stores one ``uint8`` per state,
    the parity of the state's rows at each target bit there (bit s for
    target bit s).  The row is built by doubling over the state bits
    (``_parity_row``): with v_b the bit (or bit pair) at the column of the
    row on state bit b, the states 2^b..2^(b+1)-1 read the states below
    2^b XORed with v_b, so each state is written once.  The layout permutes
    storage only: the merge sequence, and with it every tie-break, is that
    of any other layout.
    """

    def __init__(self, gens, width: int, fold_shift: int | None = None,
                 state_limit: int = 1 << 22):
        self.fold_shift = fold_shift
        ops = _schedule(gens, width, fold_shift, state_limit)
        self._spread, self.combos, self._wtype = next(ops)
        self.schedule = list(ops)
        # The backtrace's ops, last first: (state bit, combo mask) for a
        # branch, (state bit, None) for a merge, which restores the top bit
        # of the width it merged.
        self._trace = []
        bits = 0
        for op in self.schedule:
            if op[0] == "branch":
                bits += 1
                self._trace.append((op[2], self.combos[op[1]]))
            elif op[0] == "merge":
                bits -= 1
                self._trace.append((bits, None))
        self._trace.reverse()

    # -- queries ----------------------------------------------------------

    def minimize(self, target: int):
        """(weight, combo mask over the original generators)."""
        sels = []
        weight = _sweep(self.schedule, _interleave(target, self._spread),
                        self._wtype, sels)

        # Backtrace: a merge sets the top bit of its width from its choice,
        # and a branch reads its row's coefficient from the bit it inserted.
        state = 0
        combo = 0
        for b, row_combo in self._trace:
            if row_combo is None:
                state |= int(sels.pop()[state]) << b
            else:
                if (state >> b) & 1:
                    combo ^= row_combo
                state = ((state >> (b + 1)) << b) | (state & ((1 << b) - 1))
        return weight, combo


def _pack(p: PauliVector) -> int:
    """A Pauli as one x || z vector."""
    return p.x | (p.z << p.n)


@dataclass
class Sector:
    """One error sector: bits [offset, offset + width) of a Pauli packed
    x || z, its check rows, and the stabilizer rows and per-qubit logical
    rows that span its coset.  Pauli weight when ``fold`` is set (x bit q
    and z bit q + fold count once), else Hamming weight."""

    name: str  # "z", "x" or "pauli"
    offset: int
    width: int
    fold: int | None
    checks: list
    stabilizers: list
    logicals: list


def coset_sectors(code: HolographicCode) -> list:
    """The code's coset problems, one ``Sector`` per error sector; their
    checks, in order, are the code's stabilizers.

    A CSS code, X-type stabilizers first, gives the Z-error sector (X-type
    checks, Z-type stabilizers, Z-bar per qubit), then the X-error sector.
    Any other code gives one sector, with X-bar then Z-bar per qubit.
    Decoding minimizes over the stabilizers and all logical rows; a
    distance of qubit i targets its first logical row.

    The two CSS sectors of a self-dual code are the same problem: every
    heptagon/max code (Steane seed) has equal checks, stabilizer rows and
    logical rows in both, and ``CodeDecoder`` and the distances solve such
    a pair once.  heptagon/zero from R=2 and every pentagon CSS code have
    two different sectors.
    """
    n = code.n
    stabs = code.stabilizers
    if not code.css:
        # With v packed x || z, parity(v & (s.z || s.x)) is <v, s>.
        return [Sector("pauli", 0, 2 * n, n, [s.z | (s.x << n) for s in stabs],
                       [_pack(s) for s in stabs],
                       [[_pack(lq.x_rep), _pack(lq.z_rep)]
                        for lq in code.logicals])]
    if any(lq.x_rep.z or lq.z_rep.x for lq in code.logicals):
        raise ValueError("logical representatives are not sector-pure")
    x_type = [s.x for s in stabs if s.x]
    z_type = [s.z for s in stabs if s.z]
    return [Sector("z", n, n, None, x_type, z_type,
                   [[lq.z_rep.z] for lq in code.logicals]),
            Sector("x", 0, n, None, z_type, x_type,
                   [[lq.x_rep.x] for lq in code.logicals])]


class CodeDecoder:
    """Per-code decoding context: the check columns, the ISF's pure errors
    and a coset trellis per sector of ``coset_sectors``.

    CSS codes decode their Z-error and X-error sectors independently, each
    under Hamming weight; other codes solve one joint problem under Pauli
    weight (the most likely single error under depolarizing noise).  Sectors
    with the same checks, generators, width and fold share one set of
    check columns, ISF and trellis: the X and Z sectors of a self-dual CSS
    code such as heptagon/max are built once.
    """

    def __init__(self, code: HolographicCode):
        self.n = code.n
        self._sectors = []  # (check columns, ISF units, trellis, gens, Sector)
        solved = {}  # one of each per distinct coset problem
        for s in coset_sectors(code):
            gens = s.stabilizers + [r for rows in s.logicals for r in rows]
            key = (tuple(s.checks), tuple(gens), s.width, s.fold)
            if key not in solved:
                solved[key] = (
                    transpose(s.checks, s.width),
                    right_inverse(s.checks, s.width),
                    CosetTrellis(gens, s.width, fold_shift=s.fold), gens)
            self._sectors.append((*solved[key], s))
        # ``syndrome`` returns, and ``decode`` takes, a pair for a CSS code
        # and one int otherwise; perfbench reads each sector's gens and ISF.
        self.mode = "css" if code.css else "symplectic"
        if code.css:
            (_, self.fx, _, self.z_gens, _), (_, self.fz, _, self.x_gens, _) \
                = self._sectors
        else:
            ((_, self.f, _, self.sym_gens, _),) = self._sectors
        # Rows Z-bar_i, X-bar_i packed x || z, as columns: with v packed
        # z || x, the product's bits 2i, 2i + 1 are <v, Z-bar_i>, <v, X-bar_i>.
        self.k = code.k
        self._partners = transpose(
            [_pack(r) for lq in code.logicals for r in (lq.z_rep, lq.x_rep)],
            2 * self.n)

    # -- syndromes ---------------------------------------------------------

    def _syndromes(self, err: PauliVector) -> list:
        w = _pack(err)
        return [gather_bits((w >> s.offset) & ((1 << s.width) - 1), H)
                for H, _, _, _, s in self._sectors]

    def syndrome(self, err: PauliVector):
        """CSS codes: (x-check syndrome, z-check syndrome); else one vector."""
        ys = self._syndromes(err)
        return tuple(ys) if self.mode == "css" else ys[0]

    def split_syndrome(self, y: int):
        """A syndrome given as one vector whose bit i is the parity with
        stabilizer i, in the form ``syndrome`` returns."""
        ys = []
        for _, units, *_ in self._sectors:
            ys.append(y & ((1 << len(units)) - 1))
            y >>= len(units)
        if y:
            raise ValueError("syndrome longer than the code's checks")
        return tuple(ys) if self.mode == "css" else ys[0]

    # -- decoding ----------------------------------------------------------

    def decode(self, syndrome):
        """Return (correction PauliVector, certificate flag).

        Takes what ``syndrome`` returns and minimizes each sector's coset
        of its pure error.  The trellis is exact, so the flag is always
        True; it is kept for callers that record it.  Raises ValueError for
        a sector syndrome that is negative or has a bit at or above that
        sector's check count.
        """
        ys = syndrome if self.mode == "css" else (syndrome,)
        v = 0
        for (H, units, trellis, gens, s), y in zip(self._sectors, ys):
            e = pure_error(units, y)
            if gather_bits(e, H) != y:
                raise AssertionError("pure error does not satisfy the syndrome")
            v |= self._apply(trellis, gens, e) << s.offset
        return PauliVector(self.n, v & ((1 << self.n) - 1), v >> self.n), True

    @staticmethod
    def _apply(trellis: CosetTrellis, gens, target: int) -> int:
        weight, combo = trellis.minimize(target)
        v = target ^ gather_bits(combo, gens)
        if _fold(v, trellis.fold_shift).bit_count() != weight:
            raise AssertionError("trellis weight differs from its correction's")
        return v

    # -- logical effect ----------------------------------------------------

    def net_logical_effect(self, v: PauliVector):
        """Per-bulk-qubit effect of a Pauli, or "detectable".

        A zero-syndrome operator is a product of stabilizers and logical
        representatives.  The representatives pair symplectically (the code
        validates it), so its X-coefficient on qubit i is its symplectic
        product with Z-bar_i and its Z-coefficient that with X-bar_i.
        """
        if any(self._syndromes(v)):
            return "detectable"
        effect = gather_bits(v.z | (v.x << self.n), self._partners)
        return ["IXZY"[(effect >> 2 * i) & 3] for i in range(self.k)]
