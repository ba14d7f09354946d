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

One function, ``_schedule``, puts the rows in minimal-span form, reads
the trellis's state profile from their spans (``_profile``: the state
bits at each position, so the peak and summed state counts, before any
parity row is built) and returns a generator of the ops in sweep order;
one forward pass, ``_sweep``, consumes them.  A decoder keeps the ops
(``CosetTrellis``, whose rows are read-only) to sweep many targets and
backtrace each.  A distance needs one weight from one sweep, so
``coset_weight`` streams the ops through ``_sweep`` with two buffers
sized once from the profile's peak: a ``uint8`` row buffer that every
column's parity row is built into and compared in, and a weights buffer
that branches and merges work in.  Such a sweep allocates nothing per
column, and its memory follows the peak state count, not the states
summed over columns: 3 bytes per peak state with ``int16`` weights.  The
pentagon/zero R=4 bit distance (20 peak state bits) peaks at 3.2 MiB
under ``tracemalloc`` this way, against 78.4 MiB for a stored trellis.

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
from itertools import accumulate

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


# parity(s & v) for every 8-bit state s (column) and row mask v (row),
# read-only: the low ``_TABLE_BITS`` state bits of every parity row read
# from here.  Joined from one bytes object per row, which leaves less
# resident memory behind than numpy's ``bitwise_count`` or one long
# ``bytes`` (0.1 against 0.2-0.35 MiB of RSS on import).
_TABLE_BITS = 8
_PARITY = np.frombuffer(
    b"".join(bytes((s & v).bit_count() & 1 for s in range(256))
             for v in range(256)),
    dtype=np.uint8).reshape(256, 256)


def _parity_row(vs, stride: int, out=None) -> np.ndarray:
    """The ``uint8`` row whose entry s is the XOR of ``vs[b]`` over the set
    bits b of s; each vs[b] has ``stride`` bits.

    The entries below 2^8 are the table rows ``_PARITY[m]``, one per bit
    of the vs, at the mask m of the state bits whose vs set that bit.  A
    one-bit row of at most 8 state bits is a read-only view of the table.
    Otherwise the row is written into ``out`` (a fresh array when None),
    and the entries below 2^b, XORed with vs[b], give those of
    2^b..2^(b+1)-1 for b from 8 up, so each state is written once.
    """
    k = len(vs)
    low = min(k, _TABLE_BITS)
    m = 1 << low
    masks = [sum(((v >> s) & 1) << b for b, v in enumerate(vs[:low]))
             for s in range(stride)]
    if stride == 1 and k == low:
        return _PARITY[masks[0], :m]
    code = np.empty(1 << k, dtype=np.uint8) if out is None else out[:1 << k]
    if stride == 1:
        code[:m] = _PARITY[masks[0], :m]
    else:  # bit 0 from the x bits, bit 1 from the z bits
        np.left_shift(_PARITY[masks[1], :m], 1, out=code[:m])
        code[:m] |= _PARITY[masks[0], :m]
    for b in range(low, k):
        h = 1 << b
        np.bitwise_xor(code[:h], vs[b], out=code[h:2 * h])
    return code


def _profile(rows, stride: int, positions: int, state_limit: int) -> list:
    """The state bits at each position's emit: the number of ``rows``
    (interleaved, ``stride`` bits per position) whose span holds it.

    This is the trellis's state profile, read from the rows' first and
    last positions without building a parity row: the peak state count is
    2^max and a sweep's summed states are the sum of 2^bits.  Raises
    ``TrellisLimitError`` at the first position that needs more than
    ``state_limit`` states; there the rows that start at that position
    branch past 2^``state_limit.bit_length()`` states.
    """
    delta = [0] * (positions + 1)
    for r in rows:
        delta[((r & -r).bit_length() - 1) // stride] += 1
        delta[(r.bit_length() - 1) // stride + 1] -= 1
    profile = list(accumulate(delta[:-1]))
    for p, bits in enumerate(profile):
        if 1 << bits > state_limit:
            raise TrellisLimitError(
                f"trellis needs 2^{state_limit.bit_length()} states at "
                f"position {p}, above the limit of {state_limit}")
    return profile


def _schedule(gens, width: int, fold_shift: int | None, state_limit: int):
    """The minimal trellis of ``gens``: (spread, combos, weight dtype,
    profile, ops).

    ``spread`` is the bit map that interleaves a folded target (None
    unfolded), ``combos`` each reduced row's mask over ``gens`` in row
    order, and ``profile`` the state bits at each position (``_profile``,
    which raises ``TrellisLimitError`` here, before any op).  ``ops(out)``
    yields one op at a time, in sweep order: ("branch", row, bit), ("emit",
    shift, pattern, code) and ("merge", row).  A branch's bit counts from
    the bottom: it is the number of active rows that end after the new
    one, or at the same column but start before it, so a merge always
    takes the top bit.  Given ``out``, a ``uint8`` buffer of at least the
    peak state count, every parity row is built into it, so each emit's
    row is overwritten by the next one's; otherwise every row is its own
    array (a table view when it is one-bit and narrow).
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
    profile = _profile(rows, stride, positions, state_limit)

    def ops(out=None):
        start_at = [[] for _ in range(positions)]
        for i, r in enumerate(rows):
            start_at[((r & -r).bit_length() - 1) // stride].append(i)
        pattern = (1 << stride) - 1
        # State bit -> (-end position, row), ascending: the last to end
        # holds bit 0 and the first to end the top bit.
        active = []
        for p in range(positions):
            for i in start_at[p]:
                key = (-((rows[i].bit_length() - 1) // stride), i)
                b = bisect.bisect(active, key)
                active.insert(b, key)
                yield ("branch", i, b)
            vs = [(rows[i] >> (stride * p)) & pattern for _, i in active]
            yield ("emit", stride * p, pattern, _parity_row(vs, stride, out))
            while active and active[-1][0] == -p:
                yield ("merge", active.pop()[1])
        if active:
            raise AssertionError("rows still active after final position")

    # Weights stay within [-positions, positions]; see ``_sweep``.
    return (spread, [combos[i] for i in order],
            np.int16 if positions < 1 << 15 else np.int32, profile, ops)


# Up to this many weights, a branch copies over itself in one step.
_SMALL_BRANCH = 1 << 12


def _branch_in_place(wbuf, n: int, block: int) -> np.ndarray:
    """Repeat each run of ``block`` weights in wbuf[:n] twice, into
    wbuf[:2n], as ``repeat`` would, and return wbuf[:2n].

    wbuf[n/2:n] goes to wbuf[n:2n] first, then wbuf[n/4:n/2] to
    wbuf[n/2:n], and so on down: each copy reads just below where it
    writes, so no two overlap.  The rest, one block or at most
    ``_SMALL_BRANCH`` weights, is copied over itself, which numpy does
    through a temporary of its size.
    """
    hi = n
    while hi > block and hi > _SMALL_BRANCH:
        lo = hi >> 1
        wbuf[hi:2 * hi].reshape(-1, 2, block)[:] = \
            wbuf[lo:hi].reshape(-1, 1, block)
        hi = lo
    if hi == block:
        wbuf[hi:2 * hi] = wbuf[:hi]
    else:
        wbuf[:2 * hi].reshape(-1, 2, block)[:] = \
            wbuf[:hi].reshape(-1, 1, block)
    return wbuf[:2 * n]


def _sweep(ops, t: int, wtype, sels=None, wbuf=None) -> int:
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

    With ``wbuf``, a weights buffer of at least the peak state count, the
    sweep is a streamed one (``coset_weight``): its rows are built in a
    buffer of its own for every column, so a folded column compares into
    its row, and the weights live in ``wbuf``, where a merge writes the
    minimum over the lower half and a branch repeats in place
    (``_branch_in_place``).  So it takes no column-sized temporary.
    Without it, a folded column compares into a temporary, since a stored
    trellis's rows are swept again (and read-only).
    """
    if wbuf is None:
        W = np.zeros(1, dtype=wtype)
    else:
        W = wbuf[:1]
        W[0] = 0
    offset = 0
    for op in ops:
        kind = op[0]
        if kind == "emit":
            # A one-bit column costs b + (1 - 2b) * code at target bit
            # b: add the code, or subtract it and carry the 1 in a
            # shared offset.
            code = op[3]
            if op[2] == 1:
                if (t >> op[1]) & 1:
                    W -= code
                    offset += 1
                else:
                    W += code
            elif wbuf is not None:  # a streamed row, rebuilt every column
                W += np.not_equal(code, (t >> op[1]) & op[2],
                                  out=code.view(np.bool_))
            else:
                W += code != (t >> op[1]) & op[2]
        elif kind == "branch":
            if wbuf is None:
                W = W.reshape(-1, 1 << op[2]).repeat(2, axis=0).ravel()
            else:
                W = _branch_in_place(wbuf, len(W), 1 << op[2])
        else:  # merge: drop the top state bit, keeping 0 on ties
            h = len(W) >> 1
            W0 = W[:h]
            W1 = W[h:]
            if sels is not None:
                sels.append(W1 < W0)
            if wbuf is None:
                W = np.minimum(W0, W1)
            else:
                W = np.minimum(W0, W1, out=W0)
    return int(W[0]) + offset


def _interleave(target: int, width: int, spread) -> int:
    if target >> width:  # a negative target shifts to -1
        raise ValueError(f"target outside the coset's {width} bits")
    return target if spread is None else gather_bits(target, spread)


def coset_weight(gens, width: int, target: int, fold_shift: int | None = None,
                 state_limit: int = 1 << 22) -> int:
    """The least weight in ``target``'s coset of the span of ``gens``.

    Equal to ``CosetTrellis(gens, width, fold_shift).minimize(target)[0]``,
    but the trellis is streamed through one weights-only sweep and never
    stored.  The sweep owns two buffers of the peak state count, read from
    the profile before any op: every column's parity row is built and
    compared in one, and the weights live in the other.  So memory follows
    the peak state count rather than the summed states of every column.
    Raises ValueError for a target outside [0, 2^width).
    """
    spread, _, wtype, profile, ops = _schedule(gens, width, fold_shift,
                                              state_limit)
    t = _interleave(target, width, spread)
    peak = 1 << max(profile, default=0)
    return _sweep(ops(np.empty(peak, dtype=np.uint8)), t, wtype,
                  wbuf=np.empty(peak, dtype=wtype))


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
    target bit s).  The row is built by ``_parity_row``: with v_b the bit
    (or bit pair) at the column of the row on state bit b, the states
    below 2^8 read the parity table ``_PARITY``, and the states
    2^b..2^(b+1)-1 read the states below 2^b XORed with v_b, so each state
    is written once.  The stored rows are read-only, since every
    ``minimize`` sweeps them again: a Pauli-folded column compares into a
    temporary, never into its row.  The layout permutes storage only: the
    merge sequence, and with it every tie-break, is that of any other
    layout.
    """

    def __init__(self, gens, width: int, fold_shift: int | None = None,
                 state_limit: int = 1 << 22):
        self.fold_shift = fold_shift
        self._width = width
        self._spread, self.combos, self._wtype, _, ops = _schedule(
            gens, width, fold_shift, state_limit)
        self.schedule = list(ops())
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
            else:  # swept for every target, so never compared in place
                op[3].flags.writeable = False
        self._trace.reverse()

    # -- queries ----------------------------------------------------------

    def minimize(self, target: int):
        """(weight, combo mask over the original generators).  Raises
        ValueError for a target outside [0, 2^width)."""
        sels = []
        weight = _sweep(self.schedule,
                        _interleave(target, self._width, self._spread),
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
