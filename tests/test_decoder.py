"""Exact MLE decoding: pure errors, the trellis minimizer and its oracles."""

import hashlib
import random
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holocode import decoder
from holocode.builder import build_code
from holocode.decoder import (
    CodeDecoder,
    CosetTrellis,
    TrellisLimitError,
    _branch_in_place,
    _minimal_span,
    _schedule,
    coset_sectors,
    coset_weight,
    pure_error,
)
from holocode.gf2 import (
    PauliVector,
    eliminate,
    rank,
    right_inverse,
    symplectic_product,
)
from holocode.tiling import SUPPORTED
from oracles import (
    DecodeProblem,
    branch_and_bound_min,
    exhaustive_min,
    milp_min,
    row_parities,
)


def bits(*rows):
    """(packed rows, width) from strings of 0/1, column 0 first."""
    return [int(r[::-1], 2) for r in rows], len(rows[0])


def trellis_min(problem):
    """(weight, corrected vector) from a fresh trellis for ``problem``."""
    trellis = CosetTrellis(problem.gens, problem.width, problem.fold_shift)
    w, combo = trellis.minimize(problem.target)
    v = problem.target
    while combo:
        i = combo.bit_length() - 1
        combo ^= 1 << i
        v ^= problem.gens[i]
    return w, v


# -- pure_error --------------------------------------------------------------


def test_pure_error_zero_syndrome():
    f = right_inverse(*bits("1100011", "0111001", "0001111"))
    assert pure_error(f, 0) == 0


def test_pure_error_satisfies_syndrome():
    rows, cols = bits("1100011", "0111001", "0001111")
    f = right_inverse(rows, cols)
    for y in range(1, 8):
        e = pure_error(f, y)
        assert row_parities(rows, e) == y


def test_pure_error_linearity():
    f = right_inverse(*bits("1100011", "0111001", "0001111"))
    assert pure_error(f, 0b011) == pure_error(f, 0b001) ^ pure_error(f, 0b010)


def test_pure_error_dimension_check():
    f = right_inverse(*bits("110", "011"))
    for y in (0b100, -1):
        with pytest.raises(ValueError):
            pure_error(f, y)


# -- the trellis against the oracles -------------------------------------------


def test_zero_target_any_generators():
    prob = DecodeProblem(0, [0b1010, 0b0110], 4)
    assert trellis_min(prob) == (0, 0)


def test_steane_z_sector_single_error():
    code = build_code("heptagon", "max", 1)
    sx = [s.x for s in code.stabilizers if s.x]
    f = right_inverse(sx, 7)
    # syndrome of Z on qubit 1 under the X checks
    y = row_parities(sx, 1 << 1)
    e = pure_error(f, y)
    gens = ([s.z for s in code.stabilizers if s.z]
            + [lq.z_rep.z for lq in code.logicals])
    prob = DecodeProblem(e, gens, 7)
    w, v = trellis_min(prob)
    assert w == 1
    assert v == 1 << 1  # the unique weight-1 solution
    assert exhaustive_min(prob) == 1


def test_scf_weight_one_targets_stay_weight_one():
    code = build_code("pentagon", "max", 1, "scf")
    gens = [s.z for s in code.stabilizers if s.z]  # stabilizers only
    for q in range(5):
        prob = DecodeProblem(1 << q, gens, 5)
        assert trellis_min(prob)[0] == 1
        assert exhaustive_min(prob) == 1


def test_oracle_equivalence_random_problems():
    rng = random.Random(99)
    for _ in range(40):
        width = rng.randrange(4, 12)
        gens = [rng.getrandbits(width) for _ in range(rng.randrange(1, 9))]
        prob = DecodeProblem(rng.getrandbits(width), gens, width)
        w, v = trellis_min(prob)
        assert w == exhaustive_min(prob) == branch_and_bound_min(prob)
        assert w == milp_min(prob)
        assert w == prob.weight_of(v)


def test_pauli_fold_objective():
    # one generator turns XX into YY: pauli weight unchanged, hamming up
    n = 2
    target = 0b0011  # X on both qubits
    gen = 0b1100  # Z on both qubits
    prob_h = DecodeProblem(target, [gen], 2 * n)
    prob_p = DecodeProblem(target, [gen], 2 * n, fold_shift=n)
    assert trellis_min(prob_h)[0] == 2
    assert trellis_min(prob_p)[0] == 2
    # with pauli weight, a Y-only vector still counts its qubits once
    assert prob_p.weight_of(0b1111) == 2
    assert prob_h.weight_of(0b1111) == 4


def test_monotonicity_adding_generators():
    rng = random.Random(5)
    for _ in range(25):
        width = 10
        gens = [rng.getrandbits(width) for _ in range(6)]
        target = rng.getrandbits(width)
        w_prev = None
        for g_count in range(len(gens) + 1):
            prob = DecodeProblem(target, gens[:g_count], width)
            w = trellis_min(prob)[0]
            if w_prev is not None:
                assert w <= w_prev
            w_prev = w


def test_trellis_matches_search_on_random_instances():
    rng = random.Random(43)
    for _ in range(30):
        width = rng.randrange(6, 16)
        gens = [rng.getrandbits(width) | 1 << rng.randrange(width)
                for _ in range(rng.randrange(1, 9))]
        prob = DecodeProblem(rng.getrandbits(width), gens, width)
        w, v = trellis_min(prob)
        assert prob.weight_of(v) == w
        assert w == branch_and_bound_min(prob)


def test_trellis_pauli_fold():
    rng = random.Random(44)
    n = 7
    for _ in range(20):
        gens = [rng.getrandbits(2 * n) for _ in range(6)]
        gens = [g for g in gens if g]
        prob = DecodeProblem(rng.getrandbits(2 * n), gens, 2 * n,
                             fold_shift=n)
        assert trellis_min(prob)[0] == branch_and_bound_min(prob)
        assert trellis_min(prob)[0] == milp_min(prob)


def test_trellis_state_limit_raises():
    # three overlapping rows straddle the middle columns: 2^3 states
    gens = [0b0001111, 0b0011110, 0b0111100]
    CosetTrellis(gens, 7, state_limit=8)
    assert coset_weight(gens, 7, 0b1000001, state_limit=8) == 2
    with pytest.raises(TrellisLimitError,
                       match="above the limit of 4") as stored:
        CosetTrellis(gens, 7, state_limit=4)
    # The streamed sweep raises the same error as the stored trellis.
    with pytest.raises(TrellisLimitError) as streamed:
        coset_weight(gens, 7, 0, state_limit=4)
    assert str(streamed.value) == str(stored.value)


@pytest.mark.parametrize("spec", [("heptagon", "max", 3),  # CSS sectors
                                  ("pentagon", "zero", 3)])  # joint
def test_trellis_stores_one_byte_per_state(spec):
    dec = CodeDecoder(build_code(*spec))
    for _, _, trellis, *_ in dec._sectors:
        bits = states = stored = 0
        for op in trellis.schedule:
            if op[0] == "branch":
                bits += 1
            elif op[0] == "merge":
                bits -= 1
            else:
                states += 1 << bits
                stored += op[3].nbytes
        assert stored == states


def test_trellis_weights_do_not_wrap():
    # One row over every position: the state that takes it costs 40000 at
    # target 0, which wraps in int16 weights.
    width = 40000
    trellis = CosetTrellis([(1 << width) - 1], width)
    assert trellis.minimize(0) == (0, 0)
    assert trellis.minimize((1 << width) - 1) == (0, 1)


def check_parity_rows(trellis, gens, fold):
    """Check every emit row against brute-force parities; return the peak
    number of state bits.

    The state -> row map is rebuilt from the schedule's branch and merge
    ops, and the trellis's reduced rows from its combos over ``gens``.  A
    branch's bit counts from the bottom, and the rows' ends never rise from
    bit 0 up, so each merge pops the top bit, which must be its row.
    """
    rows = []
    for cmb in trellis.combos:
        r = 0
        for i, g in enumerate(gens):
            if (cmb >> i) & 1:
                r ^= g
        rows.append(r)
    # A row's last column: its last bit, or a folded row's last qubit.
    ends = [(r if fold is None else (r | r >> fold) & ((1 << fold) - 1))
            .bit_length() for r in rows]
    bits = []  # state bit -> reduced row, bit 0 first
    peak = 0
    for op in trellis.schedule:
        if op[0] == "branch":
            bits.insert(op[2], op[1])
            assert all(ends[a] >= ends[b] for a, b in zip(bits, bits[1:]))
            peak = max(peak, len(bits))
        elif op[0] == "merge":
            assert bits.pop() == op[1]
        else:
            _, shift, pattern, code = op
            # Target bit s of the column: a Hamming column's own bit, or a
            # folded column's x (s = 0) and z (s = 1) bits of one qubit.
            q = shift // 2
            positions = [shift] if fold is None else [q, fold + q]
            assert pattern == (1 << len(positions)) - 1
            masks = [sum(((rows[i] >> pos) & 1) << b for b, i in enumerate(bits))
                     for pos in positions]
            want = [sum(((state & m).bit_count() & 1) << s
                        for s, m in enumerate(masks))
                    for state in range(1 << len(bits))]
            assert code.dtype == np.uint8
            assert code.tolist() == want
    assert bits == []
    return peak


@st.composite
def parity_row_problems(draw):
    """Row sets with zero and dependent rows, up to about 10 state bits."""
    fold = draw(st.sampled_from([None, 2, 5, 8, 10]))
    width = 2 * fold if fold else draw(st.integers(1, 22))
    gens = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    if draw(st.booleans()):
        gens.append(0)
    if len(gens) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(gens), min_size=2, max_size=2))
        gens.append(a ^ b)
    return gens, width, fold


# Peaks of 10 state bits, above the 8-bit parity table: a Hamming
# sector, and a folded one whose rows reach from x on one qubit to z on
# another (and back).
WIDE_HAMMING = ([(1 << i) | (1 << (i + 10)) for i in range(10)], 20, None)
WIDE_FOLDED = ([(1 << i) | (1 << (10 + i + 5)) for i in range(5)]
               + [(1 << (10 + i)) | (1 << (i + 5)) for i in range(5)], 20, 10)


@settings(max_examples=150, deadline=None)
@given(parity_row_problems())
@example(WIDE_HAMMING)
@example(WIDE_FOLDED)
def test_trellis_parity_rows_against_brute_force(problem):
    gens, width, fold = problem
    trellis = CosetTrellis(gens, width, fold_shift=fold)
    peak = check_parity_rows(trellis, gens, fold)
    if problem in (WIDE_HAMMING, WIDE_FOLDED):
        assert peak == 10


@settings(max_examples=200, deadline=None)
@given(parity_row_problems())
def test_minimal_span_form(problem):
    gens, width, _ = problem
    rows, combos = _minimal_span(gens)
    assert len(rows) == rank(gens)
    assert len({r & -r for r in rows}) == len(rows)  # distinct starts
    assert len({r.bit_length() for r in rows}) == len(rows)  # distinct ends
    for r, c in zip(rows, combos):
        v = 0
        for i, g in enumerate(gens):
            if c >> i & 1:
                v ^= g
        assert r == v


# sha256 over every emit op's (shift, pattern, dtype) and row bytes, in
# schedule order over the decoder's sectors.  Computed with the earlier
# per-bit popcount build of the rows, and with the first-ending row at state
# bit 0: each row is hashed with its state bits reversed into that order,
# so the digests pin the parities whatever the layout.
EMIT_DIGESTS = {
    ("heptagon", "max", 3):  # both CSS sectors
        "6c2576f544fc3ad3f78dfb404b13f0b070affe71a7417598957bac937419e04f",
    ("pentagon", "zero", 3):  # joint, Pauli weight
        "524fd58f5056ce92637da86b5b5f3d2f9b7b679136f8b2f7af004c58a69b307e",
}


@pytest.mark.parametrize("spec", sorted(EMIT_DIGESTS))
def test_trellis_emit_digest(spec):
    h = hashlib.sha256()
    for _, _, trellis, *_ in CodeDecoder(build_code(*spec))._sectors:
        for op in trellis.schedule:
            if op[0] == "emit":
                _, shift, pattern, code = op
                k = code.size.bit_length() - 1
                h.update(f"{shift},{pattern},{code.dtype.str}:".encode())
                h.update(code.reshape((2,) * k).T.tobytes())
    assert h.hexdigest() == EMIT_DIGESTS[spec]


# The minimum-weight element of a coset is often not unique; which one the
# sweep returns is fixed by its strict ``W1 < W0`` merge rule and the merge
# order.  These digests pin the (weight, combo) pairs themselves, so a
# change of state layout that silently changes tie-breaks fails here.
TIE_BREAK_DIGESTS = {
    ("heptagon", "max", 2): "2821a2574d9c7b9a",  # both CSS sectors
    ("heptagon", "max", 3): "9c1aac19c9ba93d5",
    ("pentagon", "zero", 2): "efec06608bd6df90",  # joint, Pauli weight
    ("pentagon", "zero", 3): "9f15339330125477",
}


@pytest.mark.parametrize("spec", sorted(TIE_BREAK_DIGESTS))
def test_trellis_tie_break_digest(spec):
    code = build_code(*spec)
    dec = CodeDecoder(code)
    rng = random.Random(spec[2])
    h = hashlib.sha256()
    n = code.n
    for _, _, trellis, *_ in dec._sectors:
        for _ in range(150):
            t = 0
            for q in rng.sample(range(n), rng.randrange(1, n // 3 + 1)):
                kind = rng.randrange(1, 4) if trellis.fold_shift else 1
                t |= (kind & 1) << q | (kind >> 1) << (q + n)
            h.update(repr(trellis.minimize(t)).encode())
    assert h.hexdigest()[:16] == TIE_BREAK_DIGESTS[spec]


@st.composite
def coset_problems(draw):
    """Small problems with empty, zero and dependent generator rows."""
    fold = draw(st.sampled_from([None, 1, 2, 3, 4]))
    width = 2 * fold if fold else draw(st.integers(1, 10))
    vec = st.integers(0, (1 << width) - 1)
    gens = draw(st.lists(vec, max_size=7))
    if gens and draw(st.booleans()):
        gens.append(0)
    if len(gens) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(gens), min_size=2, max_size=2))
        gens.append(a ^ b)
    gens = draw(st.permutations(gens))
    return DecodeProblem(draw(vec), gens, width, fold_shift=fold)


@settings(max_examples=300, deadline=None)
@given(coset_problems())
def test_trellis_property_against_brute_force(problem):
    w, v = trellis_min(problem)
    assert w == exhaustive_min(problem)
    assert problem.weight_of(v) == w
    # v stays in the coset: v ^ target is in the span of the generators
    rest = v ^ problem.target
    span = {0}
    for g in problem.gens:
        span |= {s ^ g for s in span}
    assert rest in span


@settings(max_examples=300, deadline=None)
@given(coset_problems())
def test_coset_weight_equals_trellis_minimum(problem):
    trellis = CosetTrellis(problem.gens, problem.width, problem.fold_shift)
    assert coset_weight(problem.gens, problem.width, problem.target,
                        fold_shift=problem.fold_shift) \
        == trellis.minimize(problem.target)[0]


@pytest.mark.parametrize("bits", [0, 3, 12, 13, 16])
def test_branch_in_place_equals_repeat(bits):
    # From 2^13 weights on, the upper halves are copied without overlap.
    rng = np.random.default_rng(bits)
    w = rng.integers(-500, 500, 1 << bits).astype(np.int16)
    for b in range(bits + 1):
        wbuf = rng.integers(-500, 500, 2 << bits).astype(np.int16)
        wbuf[:len(w)] = w
        want = w.reshape(-1, 1 << b).repeat(2, axis=0).ravel()
        assert np.array_equal(_branch_in_place(wbuf, len(w), 1 << b), want)


@pytest.mark.parametrize("gens, width, target, fold", [
    ([0b11], 2, 0b100, None),  # a bit at the width
    ([0b11], 2, -1, None),
    ([0b0101], 4, 0b10000, 2),  # folded: a bit past the z half
], ids=["past-width", "negative", "folded-past-width"])
def test_target_outside_width_raises(gens, width, target, fold):
    with pytest.raises(ValueError, match="target outside"):
        coset_weight(gens, width, target, fold_shift=fold)
    with pytest.raises(ValueError, match="target outside"):
        CosetTrellis(gens, width, fold).minimize(target)


def test_streamed_sweeps_own_their_buffers(monkeypatch):
    """Two ``coset_weight`` sweeps advanced alternately, op by op: each
    builds its next op, the other builds and sweeps one of its own, and
    only then does the first sweep its op.  Rows or weights shared between
    the sweeps would reach the wrong one."""
    problems = []
    for spec, rows in ((("pentagon", "zero", 3), "bit"),  # folded, 14 bits
                       (("heptagon", "max", 3), "word")):  # 9 bits
        s = coset_sectors(build_code(*spec))[0]
        gens = list(s.stabilizers)
        if rows == "word":
            gens += [r for qubit_rows in s.logicals[1:] for r in qubit_rows]
        problems.append((gens, s.width, s.logicals[0][0], s.fold))
    alone = [coset_weight(*p) for p in problems]
    assert alone[0] != alone[1]

    turn = [threading.Semaphore(1), threading.Semaphore(0)]
    finished = [False, False]
    me = threading.local()
    real = decoder._schedule

    def handing_over(i, ops):
        turn[i].acquire()
        try:
            for op in ops:  # builds this op's row
                turn[1 - i].release()
                if not finished[1 - i]:
                    turn[i].acquire()
                yield op
        finally:
            finished[i] = True
            turn[1 - i].release()

    def schedule(*args):
        *head, ops = real(*args)
        return (*head, lambda out=None: handing_over(me.i, ops(out)))

    monkeypatch.setattr(decoder, "_schedule", schedule)
    got = [None, None]

    def solve(i):
        me.i = i
        got[i] = coset_weight(*problems[i])

    threads = [threading.Thread(target=solve, args=(i,), daemon=True)
               for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == alone


@pytest.mark.parametrize("spec", sorted(EMIT_DIGESTS))
def test_stored_rows_stay_read_only(spec):
    """A decoder sweeps its stored rows again for every target, so none may
    take a folded column's compare in place: every row is read-only, and
    200 ``minimize`` calls per trellis leave the emit digest unchanged."""
    code = build_code(*spec)
    trellises = [trellis for _, _, trellis, *_ in CodeDecoder(code)._sectors]
    rows = [op[3] for t in trellises for op in t.schedule if op[0] == "emit"]
    assert not any(row.flags.writeable for row in rows)
    rng = random.Random(5)
    for trellis in trellises:
        for _ in range(200):
            trellis.minimize(rng.getrandbits(2 * code.n if trellis.fold_shift
                                             else code.n))
    h = hashlib.sha256()
    for trellis in trellises:
        for op in trellis.schedule:
            if op[0] == "emit":
                _, shift, pattern, code_row = op
                k = code_row.size.bit_length() - 1
                h.update(f"{shift},{pattern},{code_row.dtype.str}:".encode())
                h.update(code_row.reshape((2,) * k).T.tobytes())
    assert h.hexdigest() == EMIT_DIGESTS[spec]


@pytest.mark.parametrize("family,variant", sorted(SUPPORTED))
def test_state_profile_equals_built_trellis(family, variant):
    """The profile that ``_schedule`` reads from the rows' spans equals the
    state bits at every emit of the ops it builds, and the rows' sizes sum
    to its summed states; the peak sizes the row buffer they are built in.
    Decoder rows and qubit 0's bit and word distance rows, R=1 to 4."""
    for radius in range(1, 5):
        for s in coset_sectors(build_code(family, variant, radius)):
            stabs = list(s.stabilizers)
            logicals = [r for rows in s.logicals for r in rows]
            others = [r for rows in s.logicals[1:] for r in rows]
            for gens in (stabs + logicals, stabs, stabs + others):
                *_, profile, ops = _schedule(gens, s.width, s.fold, 1 << 22)
                buf = np.empty(1 << max(profile, default=0), dtype=np.uint8)
                bits = states = 0
                built = []
                for op in ops(buf):
                    if op[0] == "branch":
                        bits += 1
                    elif op[0] == "merge":
                        bits -= 1
                    else:
                        assert op[3].size == 1 << bits
                        built.append(bits)
                        states += op[3].size
                assert built == profile
                assert states == sum(1 << b for b in profile)


# -- error sectors -------------------------------------------------------------


def test_coset_sectors_steane_self_dual():
    """Every heptagon/max sector pair is one coset problem, which the
    decoder and the distances solve once; a pentagon/reduced pair is not."""
    z, x = coset_sectors(build_code("heptagon", "max", 1))
    assert (z.name, z.offset, x.name, x.offset) == ("z", 7, "x", 0)
    assert eliminate(z.checks)[0] == eliminate(x.checks)[0]
    assert len(z.checks) == len(x.checks) == 3
    assert len(z.logicals) == len(x.logicals) == 1
    for radius in (1, 2, 3):
        code = build_code("heptagon", "max", radius)
        z, x = coset_sectors(code)
        assert (z.offset, x.offset) == (code.n, 0)
        assert (z.checks, z.stabilizers, z.logicals) \
            == (x.checks, x.stabilizers, x.logicals)
    z, x = coset_sectors(build_code("pentagon", "reduced", 2))
    assert z.checks != x.checks and z.stabilizers != x.stabilizers
    assert z.logicals != x.logicals


@pytest.mark.parametrize("family,variant,radius,shared", [
    ("heptagon", "max", 1, True),
    ("heptagon", "max", 2, True),
    ("heptagon", "max", 3, True),
    ("pentagon", "reduced", 2, False),
    ("pentagon", "reduced", 3, False),
    ("heptagon", "zero", 2, False),
])
def test_decoder_builds_each_distinct_sector_once(family, variant, radius,
                                                  shared):
    """Check columns, ISF and trellis: one of each for both sectors of a
    self-dual code, one per sector otherwise."""
    dec = CodeDecoder(build_code(family, variant, radius))
    assert [s.name for *_, s in dec._sectors] == ["z", "x"]
    for part in range(3):  # check columns, ISF units, trellis
        objects = {id(entry[part]) for entry in dec._sectors}
        assert len(objects) == (1 if shared else 2)
    assert (dec.fx is dec.fz) == shared


def test_coset_sectors_scf_dimensions():
    for s in coset_sectors(build_code("pentagon", "max", 1, "scf")):
        assert (len(s.checks), len(s.stabilizers), s.width) == (2, 2, 5)


def test_coset_sectors_five_qubit_is_one_pauli_sector():
    code = build_code("pentagon", "max", 1, "five_qubit")
    [s] = coset_sectors(code)
    assert (s.name, s.offset, s.width, s.fold) == ("pauli", 0, 10, 5)
    assert len(s.checks) == len(s.stabilizers) == 4
    lq = code.logicals[0]  # X-bar then Z-bar, packed x || z
    assert s.logicals == [[lq.x_rep.x | lq.x_rep.z << 5,
                           lq.z_rep.x | lq.z_rep.z << 5]]


def test_coset_sectors_rejects_impure_logicals():
    # X-bar times a Z-type stabilizer is still a valid representative of a
    # CSS code, but no longer lies in one sector.
    code = build_code("heptagon", "max", 1)
    z_stab = next(s for s in code.stabilizers if s.x == 0)
    lq = code.logicals[0]
    mixed = type(lq)(lq.id, lq.layer, lq.x_rep.mul(z_stab), lq.z_rep)
    impure = type(code)(code.family, code.variant, code.radius,
                        code.seed_name, code.n, code.stabilizers, [mixed],
                        code.css)
    impure.validate()
    with pytest.raises(ValueError, match="sector-pure"):
        coset_sectors(impure)


@pytest.mark.parametrize("family,variant", sorted(SUPPORTED))
def test_packed_syndrome_bits_are_stabilizer_parities(family, variant):
    # Bit i of the packed syndrome is the parity with stabilizer i of the
    # saved code, so the sectors' checks, in order, are its stabilizers.
    rng = random.Random(7)
    for radius in (1, 2):
        code = build_code(family, variant, radius)
        dec = CodeDecoder(code)
        for _ in range(20):
            err = PauliVector(code.n, rng.getrandbits(code.n),
                              rng.getrandbits(code.n))
            y = sum(symplectic_product(err, s) << i
                    for i, s in enumerate(code.stabilizers))
            assert dec.split_syndrome(y) == dec.syndrome(err)
        with pytest.raises(ValueError, match="longer"):
            dec.split_syndrome(1 << len(code.stabilizers))


# -- decode and logical effects ------------------------------------------------


@pytest.fixture(scope="module")
def steane():
    code = build_code("heptagon", "max", 1)
    return code, CodeDecoder(code)


def test_decode_zero_syndrome_identity(steane):
    code, dec = steane
    corr, cert = dec.decode((0, 0))
    assert corr == PauliVector(7) and cert


def test_decode_corrects_single_z(steane):
    code, dec = steane
    err = PauliVector.from_string("IZIIIII")
    corr, _ = dec.decode(dec.syndrome(err))
    net = err.mul(corr)
    assert dec.net_logical_effect(net) == ["I"]


def test_decode_checks_trellis_weight(steane, monkeypatch):
    code, dec = steane
    trellis = dec._sectors[0][2]  # Z-error sector
    real = trellis.minimize

    def off_by_one(target):
        w, combo = real(target)
        return w + 1, combo

    monkeypatch.setattr(trellis, "minimize", off_by_one)
    err = PauliVector.from_string("IZIIIII")
    with pytest.raises(AssertionError, match="trellis weight"):
        dec.decode(dec.syndrome(err))


@pytest.mark.parametrize("spec,syndromes", [
    # CSS: one syndrome per sector, each below 2^(that sector's checks)
    (("heptagon", "max", 1), [(1 << 3, 0), (0, 1 << 3), (1 << 40, 0),
                              (-1, 0), (0, -1)]),
    # joint: one syndrome below 2^(n - k)
    (("pentagon", "zero", 1), [1 << 4, -1]),
])
def test_decode_rejects_out_of_range_syndromes(spec, syndromes):
    dec = CodeDecoder(build_code(*spec))
    for y in syndromes:
        with pytest.raises(ValueError, match="syndrome"):
            dec.decode(y)


def test_five_qubit_all_single_paulis_corrected():
    code = build_code("pentagon", "max", 1, "five_qubit")
    dec = CodeDecoder(code)
    for q in range(5):
        for kind in "XYZ":
            err = PauliVector.single(5, q, kind)
            corr, cert = dec.decode(dec.syndrome(err))
            assert cert
            net = err.mul(corr)
            assert dec.net_logical_effect(net) == ["I"]


def test_net_logical_effect_cases(steane):
    code, dec = steane
    assert dec.net_logical_effect(PauliVector(7)) == ["I"]
    assert dec.net_logical_effect(code.logicals[0].x_rep) == ["X"]
    assert dec.net_logical_effect(code.logicals[0].z_rep) == ["Z"]
    y_like = code.logicals[0].x_rep.mul(code.logicals[0].z_rep)
    assert dec.net_logical_effect(y_like) == ["Y"]
    assert dec.net_logical_effect(code.stabilizers[0]) == ["I"]
    assert dec.net_logical_effect(PauliVector.single(7, 0, "X")) == "detectable"


@pytest.mark.parametrize("family,variant,seed_name", [
    ("heptagon", "max", None),  # CSS, k=8
    ("pentagon", "max", "five_qubit"),  # non-CSS, k=11
])
def test_net_logical_effect_reads_known_products(family, variant, seed_name):
    code = build_code(family, variant, 2, seed_name)
    dec = CodeDecoder(code)
    rng = random.Random(8)
    for _ in range(40):
        v = PauliVector(code.n)
        for s in code.stabilizers:
            if rng.getrandbits(1):
                v = v.mul(s)
        want = []
        for lq in code.logicals:
            a, b = rng.getrandbits(1), rng.getrandbits(1)
            if a:
                v = v.mul(lq.x_rep)
            if b:
                v = v.mul(lq.z_rep)
            want.append("IXZY"[a + 2 * b])
        assert dec.net_logical_effect(v) == want


def test_decode_syndrome_preserved_on_random_errors():
    rng = random.Random(2)
    code = build_code("pentagon", "reduced", 2)
    dec = CodeDecoder(code)
    for _ in range(50):
        err = PauliVector(code.n, rng.getrandbits(code.n),
                          rng.getrandbits(code.n))
        syn = dec.syndrome(err)
        corr, cert = dec.decode(syn)
        assert cert
        assert dec.syndrome(corr) == syn
        assert dec.syndrome(err.mul(corr)) == (0, 0)


def test_trellis_and_search_decoders_agree_on_weights():
    rng = random.Random(3)
    code = build_code("heptagon", "max", 2)
    dec = CodeDecoder(code)
    for _ in range(25):
        err = PauliVector(code.n, rng.getrandbits(code.n),
                          rng.getrandbits(code.n))
        yx, yz = dec.syndrome(err)
        corr, _ = dec.decode((yx, yz))
        oracle_z = branch_and_bound_min(DecodeProblem(
            pure_error(dec.fx, yx), dec.z_gens, code.n))
        oracle_x = branch_and_bound_min(DecodeProblem(
            pure_error(dec.fz, yz), dec.x_gens, code.n))
        assert corr.z.bit_count() == oracle_z
        assert corr.x.bit_count() == oracle_x
