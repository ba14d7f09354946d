"""GF(2) linear algebra and binary symplectic representation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocode.gf2 import (
    PauliVector,
    echelon,
    eliminate,
    gather_bits,
    kernel,
    parse_tableau,
    project,
    rank,
    restrict,
    right_inverse,
    row_combination,
    symplectic_gram,
    symplectic_product,
    transpose,
)
from oracles import column_scan_eliminate, row_parities

# X-check rows of the single-tile Steane code (bulk column dropped);
# rank 3 verified by hand elimination: pivots in columns 1, 2, 4.
STEANE_X_CHECKS = ["1100011", "0111001", "0001111"]


def P(s):
    return PauliVector.from_string(s)


def bits(*rows):
    """(packed rows, width) from strings of 0/1, column 0 first."""
    return [int(r[::-1], 2) for r in rows], len(rows[0])


def test_symplectic_product_examples():
    assert symplectic_product(P("X"), P("Z")) == 1
    assert symplectic_product(P("XI"), P("IZ")) == 0
    for s in ("X", "ZZ", "XYZI", "YYXZ"):
        assert symplectic_product(P(s), P(s)) == 0


def test_symplectic_product_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_product(P("X"), P("XX"))


def test_symplectic_bilinearity():
    rng = random.Random(11)
    n = 13
    for _ in range(200):
        a = PauliVector(n, rng.getrandbits(n), rng.getrandbits(n))
        b = PauliVector(n, rng.getrandbits(n), rng.getrandbits(n))
        c = PauliVector(n, rng.getrandbits(n), rng.getrandbits(n))
        lhs = symplectic_product(a.mul(b), c)
        rhs = symplectic_product(a, c) ^ symplectic_product(b, c)
        assert lhs == rhs


@st.composite
def paulis(draw, n):
    mask = st.integers(0, (1 << n) - 1)
    return PauliVector(n, draw(mask), draw(mask))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(paulis(n), max_size=7)))
def test_symplectic_gram_is_every_pairwise_product(gens):
    gram = symplectic_gram(gens)
    assert len(gram) == len(gens)
    for i, a in enumerate(gens):
        assert gram[i] == sum(symplectic_product(a, b) << j
                              for j, b in enumerate(gens))


def test_symplectic_gram_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_gram([P("XX"), P("ZZZ")])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(paulis(n), max_size=4), st.lists(st.integers(0, n + 2), max_size=10))))
def test_restrict_matches_per_column_definition(case):
    # columns may repeat and may lie past the last qubit (identity there)
    ps, cols = case
    out = restrict(ps, cols)
    assert len(out) == len(ps)
    for p, r in zip(ps, out):
        assert r.n == len(cols)
        for i, c in enumerate(cols):
            assert (r.x >> i) & 1 == (p.x >> c) & 1
            assert (r.z >> i) & 1 == (p.z >> c) & 1


def test_restrict_length_mismatch():
    with pytest.raises(ValueError):
        restrict([P("XX"), P("ZZZ")], [0])


def test_pauli_weights_and_strings():
    p = P("IXYZ")
    assert p.weight() == 3
    assert p.to_string() == "IXYZ"
    assert P("XX").mul(P("XZ")).to_string() == "IY"


def test_single_qubit_pauli():
    assert PauliVector.single(5, 2, "Y").to_string() == "IIYII"
    assert PauliVector.single(5, 4, "Z").to_string() == "IIIIZ"
    for qubit, kind in ((7, "X"), (5, "X"), (-1, "X"), (2, "XY"), (2, "I"),
                        (2, "x"), (2, "")):
        with pytest.raises(ValueError):
            PauliVector.single(5, qubit, kind)


def test_rref_identity():
    rows, _, piv = eliminate([1, 2, 4])
    assert rows == [1, 2, 4] and piv == [0, 1, 2]


def test_rref_zero():
    rows, _, piv = eliminate([0, 0])
    assert piv == [] and rows == [0, 0]


def test_rref_steane_x_checks_rank3():
    assert eliminate(bits(*STEANE_X_CHECKS)[0])[2] == [0, 1, 3]


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        R1 = eliminate([rng.getrandbits(9) for _ in range(6)])[0]
        assert eliminate(R1)[0] == R1


def test_right_inverse_identity():
    assert right_inverse(*bits("100", "010", "001")) == [1, 2, 4]


def test_right_inverse_small():
    rows, cols = bits("110", "011")
    units = right_inverse(rows, cols)
    assert [row_parities(rows, u) for u in units] == [1, 2]


def test_right_inverse_steane():
    rows, cols = bits(*STEANE_X_CHECKS)
    units = right_inverse(rows, cols)
    assert [row_parities(rows, u) for u in units] == [1, 2, 4]


def test_right_inverse_dependent_rows():
    with pytest.raises(ValueError):
        right_inverse(*bits("11", "11"))


def test_right_inverse_random_property():
    rng = random.Random(3)
    done = 0
    while done < 30:
        rows = [rng.getrandbits(12) | (1 << rng.randrange(12)) for _ in range(5)]
        if rank(rows) < 5:
            continue
        units = right_inverse(rows, 12)
        assert [row_parities(rows, u) for u in units] == [1 << j for j in range(5)]
        done += 1


def test_kernel_examples():
    assert kernel(*bits("10", "01")) == []
    assert kernel(*bits("11")) == [0b11]
    assert len(kernel([0], 3)) == 3


def test_rank_plus_kernel_dimension():
    rng = random.Random(23)
    for _ in range(100):
        cols = rng.randrange(1, 14)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(1, 10))]
        assert rank(rows) == cols - len(kernel(rows, cols))


def test_kernel_vectors_annihilate():
    rng = random.Random(29)
    for _ in range(50):
        rows = [rng.getrandbits(11) for _ in range(6)]
        for v in kernel(rows, 11):
            assert row_parities(rows, v) == 0


def test_row_combination_matches_membership():
    rng = random.Random(31)
    rows = [rng.getrandbits(16) for _ in range(8)]
    for _ in range(100):
        mask = rng.getrandbits(8)
        v = 0
        for i in range(8):
            if (mask >> i) & 1:
                v ^= rows[i]
        combo = row_combination(rows, v)
        assert combo is not None
        w = 0
        for i in range(8):
            if (combo >> i) & 1:
                w ^= rows[i]
        assert w == v


# -- every elimination answer pinned by brute force ---------------------------
#
# Each answer below is unique once the rule is fixed, so these tests pin the
# pivot order without looking at the elimination loop.


def span(vectors) -> set:
    """Every XOR combination of the vectors."""
    out = {0}
    for v in vectors:
        out |= {u ^ v for u in out}
    return out


def leftmost_column_basis(M) -> list:
    """Columns taken left to right whenever they leave the span of the
    columns before them."""
    rows, cols = M
    basis, spanned = [], {0}
    for j in range(cols):
        col = sum(((r >> j) & 1) << i for i, r in enumerate(rows))
        if col not in spanned:
            basis.append(j)
            spanned |= {u ^ col for u in spanned}
    return basis


def xor_of(rows, c: int) -> int:
    """XOR of rows[i] over the set bits of c."""
    out = 0
    for i, r in enumerate(rows):
        if (c >> i) & 1:
            out ^= r
    return out


def mask_of(cols) -> int:
    return sum(1 << c for c in cols)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """Small (rows, width) matrices with empty, zero and dependent rows
    mixed in."""
    cols = draw(st.integers(0, max_cols))
    vec = st.integers(0, (1 << cols) - 1)
    rows = draw(st.lists(vec, max_size=max_rows))
    if draw(st.booleans()):
        rows.append(0)
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        rows.append(a ^ b)
    return draw(st.permutations(rows)), cols


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 255))
def test_product_over_columns_is_row_parities(M, v):
    rows, cols = M
    v &= (1 << cols) - 1
    assert gather_bits(v, transpose(rows, cols)) == row_parities(rows, v)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_brute_force_span_size(M):
    assert 1 << rank(M[0]) == len(span(M[0]))
    assert eliminate(M[0])[2] == leftmost_column_basis(M)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_eliminate_matches_column_scan_oracle(M):
    rows, cols = M
    got = eliminate(rows)
    want = column_scan_eliminate(rows, cols)
    assert got[0] == want[0] and got[2] == want[2]
    if len(span(rows)) == 1 << len(rows):  # independent: combos are unique
        assert got[1] == want[1]
    assert len(got[0]) == len(got[1]) == len(rows)
    assert [xor_of(rows, c) for c in got[1]] == got[0]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_echelon_keeps_a_basis_with_distinct_lowest_bits(M):
    rows, _ = M
    kept, combos = echelon(rows)
    lows = [r & -r for r in kept]
    assert 0 not in lows and len(set(lows)) == len(kept)
    assert span(kept) == span(rows)
    assert 1 << len(kept) == len(span(rows))
    assert [xor_of(rows, c) for c in combos] == kept


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_vector_is_one_free_column_plus_pivots(M):
    rows, cols = M
    basis = leftmost_column_basis(M)
    free = [j for j in range(cols) if j not in basis]
    K = kernel(rows, cols)
    assert [v & ~mask_of(basis) for v in K] == [1 << j for j in free]
    assert span(K) == {x for x in range(1 << cols)
                       if row_parities(rows, x) == 0}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_right_inverse_lives_on_leftmost_column_basis(S):
    rows, cols = S
    if len(span(rows)) < 1 << len(rows):
        with pytest.raises(ValueError):
            right_inverse(rows, cols)
        return
    units = right_inverse(rows, cols)
    off_basis = ~mask_of(leftmost_column_basis(S))
    assert all(u & off_basis == 0 for u in units)
    assert [row_parities(rows, u) for u in units] == \
        [1 << j for j in range(len(rows))]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 255))
def test_row_combination_matches_brute_force(M, v):
    rows, cols = M
    v &= (1 << cols) - 1
    combos = [c for c in range(1 << len(rows)) if xor_of(rows, c) == v]
    got = row_combination(rows, v)
    if not combos:
        assert got is None
    elif len(span(rows)) == 1 << len(rows):
        assert combos == [got]
    else:
        assert got in combos


@st.composite
def projections(draw):
    """A random stabilizer state on at most 6 legs and the ops of one
    ``project``: X_aX_b and Z_aZ_b, or a single Z_q.

    The state is Z on every leg put through random H, S and CNOT gates,
    then random row products.  Few gates leave an op in the group (no
    gates: Z_q, or Z_aZ_b; H on a and b: X_aX_b), so both measurement
    branches are drawn.
    """
    n = draw(st.integers(1, 6))
    gens = [PauliVector(n, 0, 1 << q) for q in range(n)]
    leg = st.integers(0, n - 1)
    gates = st.tuples(st.sampled_from("HSC"), leg, leg)
    for gate, q, t in draw(st.lists(gates, max_size=12)):
        bq, bt = 1 << q, 1 << t
        for i, g in enumerate(gens):
            x, z = g.x, g.z
            if gate == "H":
                x, z = x & ~bq | z & bq, z & ~bq | x & bq
            elif gate == "S":
                z ^= x & bq
            elif q != t:  # CNOT q -> t
                x ^= bt if x & bq else 0
                z ^= bq if z & bt else 0
            gens[i] = PauliVector(n, x, z)
    for i, j in draw(st.lists(st.tuples(leg, leg), max_size=6)):
        if i != j:
            gens[i] = gens[i].mul(gens[j])
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(leg, min_size=2, max_size=2, unique=True))
        mask = (1 << a) | (1 << b)
        return gens, [PauliVector(n, mask, 0), PauliVector(n, 0, mask)]
    return gens, [PauliVector.single(n, draw(leg), "Z")]


@settings(max_examples=300, deadline=None)
@given(projections())
def test_project_matches_brute_force(case):
    """``project`` then ``restrict`` spans what the brute force keeps: the
    elements of <gens, ops> acting as identity on the ops' legs, restricted
    to the other legs.  Rows off the legs are left as they were."""
    gens, ops = case
    n = gens[0].n
    legs = 0
    for m in ops:
        legs |= m.x | m.z
    rest = [q for q in range(n) if not (legs >> q) & 1]

    def packed(ps):
        return [p.x | (p.z << p.n) for p in ps]

    untouched = [g for g in gens if not (g.x | g.z) & legs]
    kept = [v for v in span(packed(gens + ops))
            if not (v | (v >> n)) & legs]
    expect = span(packed(restrict(
        [PauliVector(n, v & ((1 << n) - 1), v >> n) for v in kept], rest)))
    out = list(gens)
    project(out, ops)
    assert all(not (g.x | g.z) & legs for g in out)
    assert all(g in out for g in untouched)
    got = packed(restrict(out, rest))
    assert len(got) == len(rest) and span(got) == expect


def test_tableau_roundtrip():
    text = "# three generators\nXIZY\n\nIIII  # identity\nZZZZ\n"
    parsed = parse_tableau(text)
    assert parsed == [P("XIZY"), P("IIII"), P("ZZZZ")]
    assert [p.to_string() for p in parsed] == ["XIZY", "IIII", "ZZZZ"]


def test_tableau_rejects_ragged():
    with pytest.raises(ValueError):
        parse_tableau("XI\nXYZ\n")


def test_tableau_rejects_bad_char():
    with pytest.raises(ValueError):
        parse_tableau("XQ\n")
