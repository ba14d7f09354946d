"""GF(2) linear algebra and binary symplectic representation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocode.gf2 import (
    Gf2Matrix,
    PauliVector,
    eliminate,
    kernel,
    parse_tableau,
    rank,
    restrict,
    right_inverse,
    row_combination,
    symplectic_gram,
    symplectic_product,
)

# X-check rows of the single-tile Steane code (bulk column dropped);
# rank 3 verified by hand elimination: pivots in columns 1, 2, 4.
STEANE_X_CHECKS = ["1100011", "0111001", "0001111"]


def P(s):
    return PauliVector.from_string(s)


def bits(*rows):
    """Matrix from strings of 0/1, column 0 first."""
    return Gf2Matrix([int(r[::-1], 2) for r in rows], len(rows[0]))


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
    rows, _, piv = eliminate([1, 2, 4], 3)
    assert rows == [1, 2, 4] and piv == [0, 1, 2]


def test_rref_zero():
    rows, _, piv = eliminate([0, 0], 4)
    assert piv == [] and rows == [0, 0]


def test_rref_steane_x_checks_rank3():
    m = bits(*STEANE_X_CHECKS)
    assert eliminate(m.rows, m.cols)[2] == [0, 1, 3]


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        R1 = eliminate([rng.getrandbits(9) for _ in range(6)], 9)[0]
        assert eliminate(R1, 9)[0] == R1


def test_right_inverse_identity():
    m = bits("100", "010", "001")
    f = right_inverse(m)
    assert f.rows == [1, 2, 4] and f.cols == 3


def test_right_inverse_small():
    s = bits("110", "011")
    f = right_inverse(s)
    cols = f.transpose().rows
    assert [s.mul_vec(c) for c in cols] == [1 << j for j in range(s.n_rows)]


def test_right_inverse_steane():
    s = bits(*STEANE_X_CHECKS)
    f = right_inverse(s)
    cols = f.transpose().rows
    assert [s.mul_vec(c) for c in cols] == [1 << j for j in range(s.n_rows)]


def test_right_inverse_dependent_rows():
    s = bits("11", "11")
    with pytest.raises(ValueError):
        right_inverse(s)


def test_right_inverse_random_property():
    rng = random.Random(3)
    done = 0
    while done < 30:
        rows = [rng.getrandbits(12) | (1 << rng.randrange(12)) for _ in range(5)]
        s = Gf2Matrix(rows, 12)
        if rank(s) < 5:
            continue
        f = right_inverse(s)
        cols = f.transpose().rows
        assert [s.mul_vec(c) for c in cols] == [1 << j for j in range(5)]
        done += 1


def test_kernel_examples():
    assert kernel(bits("10", "01")) == []
    assert kernel(bits("11")) == [0b11]
    assert len(kernel(Gf2Matrix([0], 3))) == 3


def test_rank_plus_kernel_dimension():
    rng = random.Random(23)
    for _ in range(100):
        cols = rng.randrange(1, 14)
        m = Gf2Matrix([rng.getrandbits(cols) for _ in range(rng.randrange(1, 10))], cols)
        assert rank(m) == cols - len(kernel(m))


def test_kernel_vectors_annihilate():
    rng = random.Random(29)
    for _ in range(50):
        m = Gf2Matrix([rng.getrandbits(11) for _ in range(6)], 11)
        for v in kernel(m):
            assert m.mul_vec(v) == 0


def test_row_combination_matches_membership():
    rng = random.Random(31)
    rows = [rng.getrandbits(16) for _ in range(8)]
    for _ in range(100):
        mask = rng.getrandbits(8)
        v = 0
        for i in range(8):
            if (mask >> i) & 1:
                v ^= rows[i]
        combo = row_combination(rows, 16, v)
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


def leftmost_column_basis(M: Gf2Matrix) -> list:
    """Columns taken left to right whenever they leave the span of the
    columns before them."""
    basis, spanned = [], {0}
    for j in range(M.cols):
        col = sum(((r >> j) & 1) << i for i, r in enumerate(M.rows))
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
    """Small matrices with empty, zero and dependent rows mixed in."""
    cols = draw(st.integers(0, max_cols))
    vec = st.integers(0, (1 << cols) - 1)
    rows = draw(st.lists(vec, max_size=max_rows))
    if draw(st.booleans()):
        rows.append(0)
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        rows.append(a ^ b)
    return Gf2Matrix(draw(st.permutations(rows)), cols)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_brute_force_span_size(M):
    assert 1 << rank(M) == len(span(M.rows))
    assert eliminate(M.rows, M.cols)[2] == leftmost_column_basis(M)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_vector_is_one_free_column_plus_pivots(M):
    basis = leftmost_column_basis(M)
    free = [j for j in range(M.cols) if j not in basis]
    K = kernel(M)
    assert [v & ~mask_of(basis) for v in K] == [1 << j for j in free]
    assert span(K) == {x for x in range(1 << M.cols) if M.mul_vec(x) == 0}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_right_inverse_lives_on_leftmost_column_basis(S):
    if len(span(S.rows)) < 1 << S.n_rows:
        with pytest.raises(ValueError):
            right_inverse(S)
        return
    F = right_inverse(S)
    basis = leftmost_column_basis(S)
    assert all(F.rows[i] == 0 for i in range(S.cols) if i not in basis)
    for j, col in enumerate(F.transpose().rows):
        assert S.mul_vec(col) == 1 << j


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 255))
def test_row_combination_matches_brute_force(M, v):
    v &= (1 << M.cols) - 1
    combos = [c for c in range(1 << M.n_rows) if xor_of(M.rows, c) == v]
    got = row_combination(M.rows, M.cols, v)
    if not combos:
        assert got is None
    elif len(span(M.rows)) == 1 << M.n_rows:
        assert combos == [got]
    else:
        assert got in combos


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
