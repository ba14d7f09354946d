"""Bit-packed GF(2) linear algebra and the binary symplectic Pauli representation.

Bit-vectors are plain Python integers (bit ``i`` is qubit/column ``i``), so
every row operation is a single word-parallel XOR and weights come from
``int.bit_count()``.  An n-qubit Pauli operator, up to phase, is a pair of
such vectors: the X-part and the Z-part.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def parity(v: int) -> int:
    return v.bit_count() & 1


class PauliVector:
    """An n-qubit Pauli operator (phase ignored) as an (x, z) bit-vector pair.

    Qubit i carries X when bit i of ``x`` is set, Z when bit i of ``z`` is
    set, and Y when both are set.
    """

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int = 0, z: int = 0):
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("x/z bits outside qubit range")
        self.n = n
        self.x = x
        self.z = z

    @classmethod
    def from_string(cls, s: str) -> "PauliVector":
        """Parse a tableau string of I/X/Y/Z characters (qubit 0 first)."""
        x = z = 0
        for i, c in enumerate(s.strip().upper()):
            if c == "X":
                x |= 1 << i
            elif c == "Z":
                z |= 1 << i
            elif c == "Y":
                x |= 1 << i
                z |= 1 << i
            elif c != "I":
                raise ValueError(f"invalid Pauli character {c!r}")
        return cls(len(s.strip()), x, z)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliVector":
        """A single-qubit X, Y or Z on the given qubit."""
        if not 0 <= qubit < n or kind not in ("X", "Y", "Z"):
            raise ValueError(f"no single-qubit {kind!r} on qubit {qubit} of {n}")
        return cls.from_string("I" * qubit + kind + "I" * (n - qubit - 1))

    def to_string(self) -> str:
        out = []
        for i in range(self.n):
            xi = (self.x >> i) & 1
            zi = (self.z >> i) & 1
            out.append("IXZY"[xi + 2 * zi])
        return "".join(out)

    @property
    def support(self) -> int:
        """Bit mask of qubits acted on non-trivially."""
        return self.x | self.z

    def weight(self) -> int:
        """Pauli weight: number of qubits with a non-identity factor."""
        return (self.x | self.z).bit_count()

    def mul(self, other: "PauliVector") -> "PauliVector":
        """Product of two Pauli operators, phase discarded."""
        if self.n != other.n:
            raise ValueError("length mismatch")
        return PauliVector(self.n, self.x ^ other.x, self.z ^ other.z)

    def __eq__(self, other):
        return (
            isinstance(other, PauliVector)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.n, self.x, self.z))

    def __repr__(self):
        return f"PauliVector({self.to_string()!r})"


def gather_bits(v: int, masks: list) -> int:
    """XOR of masks[c] over the set bits c of v."""
    out = 0
    while v:
        low = v & -v
        out ^= masks[low.bit_length() - 1]
        v ^= low
    return out


def restrict(paulis, cols) -> list[PauliVector]:
    """The operators on the listed qubits only; qubit i is qubit cols[i].

    The column map is built once and each operator's set bits are walked
    through it, so an operator costs its weight, not ``len(cols)`` shifts.
    """
    paulis = list(paulis)
    n = paulis[0].n if paulis else 0
    if any(p.n != n for p in paulis):
        raise ValueError("length mismatch")
    to = [0] * n  # qubit -> mask of the output qubits it lands on
    for i, c in enumerate(cols):
        if c < n:
            to[c] |= 1 << i
    return [PauliVector(len(cols), gather_bits(p.x, to), gather_bits(p.z, to))
            for p in paulis]


def symplectic_product(a: PauliVector, b: PauliVector) -> int:
    """Symplectic inner product mod 2; 0 iff the two operators commute."""
    if a.n != b.n:
        raise ValueError("length mismatch")
    return parity(a.x & b.z) ^ parity(a.z & b.x)


def symplectic_gram(gens) -> list[int]:
    """Packed rows of the symplectic Gram matrix: bit j of row i is
    ``symplectic_product(gens[i], gens[j])``.

    Row i XORs, over the qubits where gens[i] has an X (Z) factor, the
    mask of the operators with a Z (X) factor there: one XOR per factor,
    not one product per pair.
    """
    if any(g.n != gens[0].n for g in gens):
        raise ValueError("length mismatch")
    n = gens[0].n if gens else 0
    xs = Gf2Matrix([g.x for g in gens], n).transpose().rows
    zs = Gf2Matrix([g.z for g in gens], n).transpose().rows
    return [gather_bits(g.x, zs) ^ gather_bits(g.z, xs) for g in gens]


@dataclass
class Gf2Matrix:
    """Dense GF(2) matrix with word-packed rows (row-major integers)."""

    rows: list = field(default_factory=list)
    cols: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product over GF(2); v is a packed column vector."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= parity(r & v) << i
        return out

    def transpose(self) -> "Gf2Matrix":
        rows = [0] * self.cols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                rows[low.bit_length() - 1] |= bit
                r ^= low
        return Gf2Matrix(rows, self.n_rows)


def eliminate(rows, cols: int, aug=None):
    """Reduced row elimination over GF(2), carrying an augment along each row.

    ``rows`` are packed rows of width ``cols``; ``aug`` is a parallel list
    of packed vectors to which every row swap and row addition is applied
    as well (an identity augment records each reduced row as a combination
    of the input rows; without one, zeros are carried).  Pivot rule:
    columns in increasing order, and the first row at or below the current
    rank with that column set becomes the pivot.

    Returns ``(rows, aug, pivots)``: the reduced rows, their augments, and
    the pivot column of each of the first ``len(pivots)`` rows.  The
    remaining rows are zero.
    """
    rows = list(rows)
    m = len(rows)
    aug = [0] * m if aug is None else list(aug)
    pivots = []
    for col in range(cols):
        rank_ = len(pivots)
        if rank_ == m:
            break
        bit = 1 << col
        pivot = None
        for r in range(rank_, m):
            if rows[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        aug[rank_], aug[pivot] = aug[pivot], aug[rank_]
        pr, pa = rows[rank_], aug[rank_]
        for r in range(m):
            if r != rank_ and rows[r] & bit:
                rows[r] ^= pr
                aug[r] ^= pa
        pivots.append(col)
    return rows, aug, pivots


def rank(M: Gf2Matrix) -> int:
    return len(eliminate(M.rows, M.cols)[2])


def _null_basis(rows: list, pivots: list, cols: int) -> list[int]:
    """Kernel basis from reduced rows: one vector per free column, that
    column plus the pivot columns whose rows contain it."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = 1 << fc
        for r, pc in zip(rows, pivots):
            if (r >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def kernel(M: Gf2Matrix) -> list[int]:
    """Basis of the right null space {x : M.x = 0}, as packed vectors."""
    rows, _, pivots = eliminate(M.rows, M.cols)
    return _null_basis(rows, pivots, M.cols)


def _scatter_inverse(S: Gf2Matrix, aug: list, pivots: list) -> Gf2Matrix:
    """The right inverse of S from its identity-augmented elimination.

    The augment holds T with T.S in pivot form; column j of F scatters
    column j of T onto the pivot positions, so it solves S.x = e_j with
    every free variable 0.
    """
    m = S.n_rows
    if len(pivots) < m:
        raise ValueError("no right inverse: rows are GF(2)-dependent")
    rows = [0] * S.cols
    for a, pc in zip(aug, pivots):
        rows[pc] = a
    F = Gf2Matrix(rows, m)
    for j, col_j in enumerate(F.transpose().rows):
        if S.mul_vec(col_j) != 1 << j:
            raise AssertionError("right_inverse verification failed")
    return F


def right_inverse(S: Gf2Matrix) -> Gf2Matrix:
    """A matrix F with S.F = I, if S has full row rank.

    Column j of F is a vector whose syndrome under S is the j-th unit
    vector.  Raises ValueError when the rows of S are GF(2)-dependent.
    """
    _, aug, pivots = eliminate(S.rows, S.cols,
                               [1 << i for i in range(S.n_rows)])
    return _scatter_inverse(S, aug, pivots)


def kernel_and_right_inverse(S: Gf2Matrix):
    """``(kernel(S), right_inverse(S))`` from one elimination."""
    rows, aug, pivots = eliminate(S.rows, S.cols,
                                  [1 << i for i in range(S.n_rows)])
    return _null_basis(rows, pivots, S.cols), _scatter_inverse(S, aug, pivots)


def row_combination(rows: list, cols: int, v: int):
    """Mask c with the XOR of rows[i] over the set bits of c equal to v,
    or None when v is outside the row space."""
    reduced, aug, pivots = eliminate(rows, cols,
                                     [1 << i for i in range(len(rows))])
    c = 0
    for r, a, pc in zip(reduced, aug, pivots):
        if (v >> pc) & 1:
            v ^= r
            c ^= a
    return None if v else c


def swap_in(gens: list, m: PauliVector, anti: list, forbidden: set) -> int:
    """Make the Pauli m one of the generators ``gens`` (in place) and
    return its row.

    ``anti`` lists the rows that anticommute with m.  When one of them is
    outside ``forbidden`` this is the standard measurement update: the
    first such row becomes m and the others are multiplied by it.  When
    none is, m already lies in the group; its decomposition over the
    generators picks the highest participating row outside ``forbidden``
    to be replaced by m.
    """
    anti = [i for i in anti if i not in forbidden]
    if anti:
        first = anti[0]
        g0 = gens[first]
        for i in anti[1:]:
            gens[i] = gens[i].mul(g0)
        gens[first] = m
        return first
    width = m.n
    rows = [g.x | (g.z << width) for g in gens]
    combo = row_combination(rows, 2 * width, m.x | (m.z << width))
    if combo is None:
        raise AssertionError("operator neither anticommutes nor decomposes")
    while combo:
        i = combo.bit_length() - 1
        if i not in forbidden:
            gens[i] = m
            return i
        combo ^= 1 << i
    raise AssertionError("no replaceable generator for measurement")


def parse_tableau(text: str) -> list[PauliVector]:
    """Read generators from tableau text: one I/X/Y/Z string per line.

    Blank lines and '#' comment lines are skipped.  All generators must act
    on the same number of qubits.
    """
    gens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        gens.append(PauliVector.from_string(line))
    if gens and any(g.n != gens[0].n for g in gens):
        raise ValueError("tableau lines have differing lengths")
    return gens

