"""Bit-packed GF(2) linear algebra and the binary symplectic Pauli representation.

Bit-vectors are plain Python integers (bit ``i`` is qubit/column ``i``), so
every row operation is a single word-parallel XOR and weights come from
``int.bit_count()``.  A matrix is either its packed rows and a width, as
elimination takes it, or its list of columns, as a product takes it:
``gather_bits(v, columns)`` is M.v, and ``transpose`` turns one form into
the other.  An n-qubit Pauli operator, up to phase, is a pair of such
vectors: the X-part and the Z-part.
"""

from __future__ import annotations


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
    """XOR of masks[c] over the set bits c of v: with ``masks`` the columns
    of a matrix, its product with v over GF(2)."""
    out = 0
    while v:
        low = v & -v
        out ^= masks[low.bit_length() - 1]
        v ^= low
    return out


def transpose(rows: list, cols: int) -> list[int]:
    """The columns of the matrix with packed ``rows`` of width ``cols``:
    bit i of column j is bit j of row i."""
    out = [0] * cols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
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
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1


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
    xs = transpose([g.x for g in gens], n)
    zs = transpose([g.z for g in gens], n)
    return [gather_bits(g.x, zs) ^ gather_bits(g.z, xs) for g in gens]


def echelon(rows):
    """The independent rows, inserted in input order by their lowest set
    bit: a row whose lowest bit is taken is XORed with its owner until its
    lowest bit is free (it is kept) or it vanishes (it is dropped).

    Returns ``(rows, combos)``: the kept rows, each with a distinct lowest
    set bit, and for each the mask of input rows XORed into it.  The kept
    rows span the input rows and number its rank.
    """
    by_low = {}
    kept, combos = [], []
    for i, r in enumerate(rows):
        cmb = 1 << i
        while r:
            j = by_low.get(r & -r)
            if j is None:
                by_low[r & -r] = len(kept)
                kept.append(r)
                combos.append(cmb)
                break
            r ^= kept[j]
            cmb ^= combos[j]
    return kept, combos


def eliminate(rows: list):
    """Reduced row echelon form over GF(2), from ``echelon``.

    The kept rows are sorted by their lowest set bit, the pivot; then,
    highest pivot first, each pivot is cleared from the rows above it.
    The reduced rows and pivots depend only on the row space: pivots are
    the leftmost column basis.

    Returns ``(rows, combos, pivots)``: the reduced rows, each one's mask
    of input rows, and the pivot column of each of the first
    ``len(pivots)`` rows.  One zero row, with combo 0, follows per
    dependent input row.
    """
    kept = sorted(zip(*echelon(rows)), key=lambda rc: rc[0] & -rc[0])
    out = [r for r, _ in kept]
    combos = [c for _, c in kept]
    pivots = [(r & -r).bit_length() - 1 for r in out]
    at, done = {}, 0  # pivot bit -> reduced row, and the mask of those bits
    for k in reversed(range(len(out))):
        hits = out[k] & done
        while hits:
            low = hits & -hits
            hits ^= low
            out[k] ^= out[at[low]]
            combos[k] ^= combos[at[low]]
        at[out[k] & -out[k]] = k
        done |= out[k] & -out[k]
    pad = [0] * (len(rows) - len(out))
    return out + pad, combos + pad, pivots


def rank(rows) -> int:
    return len(echelon(rows)[0])


def _null_basis(rows: list, pivots: list, cols: int) -> list[int]:
    """Kernel basis from reduced rows: one vector per free column, that
    column plus the pivot columns whose rows contain it."""
    in_rows = transpose(rows, cols)
    pivot_bits = [1 << pc for pc in pivots]
    pivot_mask = sum(pivot_bits)
    return [(1 << c) | gather_bits(in_rows[c], pivot_bits)
            for c in range(cols) if not (pivot_mask >> c) & 1]


def kernel(rows: list, cols: int) -> list[int]:
    """Basis of the right null space {x : S.x = 0} of the matrix S with
    packed ``rows`` of width ``cols``, as packed vectors."""
    reduced, _, pivots = eliminate(rows)
    return _null_basis(reduced, pivots, cols)


def _scatter_inverse(rows: list, cols: int, combos: list, pivots: list) -> list:
    """The right inverse of S from its elimination.

    The combos hold T with T.S in pivot form; unit j scatters column j of
    T onto the pivot positions, so it solves S.x = e_j with every free
    variable 0.  Each unit is checked against S's columns.
    """
    m = len(rows)
    if len(pivots) < m:
        raise ValueError("no right inverse: rows are GF(2)-dependent")
    scattered = [0] * cols
    for a, pc in zip(combos, pivots):
        scattered[pc] = a
    units = transpose(scattered, m)
    S = transpose(rows, cols)
    for j, unit in enumerate(units):
        if gather_bits(unit, S) != 1 << j:
            raise AssertionError("right_inverse verification failed")
    return units


def right_inverse(rows: list, cols: int) -> list[int]:
    """One vector per row of the matrix S with packed ``rows`` of width
    ``cols``: ``units[j]`` solves S.x = e_j, so ``gather_bits(y, units)``
    solves S.x = y.  Raises ValueError when the rows are GF(2)-dependent.
    """
    _, combos, pivots = eliminate(rows)
    return _scatter_inverse(rows, cols, combos, pivots)


def kernel_and_right_inverse(rows: list, cols: int):
    """``(kernel(rows, cols), right_inverse(rows, cols))`` from one
    elimination."""
    reduced, combos, pivots = eliminate(rows)
    return (_null_basis(reduced, pivots, cols),
            _scatter_inverse(rows, cols, combos, pivots))


def row_combination(rows: list, v: int):
    """Mask c with the XOR of rows[i] over the set bits of c equal to v,
    or None when v is outside the row space.  v walks down ``echelon``'s
    rows by its lowest set bit."""
    by_low = {r & -r: (r, c) for r, c in zip(*echelon(rows))}
    c = 0
    while v:
        rc = by_low.get(v & -v)
        if rc is None:
            return None
        v ^= rc[0]
        c ^= rc[1]
    return c


def project(gens: list, ops: list) -> None:
    """Measure the commuting Paulis ``ops`` on the stabilizer state
    ``gens`` and drop their rows, in place: no generator is left acting on
    the ops' legs, whose all-zero columns the caller removes.

    One scan finds the rows that touch the legs; no other row changes.
    Each op replaces the first touching row that anticommutes with it, and
    the others are multiplied by that row (the Aaronson-Gottesman update);
    an op already in the group replaces the highest touching row of its
    decomposition.  Every other touching row is then multiplied by each op
    that holds the row's Pauli type at the op's lowest leg.
    """
    legs = 0
    for m in ops:
        legs |= m.x | m.z
    touch = [i for i, g in enumerate(gens) if (g.x | g.z) & legs]
    placed = []
    for m in ops:
        free = [i for i in touch if i not in placed]
        rows = [i for i in free if symplectic_product(m, gens[i])]
        if not rows:  # m is in the group: a row of its decomposition goes
            vecs = [g.x | (g.z << m.n) for g in gens]
            combo = row_combination(vecs, m.x | (m.z << m.n)) or 0
            rows = [i for i in free if (combo >> i) & 1][-1:]
            if not rows:
                raise AssertionError("op neither anticommutes nor decomposes")
        for i in rows[1:]:
            gens[i] = gens[i].mul(gens[rows[0]])
        gens[rows[0]] = m
        placed.append(rows[0])
    for i in touch:
        if i not in placed:
            g = gens[i]
            for m in ops:
                low = (m.x | m.z) & -(m.x | m.z)
                if (g.x if m.x & low else g.z) & low:
                    g = g.mul(m)
            if (g.x | g.z) & legs:
                raise AssertionError("legs not cleared by projection")
            gens[i] = g
    for i in sorted(placed, reverse=True):
        del gens[i]


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

