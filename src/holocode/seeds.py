"""Catalog of seed-code tensors and isometry (perfect / block-perfect) checks.

A seed code is a small [[n, k]] stabilizer code presented as a stabilizer
*state* on n + k legs: the n physical legs plus one extra leg per logical
qubit, with the logical operators extended onto the extra legs.  The state
is the joint +1 eigenspace of its n + k commuting generators (phases are
never tracked).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import (
    PauliVector,
    project,
    rank,
    restrict,
    symplectic_gram,
)


@dataclass(frozen=True)
class SeedCode:
    """An ordered extended tableau on n + k legs.

    ``leg_order`` lists leg labels in the tensor's cyclic order; ``bulk``
    flags which of those legs are logical (bulk) legs.  Generators act on
    legs in ``leg_order`` position order.
    """

    name: str
    leg_order: tuple
    bulk: tuple  # booleans, parallel to leg_order
    generators: tuple  # PauliVectors on len(leg_order) legs

    @property
    def total_legs(self) -> int:
        return len(self.leg_order)

    @property
    def k(self) -> int:
        return sum(self.bulk)

    @property
    def n(self) -> int:
        return self.total_legs - self.k

    @property
    def planar_positions(self) -> tuple:
        """Positions (into leg_order) of planar legs, in cyclic order."""
        return tuple(i for i, b in enumerate(self.bulk) if not b)

    @property
    def bulk_positions(self) -> tuple:
        return tuple(i for i, b in enumerate(self.bulk) if b)

    def validate(self):
        """Check the stabilizer-state invariants; raises on violation."""
        m = self.total_legs
        if len(self.generators) != m:
            raise ValueError(f"{self.name}: expected {m} generators")
        if any(symplectic_gram(self.generators)):
            raise ValueError(f"{self.name}: generators do not all commute")
        if symplectic_rank(self.generators) != m:
            raise ValueError(f"{self.name}: generators are GF(2)-dependent")


def symplectic_rank(gens) -> int:
    """Rank of a generator list in its 2n-column (x || z) binary form."""
    return rank([g.x | (g.z << g.n) for g in gens])


def _seed(name, leg_order, bulk_label, rows) -> SeedCode:
    legs = tuple(leg_order)
    bulk = tuple(l == bulk_label for l in legs)
    gens = tuple(PauliVector.from_string(r.replace(" ", "")) for r in rows)
    seed = SeedCode(name, legs, bulk, gens)
    seed.validate()
    return seed


def steane_tensor() -> SeedCode:
    """The 8-leg extended Steane tableau, legs (1,2,3,4,5,6,L,7), L bulk."""
    return _seed(
        "steane",
        ("1", "2", "3", "4", "5", "6", "L", "7"),
        "L",
        [
            "X X I I I X I X",
            "I X X X I I I X",
            "I I I X X X I X",
            "Z Z I I I Z I Z",
            "I Z Z Z I I I Z",
            "I I I Z Z Z I Z",
            "X X X X X X X X",
            "Z Z Z Z Z Z Z Z",
        ],
    )


def scf_tensor() -> SeedCode:
    """The 6-leg surface-code-fragment tableau, legs (1,2,3,4,L,5), L bulk."""
    return _seed(
        "scf",
        ("1", "2", "3", "4", "L", "5"),
        "L",
        [
            "X X I X I I",
            "I I X X I X",
            "Z I Z Z I I",
            "I Z I Z I Z",
            "X I X I X I",
            "I I Z I Z Z",
        ],
    )


def five_qubit_tensor() -> SeedCode:
    """The 6-leg extended five-qubit-code tableau, legs (1..5, L), L bulk.

    Four cyclic shifts of XZZXI plus the extended logicals X^6 and Z^6.
    """
    return _seed(
        "five_qubit",
        ("1", "2", "3", "4", "5", "L"),
        "L",
        [
            "X Z Z X I I",
            "I X Z Z X I",
            "X I X Z Z I",
            "Z X I X Z I",
            "X X X X X X",
            "Z Z Z Z Z Z",
        ],
    )


CATALOG = {
    "steane": steane_tensor,
    "scf": scf_tensor,
    "five_qubit": five_qubit_tensor,
}


def blank_tile(seed: SeedCode) -> SeedCode:
    """Reflag every bulk leg as planar; the [[n+k, 0]] state of the seed.

    Generator bit patterns are unchanged; only the leg roles move.
    """
    if seed.k < 1:
        raise ValueError("seed has no bulk leg to reflag")
    return SeedCode(
        seed.name + "_blank",
        seed.leg_order,
        tuple(False for _ in seed.bulk),
        seed.generators,
    )


def fixed_tile(seed: SeedCode) -> SeedCode:
    """Project every bulk leg onto the +1 eigenspace of Z and drop the leg:
    one ``project`` of the bulk legs' Z operators, then a ``restrict`` to
    the planar legs.

    The result is the [[n, 0]] state of the seed's logical-zero codeword:
    the tile shape stays an n-gon, with no bulk input.  Used by zero-rate
    tilings where interior tiles carry no logical qubit.
    """
    gens = list(seed.generators)
    project(gens, [PauliVector.single(seed.total_legs, pos, "Z")
                   for pos in seed.bulk_positions])
    keep = seed.planar_positions
    out = restrict(gens, keep)
    seed_out = SeedCode(
        seed.name + "_fixed",
        tuple(seed.leg_order[i] for i in keep),
        tuple(False for _ in keep),
        tuple(out),
    )
    seed_out.validate()
    return seed_out


def is_isometry(seed: SeedCode, A) -> bool:
    """True iff the tensor is an isometry from legs A to their complement.

    Equivalent stabilizer-state condition: no nonzero product of generators
    acts as identity everywhere outside A.
    """
    m = seed.total_legs
    A = set(A)
    if len(A) * 2 > m:
        raise ValueError("input subset larger than half the legs")
    outside = [i for i in range(m) if i not in A]
    return (symplectic_rank(restrict(seed.generators, outside))
            == len(seed.generators))


def is_block_perfect(seed: SeedCode) -> bool:
    """Isometry for every contiguous block of at most half the legs."""
    m = seed.total_legs
    for size in range(1, m // 2 + 1):
        for start in range(m):
            block = [(start + i) % m for i in range(size)]
            if not is_isometry(seed, block):
                return False
    return True


def is_perfect(seed: SeedCode) -> bool:
    """Isometry for every subset of at most half the legs."""
    m = seed.total_legs
    for size in range(1, m // 2 + 1):
        for subset in combinations(range(m), size):
            if not is_isometry(seed, subset):
                return False
    return True
