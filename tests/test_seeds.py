"""Seed tensor catalog and isometry checks."""

import pytest

from holocode.gf2 import PauliVector, symplectic_product
from holocode.seeds import (
    SeedCode,
    blank_tile,
    five_qubit_tensor,
    fixed_tile,
    is_block_perfect,
    is_isometry,
    is_perfect,
    scf_tensor,
    steane_tensor,
)


def test_steane_rows_match_reference_tableau():
    s = steane_tensor()
    assert s.n == 7 and s.k == 1
    assert s.leg_order == ("1", "2", "3", "4", "5", "6", "L", "7")
    assert s.bulk == (False,) * 6 + (True, False)
    rows = [g.to_string() for g in s.generators]
    assert rows[0] == "XXIIIXIX"  # S1
    assert rows[6] == "XXXXXXXX"  # extended logical X
    assert rows[7] == "ZZZZZZZZ"


def test_scf_rows_match_reference_tableau():
    s = scf_tensor()
    assert s.n == 5 and s.k == 1
    assert s.leg_order == ("1", "2", "3", "4", "L", "5")
    rows = [g.to_string() for g in s.generators]
    assert rows[0] == "XXIXII"  # S1
    assert rows[5] == "IIZIZZ"  # extended logical Z


def test_five_qubit_structure():
    s = five_qubit_tensor()
    assert s.n == 5 and s.k == 1
    assert len(s.generators) == 6
    rows = [g.to_string() for g in s.generators]
    assert rows[0] == "XZZXII"
    assert rows[4] == "XXXXXX"
    assert rows[5] == "ZZZZZZ"


def test_all_catalog_tensors_commute_and_are_independent():
    for seed in (steane_tensor(), scf_tensor(), five_qubit_tensor()):
        seed.validate()
        for a in seed.generators:
            for b in seed.generators:
                assert symplectic_product(a, b) == 0


def test_block_perfect_and_perfect_classification():
    assert is_block_perfect(steane_tensor())
    assert not is_perfect(steane_tensor())
    assert is_block_perfect(scf_tensor())
    assert not is_perfect(scf_tensor())
    assert is_perfect(five_qubit_tensor())
    assert is_block_perfect(five_qubit_tensor())  # perfect implies block


def test_is_isometry_examples():
    s = steane_tensor()
    # bulk leg plus leg 7: the map (L,7) -> (1..6) must be an isometry
    assert is_isometry(s, [6, 7])
    assert is_isometry(s, [])
    # a two-leg product state: I (x) Z stabilized; one leg fails
    bad = SeedCode(
        "product", ("a", "b"), (False, False),
        (PauliVector.from_string("IZ"), PauliVector.from_string("ZI")),
    )
    assert not is_isometry(bad, [0])
    assert not is_block_perfect(bad)


def test_is_isometry_rejects_large_subsets():
    with pytest.raises(ValueError):
        is_isometry(scf_tensor(), [0, 1, 2, 3])


def test_block_perfect_invariant_under_cyclic_relabeling():
    s = scf_tensor()
    m = s.total_legs
    for shift in range(1, m):
        legs = tuple(s.leg_order[(i + shift) % m] for i in range(m))
        bulk = tuple(s.bulk[(i + shift) % m] for i in range(m))
        gens = []
        for g in s.generators:
            rot = ["I"] * m
            text = g.to_string()
            for i in range(m):
                rot[i] = text[(i + shift) % m]
            gens.append(PauliVector.from_string("".join(rot)))
        rotated = SeedCode(s.name, legs, bulk, tuple(gens))
        assert is_block_perfect(rotated)


def test_blank_tile_reflags_without_touching_generators():
    s = scf_tensor()
    b = blank_tile(s)
    assert b.n == 6 and b.k == 0
    assert b.generators == s.generators
    assert b.leg_order == s.leg_order
    q = blank_tile(five_qubit_tensor())
    assert q.n == 6 and q.k == 0


def test_blank_tile_requires_bulk():
    with pytest.raises(ValueError):
        blank_tile(blank_tile(scf_tensor()))


def test_fixed_tile_is_logical_zero_state():
    f = fixed_tile(scf_tensor())
    assert f.n == 5 and f.k == 0
    f.validate()
    # the restricted logical Z must be in the group: check Z on legs 3,5
    rows = {g.to_string() for g in f.generators}
    assert "IIZIZ" in rows
