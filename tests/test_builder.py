"""Network contraction and boundary-code extraction."""

import dataclasses
import functools
import hashlib
import itertools
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holocode import builder
from holocode.builder import (
    HolographicCode,
    NotIsometryError,
    build_code,
    extract_code,
    network_state,
    seed_for_tile,
)
from holocode.gf2 import (
    PauliVector,
    project,
    rank,
    restrict,
    row_combination,
    symplectic_product,
)
from holocode.seeds import CATALOG, scf_tensor, steane_tensor
from holocode.tiling import build_tiling
from oracles import full_scan_reduce_weights


def P(s):
    return PauliVector.from_string(s)


def same_group(gens_a, gens_b):
    """Row spaces of two symplectic generator sets coincide."""
    if not gens_a and not gens_b:
        return True
    n = gens_a[0].n
    rows_a = [g.x | (g.z << n) for g in gens_a]
    if rank(rows_a) != len(rows_a):
        return False
    return len(gens_a) == len(gens_b) and all(
        in_group(rows_a, n, g) for g in gens_b
    )


def in_group(rows, n, p):
    return row_combination(rows, p.x | (p.z << n)) is not None


# -- project ---------------------------------------------------------------


def contract(gens, a, b):
    """Contract legs a and b as ``network_state`` does: project, then drop
    the two dead columns."""
    gens = list(gens)
    width = gens[0].n
    mask = (1 << a) | (1 << b)
    project(gens, [PauliVector(width, mask, 0), PauliVector(width, 0, mask)])
    return restrict(gens, [i for i in range(width) if i not in (a, b)])


def test_contract_two_x_states_gives_empty_state():
    assert contract([P("XI"), P("IX")], 0, 1) == []


def test_contract_bell_with_bell_swaps_entanglement():
    # legs 0,1 form one Bell pair, 2,3 another; contract 1-2
    out = contract([P("XXII"), P("ZZII"), P("IIXX"), P("IIZZ")], 1, 2)
    assert out[0].n == 2  # legs 0 and 3 remain
    assert same_group(out, [P("XX"), P("ZZ")])


def test_two_steane_tiles_one_edge():
    seed = steane_tensor()
    # two disjoint single tiles joined on one leg, built by hand: tile t
    # holds bits 8t..8t+6 (planar legs) and 8t+7 (bulk leg)
    planar = [l for l in seed.leg_order if l != "L"]
    gens = []
    for base in (0, 8):
        for g in seed.generators:
            x = z = 0
            for pos, leg in enumerate(seed.leg_order):
                bit = base + (7 if leg == "L" else planar.index(leg))
                x |= ((g.x >> pos) & 1) << bit
                z |= ((g.z >> pos) & 1) << bit
            gens.append(PauliVector(16, x, z))
    out = contract(gens, 0, 8)
    assert len(out) == 14 and out[0].n == 14
    for a, b in itertools.combinations(out, 2):
        assert symplectic_product(a, b) == 0


# -- network_state / extract_code -------------------------------------------


def test_single_steane_network_has_table_generators():
    graph = build_tiling("heptagon", 1, "max")
    seed = steane_tensor()
    gens = network_state(graph, {0: seed})
    assert len(gens) == 8
    assert gens[0].n == 8
    # network leg order is planar 1..7 then L; the printed tableau has L
    # between legs 6 and 7
    remapped = []
    for g in seed.generators:
        text = g.to_string()
        remapped.append(P(text[:6] + text[7] + text[6]))
    assert same_group(gens, remapped)


def test_heptagon_r2_network_counts():
    graph = build_tiling("heptagon", 2, "max")
    seed = steane_tensor()
    gens = network_state(graph, {t.id: seed for t in graph.tiles})
    # 8 tiles x 8 legs = 64, minus 2 per contracted edge
    assert len(gens) == 64 - 2 * len(graph.edges)
    assert len(graph.boundary_legs) == 42
    assert len(gens) == gens[0].n == 42 + len(graph.bulk_legs)


def test_extract_single_steane_code():
    code = build_code("heptagon", "max", 1)
    assert (code.n, code.k, code.css) == (7, 1, True)
    expected = [P(s) for s in
                ["XXIIIXX", "IXXXIIX", "IIIXXXX",
                 "ZZIIIZZ", "IZZZIIZ", "IIIZZZZ"]]
    assert same_group(code.stabilizers, expected)
    # logical representatives are the all-X / all-Z classes
    stab_rows = [s.x | (s.z << 7) for s in code.stabilizers]
    assert in_group(stab_rows, 7, code.logicals[0].x_rep.mul(P("XXXXXXX")))
    assert in_group(stab_rows, 7, code.logicals[0].z_rep.mul(P("ZZZZZZZ")))


def test_extract_single_scf_code():
    code = build_code("pentagon", "max", 1, "scf")
    assert (code.n, code.k, code.css) == (5, 1, True)
    expected = [P(s) for s in ["XXIXI", "IIXXX", "ZIZZI", "IZIZZ"]]
    assert same_group(code.stabilizers, expected)
    # X rep is the restriction of the extended logical: X on legs 1 and 3
    stab_rows = [s.x | (s.z << 5) for s in code.stabilizers]
    assert in_group(stab_rows, 5, code.logicals[0].x_rep.mul(P("XIXII")))
    assert code.logicals[0].x_rep.weight() == 2  # distance-2 code


def test_extract_five_qubit_not_css():
    code = build_code("pentagon", "max", 1, "five_qubit")
    assert not code.css
    assert code.logicals[0].x_rep.weight() == 3


def test_codes_validate_at_radius_two():
    for fam, var, seed in (("heptagon", "max", None),
                           ("pentagon", "reduced", None),
                           ("pentagon", "zero", None),
                           ("pentagon", "max", "scf"),
                           ("heptagon", "zero", None)):
        code = build_code(fam, var, 2, seed)
        code.validate()
        assert len(code.stabilizers) == code.n - code.k


@pytest.fixture(scope="module")
def heptagon_r2():
    return build_code("heptagon", "max", 2)


def _with_rep(code, qubit, **reps):
    logicals = list(code.logicals)
    logicals[qubit] = dataclasses.replace(logicals[qubit], **reps)
    return dataclasses.replace(code, logicals=logicals)


def _with_stabilizer(code, row, stab):
    stabs = list(code.stabilizers)
    stabs[row] = stab
    return dataclasses.replace(code, stabilizers=stabs)


def _anticommuting_single(code, stab):
    """A single-qubit X or Z that anticommutes with the CSS stabilizer."""
    q = (stab.x | stab.z).bit_length() - 1
    return PauliVector.single(code.n, q, "Z" if stab.x else "X")


def test_validate_names_each_fault(heptagon_r2):
    code = heptagon_r2
    code.validate()
    s, lq = code.stabilizers, code.logicals
    n = code.n
    faults = [
        (dataclasses.replace(code, stabilizers=s[1:]),
         "stabilizer count != n - k"),
        (_with_stabilizer(code, 0, _anticommuting_single(code, s[1])),
         "stabilizers do not commute"),
        (_with_stabilizer(code, 1, s[0].mul(s[2])),
         "stabilizers dependent"),
        (_with_rep(code, 0, x_rep=lq[0].x_rep.mul(
            _anticommuting_single(code, s[0]))),
         "logical rep anticommutes with a stabilizer"),
        (_with_rep(code, 0, x_rep=PauliVector(n)),
         "logical X/Z pairing broken"),
        (_with_rep(code, 0, x_rep=lq[0].x_rep.mul(lq[1].z_rep)),
         "logical reps of distinct qubits anticommute"),
        (dataclasses.replace(code, css=False),
         "css flag inconsistent with stabilizers"),
    ]
    for bad, message in faults:
        with pytest.raises(ValueError, match=message):
            bad.validate()


def test_validate_reports_the_first_faulty_pair_like_the_pairwise_loop(
        heptagon_r2):
    # X_1 made to anticommute with X_2 (distinct-qubit fault at (1, 2))
    # and to pair with Z_3 (pairing fault at (1, 3)): the first pair wins.
    code = heptagon_r2
    lq = code.logicals
    bad = _with_rep(code, 1, x_rep=lq[1].x_rep.mul(lq[2].z_rep).mul(lq[3].x_rep))
    with pytest.raises(ValueError, match="distinct qubits anticommute"):
        bad.validate()
    bad = _with_rep(code, 1, x_rep=lq[1].x_rep.mul(lq[3].z_rep).mul(lq[2].x_rep))
    with pytest.raises(ValueError, match="pairing broken"):
        bad.validate()


def test_heptagon_r2_shape():
    code = build_code("heptagon", "max", 2)
    assert (code.n, code.k) == (42, 8)
    assert code.css
    assert len(code.stabilizers) == 34


def test_css_flag_per_family():
    assert build_code("heptagon", "max", 2).css
    assert build_code("pentagon", "reduced", 2).css
    assert not build_code("pentagon", "zero", 2).css


def test_extract_detects_non_isometry():
    # |0>|0> network: no combination acts as X on the "bulk" leg
    graph = build_tiling("heptagon", 1, "max")
    graph.boundary_legs = graph.boundary_legs[:1]
    with pytest.raises(NotIsometryError):
        extract_code([P("ZI"), P("IZ")], graph)


def test_seed_for_tile_resolution():
    base = scf_tensor()
    assert seed_for_tile(base, "logical", 5) is base
    assert seed_for_tile(base, "blank", 6).k == 0
    assert seed_for_tile(base, "blank", 5).n == 5
    with pytest.raises(ValueError):
        seed_for_tile(base, "logical", 6)
    with pytest.raises(ValueError):
        seed_for_tile(base, "blank", 7)


def test_save_load_roundtrip(tmp_path):
    code = build_code("pentagon", "reduced", 2)
    prefix = str(tmp_path / "code")
    code.save(prefix)
    again = HolographicCode.load(prefix)
    assert again.n == code.n and again.k == code.k
    assert again.stabilizers == code.stabilizers
    assert [l.x_rep for l in again.logicals] == [l.x_rep for l in code.logicals]
    assert again.css == code.css
    assert [l.layer for l in again.logicals] == [l.layer for l in code.logicals]


_small_code = functools.lru_cache(build_code)
SMALL_SPECS = [("heptagon", "max", 2), ("pentagon", "reduced", 2),
               ("pentagon", "zero", 2), ("pentagon", "max", 1, "scf")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.data())
def test_save_load_roundtrip_property(spec, data):
    """Any valid code reads back equal: random stabilizer row operations,
    representatives times random stabilizers, and random layer labels.  A
    CSS code only combines rows of one type, so it stays CSS."""
    code = _small_code(*spec)
    stabs = list(code.stabilizers)
    m = len(stabs)

    def times_stabilizers(p, picks):
        for i in picks:
            if not code.css or (p.x != 0, p.z != 0) == (stabs[i].x != 0,
                                                        stabs[i].z != 0):
                p = p.mul(stabs[i])
        return p

    picks = st.lists(st.integers(0, m - 1), max_size=4)
    for i in range(m):
        stabs[i] = times_stabilizers(
            stabs[i], [j for j in data.draw(picks) if j != i])
    logicals = [type(lq)(lq.id, data.draw(st.integers(0, 9)),
                         times_stabilizers(lq.x_rep, data.draw(picks)),
                         times_stabilizers(lq.z_rep, data.draw(picks)))
                for lq in code.logicals]
    mutated = dataclasses.replace(code, stabilizers=stabs, logicals=logicals)
    mutated.validate()
    with tempfile.TemporaryDirectory() as tmp:
        mutated.save(tmp + "/code")
        assert HolographicCode.load(tmp + "/code") == mutated


@st.composite
def reduction_inputs(draw):
    """Sparse Pauli rows on at most 24 qubits, so supports overlap, and
    representatives that are a sparse Pauli times a few of the rows."""
    n = draw(st.integers(1, 24))
    sparse = st.builds(
        lambda factors: PauliVector(
            n, sum(1 << q for q, f in factors.items() if f & 1),
            sum(1 << q for q, f in factors.items() if f & 2)),
        st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                        min_size=1, max_size=6))
    stabs = draw(st.lists(sparse, max_size=20))
    reps = []
    for rep in draw(st.lists(sparse, max_size=6)):
        for i in draw(st.lists(st.integers(0, len(stabs) - 1), max_size=4)
                      if stabs else st.just([])):
            rep = rep.mul(stabs[i])
        reps.append(rep)
    return n, stabs, reps


@settings(max_examples=300, deadline=None)
@given(reduction_inputs())
# A stabilizer pass accepts a row that adds a qubit, and the next row on
# that qubit is the one right after it.
@example((8, [P("XXXYIIIX"), P("IIYIIIII"), P("IIIXIIXI"), P("XXZZIIXX")],
          []))
def test_indexed_reduction_matches_full_scan(inputs):
    """Every ``_reduce_pass`` of the indexed reduction returns what the
    full scan's does, so both end on the same rows."""
    n, stabs, reps = inputs
    want_stabs = list(stabs)
    want_reps, want_passes = full_scan_reduce_weights(want_stabs, reps)
    passes = []

    def recorded(*args):
        passes.append(real_pass(*args))
        return passes[-1]

    real_pass = builder._reduce_pass
    got_stabs = list(stabs)
    with mock.patch.object(builder, "_reduce_pass", recorded):
        got_reps = builder._reduce_weights(got_stabs, reps, n)
    assert passes == want_passes
    assert got_stabs == want_stabs
    assert got_reps == want_reps


@pytest.mark.parametrize("family,variant,seed,radius,reductions", [
    *[("heptagon", "max", "steane", r, 1) for r in (1, 2, 3)],  # self-dual
    ("heptagon", "zero", "steane", 1, 1),
    *[("heptagon", "zero", "steane", r, 2) for r in (2, 3)],
    *[("pentagon", "reduced", "scf", r, 2) for r in (1, 2, 3)],
    *[("pentagon", "max", "five_qubit", r, 1) for r in (1, 2)],  # joint
])
def test_sector_reduction_matches_joint_reduction(monkeypatch, family, variant,
                                                  seed, radius, reductions):
    """``extract_code`` reduces a CSS code's X and Z rows apart, and a
    self-dual code's once; the reference is one joint ``_reduce_weights``
    over every stabilizer and representative."""
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    real = builder._reduce_weights
    monkeypatch.setattr(builder, "_reduce_weights", counted)
    code = build_code(family, variant, radius, seed)
    assert len(calls) == reductions
    monkeypatch.setattr(builder, "_reduce_sectors", real)
    joint = build_code(family, variant, radius, seed)
    assert code.stabilizers == joint.stabilizers
    assert code.logicals == joint.logicals


@st.composite
def css_reduction_inputs(draw):
    """Sparse pure-X and pure-Z rows, listed X-type first (or shuffled),
    and representatives X-bar, Z-bar per qubit, each a sparse row times a
    few rows of its type; half the time the Z rows are the X rows with x
    and z swapped."""
    n = draw(st.integers(1, 24))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=6).map(
        lambda qs: sum(1 << q for q in qs))
    k = draw(st.integers(0, 3))

    def rows(kind, count):
        return [PauliVector(n, s, 0) if kind == "x" else PauliVector(n, 0, s)
                for s in draw(st.lists(support, min_size=count, max_size=count))]

    def sector(kind):
        stabs = rows(kind, draw(st.integers(0, 12)))
        reps = [functools.reduce(PauliVector.mul, draw(st.lists(
            st.sampled_from(stabs), max_size=3)) if stabs else [], rep)
            for rep in rows(kind, k)]
        return stabs, reps

    x_stabs, x_reps = sector("x")
    if draw(st.booleans()):
        z_stabs = [builder._swap(p) for p in x_stabs]
        z_reps = [builder._swap(p) for p in x_reps]
    else:
        z_stabs, z_reps = sector("z")
    stabs = x_stabs + z_stabs
    if draw(st.booleans()):
        stabs = draw(st.permutations(stabs))
    return n, stabs, [r for xz in zip(x_reps, z_reps) for r in xz]


@settings(max_examples=200, deadline=None)
@given(css_reduction_inputs())
def test_sector_reduction_matches_joint_on_pure_rows(inputs):
    n, stabs, reps = inputs
    want_stabs = list(stabs)
    want_reps = builder._reduce_weights(want_stabs, list(reps), n)
    got_stabs = list(stabs)
    assert builder._reduce_sectors(got_stabs, list(reps), n) == want_reps
    assert got_stabs == want_stabs


def test_logical_layers_recorded():
    code = build_code("heptagon", "max", 2)
    assert code.logicals[0].layer == 0
    assert all(l.layer == 1 for l in code.logicals[1:])


def test_every_seed_matches_every_family_radius_two():
    for seed_name in CATALOG:
        fam = "heptagon" if seed_name == "steane" else "pentagon"
        code = build_code(fam, "max", 2, seed_name)
        code.validate()


# Every family x seed x radius <= 3 combination that builds, and the
# three table3 codes at radius 4.
DIGEST_CODES = [
    (fam, var, seed, radius)
    for fam, var, seeds in (("heptagon", "max", ("steane",)),
                            ("heptagon", "zero", ("steane",)),
                            ("pentagon", "max", ("scf", "five_qubit")),
                            ("pentagon", "reduced", ("scf", "five_qubit")),
                            ("pentagon", "zero", ("scf", "five_qubit")))
    for seed in seeds
    for radius in (1, 2, 3)
] + [("heptagon", "max", None, 4), ("pentagon", "reduced", None, 4),
     ("pentagon", "zero", None, 4)]

# sha256 over the ``save`` bytes (``.tab`` then ``.json``) of every code
# above, in order.  It pins the stabilizer and logical bases, their order
# and the file format together.
CODES_DIGEST = "8e9ac92dd7fd8ad27b18e6070caad440abe3bebff9960ed5d7932b05bff90398"


def test_saved_codes_digest(tmp_path):
    prefix = str(tmp_path / "code")
    digest = hashlib.sha256()
    for fam, var, seed, radius in DIGEST_CODES:
        build_code(fam, var, radius, seed).save(prefix)
        for ext in (".tab", ".json"):
            with open(prefix + ext, "rb") as fh:
                digest.update(fh.read())
    assert digest.hexdigest() == CODES_DIGEST


# sha256 over the ``save`` bytes (``.tab`` then ``.json``) of the two
# supported radius-4 builds that ``DIGEST_CODES`` leaves out, in order.
R4_BUILDS = [("heptagon", "zero"), ("pentagon", "max")]
R4_BUILDS_DIGEST = "3d85a6e400e0ac9ca20aaf8d4145c12e09a25b0773bcb8aebbc3ec9f86f9e7f1"


def test_r4_builds_digest(tmp_path):
    prefix = str(tmp_path / "code")
    digest = hashlib.sha256()
    for fam, var in R4_BUILDS:
        build_code(fam, var, 4).save(prefix)
        for ext in (".tab", ".json"):
            with open(prefix + ext, "rb") as fh:
                digest.update(fh.read())
    assert digest.hexdigest() == R4_BUILDS_DIGEST
