"""Contract a tile network into a boundary stabilizer code.

Contraction of a tensor-network edge is realized in the stabilizer
formalism as projection onto the +1 eigenspace of X_a X_b and Z_a Z_b
followed by removal of the two legs.  Since phases are never tracked the
projection cannot be inconsistent, and each contraction removes exactly
two generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gf2 import (
    Gf2Matrix,
    PauliVector,
    gather_bits,
    kernel_and_right_inverse,
    parse_tableau,
    restrict,
    swap_in,
    symplectic_gram,
)
from .seeds import CATALOG, SeedCode, blank_tile, fixed_tile, symplectic_rank
from .tiling import TileGraph, build_tiling


class NotIsometryError(RuntimeError):
    """The contracted network is not an encoding isometry."""


def _project_pair(gens: list, width: int, a: int, b: int):
    """Project onto the +1 eigenspaces of X_a X_b and Z_a Z_b, in place.

    Afterwards every remaining generator acts as identity on legs a and b;
    the two rows that held the pair operators are removed.  Columns a, b
    are left in place (all zero) for the caller to drop.
    """
    if a == b:
        raise ValueError("cannot contract a leg with itself")
    mask = (1 << a) | (1 << b)
    m1 = PauliVector(width, mask, 0)  # X_a X_b
    m2 = PauliVector(width, 0, mask)  # Z_a Z_b
    # Anticommutation with X_aX_b (Z_aZ_b) only needs the z (x) bits at a, b.
    anti = [i for i, g in enumerate(gens)
            if ((g.z >> a) ^ (g.z >> b)) & 1]
    i1 = swap_in(gens, m1, anti, set())
    anti = [i for i, g in enumerate(gens)
            if ((g.x >> a) ^ (g.x >> b)) & 1]
    i2 = swap_in(gens, m2, anti, {i1})
    for i, g in enumerate(gens):
        if i in (i1, i2):
            continue
        x, z = g.x, g.z
        if (x >> a) & 1:
            x ^= mask
        if (z >> a) & 1:
            z ^= mask
        if (x | z) & mask:
            raise AssertionError("leg not cleared by pair projection")
        if x != g.x or z != g.z:
            gens[i] = PauliVector(width, x, z)
    for i in sorted((i1, i2), reverse=True):
        del gens[i]


def seed_for_tile(base: SeedCode, kind: str, sides: int) -> SeedCode:
    """Resolve a tile kind/shape to a catalog tensor."""
    if kind == "logical":
        if base.n != sides:
            raise ValueError(f"seed {base.name} has {base.n} planar legs, tile has {sides}")
        return base
    if sides == base.n + base.k:
        return blank_tile(base)
    if sides == base.n:
        return fixed_tile(base)
    raise ValueError(f"no blank tile with {sides} legs for seed {base.name}")


def network_state(graph: TileGraph, seed_map: dict,
                  orientations: dict | None = None) -> list:
    """Direct-sum all tile tableaus, then contract every graph edge.

    ``seed_map`` maps tile id to a SeedCode whose planar leg count matches
    the tile.  ``orientations`` maps a tile role to (rotation, reflect):
    tile slot j is matched to the seed's planar leg at cyclic position
    rotation + j (or rotation - j when reflected).  Block-perfect seeds
    make every orientation a valid isometry, but the resulting code does
    depend on the convention.  Returns the generators of the state on the
    open legs, boundary legs then bulk legs in the graph's order.
    """
    orientations = orientations or {}
    legs = []
    for t in graph.tiles:
        seed = seed_map[t.id]
        legs.extend((t.id, j) for j in range(t.sides))
        legs.extend((t.id, "L") for _ in range(seed.k))
    width = len(legs)
    index = {leg: i for i, leg in enumerate(legs)}

    gens = []
    for t in graph.tiles:
        seed = seed_map[t.id]
        planar = seed.planar_positions
        bulk = seed.bulk_positions
        if len(planar) != t.sides:
            raise ValueError(f"tile {t.id}: seed planar legs != tile sides")
        rot, reflect = orientations.get(t.role, (0, False))
        # seed position -> mask of its global bit
        masks = [0] * seed.total_legs
        for slot in range(t.sides):
            cyc = (rot - slot) % t.sides if reflect else (rot + slot) % t.sides
            masks[planar[cyc]] = 1 << index[(t.id, slot)]
        for p in bulk:
            masks[p] = 1 << index[(t.id, "L")]
        gens.extend(PauliVector(width, gather_bits(g.x, masks),
                                gather_bits(g.z, masks))
                    for g in seed.generators)

    # Contract every edge at full width, then keep the open legs once.
    for (ea, eb) in graph.edges:
        _project_pair(gens, width, index[ea], index[eb])
    return restrict(gens, [index[leg] for leg in
                           list(graph.boundary_legs) + list(graph.bulk_legs)])


@dataclass(frozen=True)
class LogicalQubit:
    id: int
    layer: int
    x_rep: PauliVector
    z_rep: PauliVector


@dataclass
class HolographicCode:
    """Boundary parity checks and per-bulk-qubit logical representatives."""

    family: str
    variant: str
    radius: int
    seed_name: str
    n: int
    stabilizers: list
    logicals: list  # LogicalQubit, ordered by bulk qubit id
    css: bool = False

    @property
    def k(self) -> int:
        return len(self.logicals)

    def validate(self):
        if len(self.stabilizers) != self.n - self.k:
            raise ValueError("stabilizer count != n - k")
        m, k = len(self.stabilizers), self.k
        gram = symplectic_gram(list(self.stabilizers)
                               + [lq.x_rep for lq in self.logicals]
                               + [lq.z_rep for lq in self.logicals])
        stab_mask = (1 << m) - 1
        if any(row & stab_mask for row in gram[:m]):
            raise ValueError("stabilizers do not commute")
        if symplectic_rank(self.stabilizers) != len(self.stabilizers):
            raise ValueError("stabilizers dependent")
        if any(row & stab_mask for row in gram[m:]):
            raise ValueError("logical rep anticommutes with a stabilizer")
        kmask = (1 << k) - 1
        for i in range(k):
            # Bit j: <X_i, Z_j> must be the identity; <X_i, X_j> and
            # <Z_i, Z_j> must vanish.  The first offending j names the fault.
            broken = ((gram[m + i] >> (m + k)) & kmask) ^ (1 << i)
            anti = ((gram[m + i] >> m) | (gram[m + k + i] >> (m + k))) & kmask
            if broken and (not anti or broken & -broken <= anti & -anti):
                raise ValueError("logical X/Z pairing broken")
            if anti:
                raise ValueError("logical reps of distinct qubits anticommute")
        if self.css != all(s.x == 0 or s.z == 0 for s in self.stabilizers):
            raise ValueError("css flag inconsistent with stabilizers")

    # -- persistence ------------------------------------------------------

    def save(self, prefix: str):
        """Write ``prefix.tab`` (tableau text) and ``prefix.json`` (metadata)."""
        lines = ["# stabilizers"]
        lines += [s.to_string() for s in self.stabilizers]
        for lq in self.logicals:
            lines.append(f"# logical {lq.id} layer {lq.layer} X,Z")
            lines.append(lq.x_rep.to_string())
            lines.append(lq.z_rep.to_string())
        with open(prefix + ".tab", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        meta = {
            "family": self.family,
            "variant": self.variant,
            "radius": self.radius,
            "seed": self.seed_name,
            "n": self.n,
            "k": self.k,
            "css": self.css,
            "logical_layers": [lq.layer for lq in self.logicals],
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, prefix: str) -> "HolographicCode":
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        with open(prefix + ".tab") as fh:
            gens = parse_tableau(fh.read())
        n, k = meta["n"], meta["k"]
        if len(gens) != n + k or any(g.n != n for g in gens):
            raise ValueError(f"{prefix}.tab: expected n - k + 2k = {n + k} "
                             f"rows of {n} Paulis")
        if len(meta["logical_layers"]) != k:
            raise ValueError(f"{prefix}.json: expected k = {k} logical layers")
        stabs, reps = gens[:n - k], gens[n - k:]
        logicals = [LogicalQubit(i, meta["logical_layers"][i], reps[2 * i],
                                 reps[2 * i + 1]) for i in range(k)]
        code = cls(
            meta["family"], meta["variant"], meta["radius"], meta["seed"],
            n, stabs, logicals, meta["css"],
        )
        code.validate()
        return code


def _bulk_combinations(bulk_vecs: list, width: int):
    """Generator combinations by their action on the bulk legs.

    ``bulk_vecs[i]`` is generator i's bulk part.  Returns coefficient masks
    for a basis of the combinations acting as identity on the bulk, and,
    for each bulk bit j, one combination acting as bit j alone (with every
    free coefficient 0).  Both come from one elimination of the transposed
    bulk matrix.
    """
    try:
        null, F = kernel_and_right_inverse(
            Gf2Matrix(bulk_vecs, width).transpose())
    except ValueError:
        raise NotIsometryError("missing logical representative") from None
    return null, F.transpose().rows


def _reduce_pass(v: PauliVector, rows: list, sups: list, skip: int = -1):
    """One pass of multiplying v by each row, but row ``skip``, that
    lowers its Pauli weight.  ``sups[j]`` is row j's support; rows with
    disjoint support can only grow the weight, so they are skipped without
    forming the product.  Candidates are weighed on the raw x and z bits.
    Returns (v, whether it changed)."""
    x, z = v.x, v.z
    sup = x | z
    weight = sup.bit_count()
    for j, (row, row_sup) in enumerate(zip(rows, sups)):
        if j == skip or not (sup & row_sup):
            continue
        cx, cz = x ^ row.x, z ^ row.z
        if (cx | cz).bit_count() < weight:
            x, z = cx, cz
            sup = x | z
            weight = sup.bit_count()
    if x == v.x and z == v.z:
        return v, False
    return PauliVector(v.n, x, z), True


def extract_code(gens: list, graph: TileGraph,
                 seed_name: str = "") -> HolographicCode:
    """Read off the boundary code from the generators ``network_state``
    returns.

    Stabilizers are the generator combinations acting as identity on every
    bulk leg, restricted to the boundary; logical representatives act as a
    single X (or Z) on one bulk leg.  Every code, CSS or not, comes from one
    elimination of the generators' x || z action on the bulk (2k bits).
    Stabilizers are listed X-type first, each type in elimination order;
    for a CSS code that is the order of two sector eliminations, since the
    reduced form of a block-diagonal matrix is unique.
    """
    n = len(graph.boundary_legs)
    k = len(graph.bulk_legs)
    if len(gens) != n + k:
        raise NotIsometryError("open leg count mismatch")
    nmask = (1 << n) - 1
    vecs = [g.x | (g.z << (n + k)) for g in gens]
    # bulk action of a generator: (x on bulk | z on bulk), 2k bits
    bulk_vecs = [(g.x >> n) | ((g.z >> n) << k) for g in gens]

    def combine(c):
        v = gather_bits(c, vecs)
        return PauliVector(n, v & nmask, (v >> (n + k)) & nmask)

    null, units = _bulk_combinations(bulk_vecs, 2 * k)
    stabilizers = [p for p in map(combine, null) if p.x or p.z]
    stabilizers.sort(key=lambda s: s.x == 0)  # stable: X-type first
    logicals = [(combine(units[ell]), combine(units[k + ell]))
                for ell in range(k)]

    if len(stabilizers) != n - k:
        raise NotIsometryError(
            f"{len(stabilizers)} independent stabilizers, expected {n - k}"
        )
    # Light greedy weight reduction: two passes over the basis, then each
    # representative until a pass changes nothing.
    sups = [s.support for s in stabilizers]
    for _ in range(2):
        changed = False
        for i, s in enumerate(stabilizers):
            s, changed_i = _reduce_pass(s, stabilizers, sups, i)
            if changed_i:
                stabilizers[i], sups[i] = s, s.support
                changed = True
        if not changed:
            break

    def reduce(rep):
        changed = True
        while changed:
            rep, changed = _reduce_pass(rep, stabilizers, sups)
        return rep

    layer = {t.id: t.layer for t in graph.tiles}
    out_logicals = []
    for ell, (xr, zr) in enumerate(logicals):
        tile_id = graph.bulk_legs[ell][0]
        out_logicals.append(LogicalQubit(ell, layer[tile_id], reduce(xr),
                                         reduce(zr)))

    css = all(s.x == 0 or s.z == 0 for s in stabilizers)
    code = HolographicCode(
        graph.family, graph.variant, graph.radius, seed_name,
        n, stabilizers, out_logicals, css,
    )
    code.validate()
    return code


DEFAULT_SEEDS = {
    ("heptagon", "max"): "steane",
    ("heptagon", "zero"): "steane",
    ("pentagon", "max"): "scf",
    ("pentagon", "reduced"): "scf",
    ("pentagon", "zero"): "five_qubit",
}

# Tile-attachment conventions per seed, calibrated against the reference
# distance table at small radii.  Rotation picks which seed leg faces
# inward; reflect flips the winding.  The five-qubit tensor is cyclic so
# its network is orientation-independent.
ORIENTATIONS = {
    "steane": {"edge": (6, False)},
    "five_qubit": {"corner": (1, False)},
    "scf": {"corner": (1, False)},
}


def build_code(family: str, variant: str, radius: int,
               seed_name: str | None = None,
               orientations: dict | None = None) -> HolographicCode:
    """Tile, contract and extract the boundary code in one call."""
    graph = build_tiling(family, radius, variant)
    if seed_name is None:
        seed_name = DEFAULT_SEEDS[(family, variant)]
    base = CATALOG[seed_name]()
    seed_map = {t.id: seed_for_tile(base, t.kind, t.sides) for t in graph.tiles}
    if orientations is None:
        orientations = ORIENTATIONS.get(seed_name, {})
    gens = network_state(graph, seed_map, orientations)
    return extract_code(gens, graph, seed_name)
