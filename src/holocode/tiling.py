"""Combinatorial tile graphs for truncated hyperbolic tessellations.

Tilings are grown layer by layer from a central tile; no coordinates are
ever computed.  Each family encodes the tessellation as a finite-state rule
for how a hull of free legs (and vertex markers between them) spawns the
next layer of tiles.  The normative check on these rules is the table of
boundary-qubit counts in ``REFERENCE_BOUNDARY_COUNTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tile:
    id: int
    kind: str  # "logical" or "blank"
    layer: int  # central tile is layer 0
    sides: int  # planar legs
    role: str = "center"  # center | edge (1 leg inward) | corner (2) | vertex (0)


@dataclass
class TileGraph:
    family: str
    variant: str
    radius: int
    tiles: list = field(default_factory=list)
    edges: list = field(default_factory=list)  # ((tile, leg), (tile, leg))
    boundary_legs: list = field(default_factory=list)  # ordered (tile, leg)
    bulk_legs: list = field(default_factory=list)  # (tile, "L")

    def validate(self):
        """Every planar leg is consumed exactly once by an edge or boundary."""
        seen = {}
        for (a, b) in self.edges:
            for end in (a, b):
                seen[end] = seen.get(end, 0) + 1
        for leg in self.boundary_legs:
            seen[leg] = seen.get(leg, 0) + 1
        for t in self.tiles:
            for j in range(t.sides):
                if seen.get((t.id, j), 0) != 1:
                    raise ValueError(
                        f"leg ({t.id},{j}) used {seen.get((t.id, j), 0)} times"
                    )
        if len(seen) != sum(t.sides for t in self.tiles):
            raise ValueError("stray leg reference outside any tile")
        layer = {t.id: t.layer for t in self.tiles}
        for (a, b) in self.edges:
            if abs(layer[a[0]] - layer[b[0]]) > 1:
                raise ValueError("edge connects non-adjacent layers")


# Known boundary-qubit counts, radii 1..6, used as the build contract.
REFERENCE_BOUNDARY_COUNTS = {
    ("heptagon", "max"): [7, 42, 203, 973, 4662, 22337],
    ("pentagon", "reduced"): [5, 25, 75, 255, 745, 2525],
    ("pentagon", "zero"): [5, 25, 95, 355, 1325, 4945],
}

SUPPORTED = {
    ("heptagon", "max"),
    ("heptagon", "zero"),
    ("pentagon", "max"),
    ("pentagon", "reduced"),
    ("pentagon", "zero"),
}


def build_tiling(family: str, radius: int, rate_variant: str = "max") -> TileGraph:
    """Build the tile graph for a family/variant truncated at ``radius``.

    radius=1 is the single central tile.  ``rate_variant`` controls which
    tiles carry a bulk (logical) leg: "max" flags every tile, "zero" only
    the central one, and "reduced" alternates logical and blank layers
    (pentagon/hexagon pattern; only the pentagon family supports it).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if (family, rate_variant) not in SUPPORTED:
        raise ValueError(f"unsupported family/variant: {family}/{rate_variant}")

    if family == "heptagon":
        g = _grow_cracked(family, rate_variant, radius, lambda layer: 7)
    elif rate_variant == "reduced":
        g = _grow_cracked(family, rate_variant, radius,
                          lambda layer: 5 if layer % 2 == 0 else 6)
    elif rate_variant == "zero":
        # Central logical pentagon surrounded by six-leg blank tiles.
        g = _grow_cracked(family, rate_variant, radius,
                          lambda layer: 5 if layer == 0 else 6)
    else:
        g = _grow_54(family, rate_variant, radius)

    for t in g.tiles:
        if t.kind == "logical":
            g.bulk_legs.append((t.id, "L"))
    g.validate()
    return g


def _kind(variant: str, layer: int, tile_id: int) -> str:
    if variant == "max":
        return "logical"
    if variant == "zero":
        return "logical" if tile_id == 0 else "blank"
    # reduced: center layer logical, then alternate
    return "logical" if layer % 2 == 0 else "blank"


def _grow_cracked(family, variant, radius, sides_of) -> TileGraph:
    """Layer growth where vertices between sibling tiles stay open one layer.

    Each gap (vertex shared by two adjacent tiles of the previous layer) is
    bridged by a corner tile contracting one leg into each neighbour; every
    other free leg spawns a regular child.  Consecutive new tiles always
    meet at a fresh gap.
    """
    g = TileGraph(family, variant, radius)
    center = Tile(0, _kind(variant, 0, 0), 0, sides_of(0))
    g.tiles.append(center)
    # Hull: list of ("leg", tile, leg) and ("gap",) entries, cyclic.
    hull = [("leg", 0, j) for j in range(center.sides)]
    next_id = 1

    for layer in range(1, radius):
        sides = sides_of(layer)
        m = len(hull)
        # Legs consumed by corner tiles: the entries right before/after gaps.
        before_gap = set()
        after_gap = set()
        for i, item in enumerate(hull):
            if item[0] == "gap":
                before_gap.add((i - 1) % m)
                after_gap.add((i + 1) % m)
        new_tiles = []  # (tile, inward legs)
        for i, item in enumerate(hull):
            if item[0] == "gap":
                prev = hull[(i - 1) % m]
                nxt = hull[(i + 1) % m]
                t = Tile(next_id, _kind(variant, layer, next_id), layer, sides,
                         "corner")
                next_id += 1
                g.tiles.append(t)
                g.edges.append(((prev[1], prev[2]), (t.id, 0)))
                g.edges.append(((nxt[1], nxt[2]), (t.id, 1)))
                new_tiles.append((t, 2))
            elif i in before_gap or i in after_gap:
                continue
            else:
                t = Tile(next_id, _kind(variant, layer, next_id), layer, sides,
                         "edge")
                next_id += 1
                g.tiles.append(t)
                g.edges.append(((item[1], item[2]), (t.id, 0)))
                new_tiles.append((t, 1))
        hull = []
        for t, first_free in new_tiles:
            hull.extend(("leg", t.id, j) for j in range(first_free, t.sides))
            hull.append(("gap",))
        if len(new_tiles) < 2:
            raise AssertionError("degenerate layer growth")

    g.boundary_legs = [(t, j) for kind, t, j in
                       (it for it in hull if it[0] == "leg")]
    return g


def _grow_54(family, variant, radius) -> TileGraph:
    """Proper order-4 pentagon tiling: four tiles close every vertex.

    Every free leg spawns an edge child; every corner between two legs of
    the same tile spawns a vertex child; consecutive tiles of the new layer
    always share a lateral edge, which closes the old vertices.
    """
    p = 5
    g = TileGraph(family, variant, radius)
    center = Tile(0, _kind(variant, 0, 0), 0, p)
    g.tiles.append(center)
    # Hull: legs in cyclic order plus the vertex type after each leg:
    # "v1" = corner of a single tile, "v2" = endpoint of a shared edge.
    legs = [(0, j) for j in range(p)]
    verts = ["v1"] * p
    next_id = 1

    for layer in range(1, radius):
        ring = []  # (tile, left_slot, right_slot, free slots)
        for i, (tid, leg) in enumerate(legs):
            t = Tile(next_id, _kind(variant, layer, next_id), layer, p, "edge")
            next_id += 1
            g.tiles.append(t)
            g.edges.append(((tid, leg), (t.id, 0)))
            ring.append((t, 1, p - 1, list(range(2, p - 1))))
            if verts[i] == "v1":
                v = Tile(next_id, _kind(variant, layer, next_id), layer, p,
                         "vertex")
                next_id += 1
                g.tiles.append(v)
                ring.append((v, 0, p - 1, list(range(1, p - 1))))
        # Close the ring: each consecutive pair shares a lateral edge.
        for j in range(len(ring)):
            t_a, _, right, _ = ring[j]
            t_b, left, _, _ = ring[(j + 1) % len(ring)]
            g.edges.append(((t_a.id, right), (t_b.id, left)))
        legs = []
        verts = []
        for t, _, _, free in ring:
            for idx, slot in enumerate(free):
                legs.append((t.id, slot))
                verts.append("v1" if idx < len(free) - 1 else "v2")

    g.boundary_legs = list(legs)
    return g


def counts(g: TileGraph):
    """(boundary qubits, logical qubits, rate)."""
    n = len(g.boundary_legs)
    k = len(g.bulk_legs)
    return n, k, k / n
