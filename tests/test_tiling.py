"""Tile-graph growth for the hyperbolic tessellations."""

import math

import pytest

from holocode.tiling import (
    REFERENCE_BOUNDARY_COUNTS,
    build_tiling,
    counts,
)


def test_boundary_counts_match_reference_table():
    for (family, variant), expected in REFERENCE_BOUNDARY_COUNTS.items():
        for radius, n_expected in enumerate(expected, start=1):
            g = build_tiling(family, radius, variant)
            n, _, _ = counts(g)
            assert n == n_expected, (family, variant, radius)


def test_single_tile_counts():
    n, k, rate = counts(build_tiling("heptagon", 1, "max"))
    assert (n, k) == (7, 1)
    assert rate == pytest.approx(1 / 7)


def test_heptagon_rate_monotone_towards_limit():
    rates = [counts(build_tiling("heptagon", R, "max"))[2] for R in range(1, 7)]
    assert all(r1 < r2 for r1, r2 in zip(rates, rates[1:]))
    assert abs(rates[-1] - 0.22) < 0.01


def test_reduced_rates_split_by_parity():
    odd = counts(build_tiling("pentagon", 5, "reduced"))[2]
    even = counts(build_tiling("pentagon", 6, "reduced"))[2]
    assert abs(odd - 0.30) < 0.01
    assert abs(even - 0.09) < 0.005


def test_zero_variant_has_one_logical():
    for family in ("heptagon", "pentagon"):
        g = build_tiling(family, 3, "zero")
        assert len(g.bulk_legs) == 1
        assert g.bulk_legs[0][0] == 0


def test_growth_ratio_approaches_heptagon_limit():
    ns = REFERENCE_BOUNDARY_COUNTS[("heptagon", "max")]
    limit = (5 + math.sqrt(21)) / 2
    assert abs(ns[5] / ns[4] / limit - 1) < 0.02


def test_structural_validation_runs_on_every_build():
    for (family, variant) in (("heptagon", "max"), ("pentagon", "reduced"),
                              ("pentagon", "zero"), ("pentagon", "max"),
                              ("heptagon", "zero")):
        for radius in (1, 2, 3, 4):
            g = build_tiling(family, radius, variant)
            g.validate()  # raises on any leg used twice or left dangling


def test_edges_connect_adjacent_layers_only():
    g = build_tiling("pentagon", 4, "zero")
    layer = {t.id: t.layer for t in g.tiles}
    for (a, b) in g.edges:
        assert abs(layer[a[0]] - layer[b[0]]) <= 1


def test_reduced_alternates_pentagon_and_hexagon_layers():
    g = build_tiling("pentagon", 4, "reduced")
    for t in g.tiles:
        if t.layer % 2 == 0:
            assert t.sides == 5 and t.kind == "logical"
        else:
            assert t.sides == 6 and t.kind == "blank"


def test_unsupported_combinations_raise():
    with pytest.raises(ValueError):
        build_tiling("heptagon", 2, "reduced")
    with pytest.raises(ValueError):
        build_tiling("pentagon", 0, "max")
    with pytest.raises(ValueError):
        build_tiling("square", 2, "max")


def test_counts_runtime_budget():
    import time

    start = time.monotonic()
    for (family, variant), expected in REFERENCE_BOUNDARY_COUNTS.items():
        for radius in range(1, 7):
            build_tiling(family, radius, variant)
    assert time.monotonic() - start < 10.0
