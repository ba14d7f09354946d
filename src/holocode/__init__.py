"""Holographic stabilizer codes: construction, exact decoding, distances
and Monte Carlo threshold estimation."""

__version__ = "0.1.0"

from .gf2 import Gf2Matrix, PauliVector, symplectic_product
from .seeds import (
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
from .tiling import TileGraph, build_tiling, counts
from .builder import (
    HolographicCode,
    build_code,
    extract_code,
    network_state,
)
from .decoder import (
    CodeDecoder,
    CosetTrellis,
    TrellisLimitError,
    coset_sectors,
    pure_error,
)
from .distance import (
    DistanceResult,
    bit_distance,
    fit_distance_scaling,
    word_distance,
)
from .sim import (
    FailureCurve,
    WeightRecord,
    binomial_mix,
    estimate_threshold,
    run_trials,
    sample_fixed_weight_error,
    simulate_code,
)

__all__ = [
    "Gf2Matrix", "PauliVector", "symplectic_product",
    "SeedCode", "steane_tensor", "scf_tensor", "five_qubit_tensor",
    "blank_tile", "fixed_tile", "is_isometry", "is_block_perfect",
    "is_perfect",
    "TileGraph", "build_tiling", "counts",
    "HolographicCode", "build_code", "network_state", "extract_code",
    "CodeDecoder", "CosetTrellis", "TrellisLimitError", "coset_sectors",
    "pure_error",
    "DistanceResult", "bit_distance", "word_distance",
    "fit_distance_scaling",
    "FailureCurve", "WeightRecord", "sample_fixed_weight_error",
    "run_trials", "binomial_mix", "estimate_threshold", "simulate_code",
]
