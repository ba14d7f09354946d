"""Per-logical-qubit bit and word distances via the coset minimizer.

The bit distance of qubit i is the minimum weight of a representative of
its logical class that acts trivially on all other logical qubits (coset
over stabilizers only).  The word distance also allows non-trivial action
on the other qubits (coset over stabilizers plus the other qubits' logical
rows) and is never larger.  Both read the sectors of
``decoder.coset_sectors``, the rows the decoder minimizes over, and target
qubit i's first logical row there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builder import HolographicCode
from .decoder import coset_sectors, coset_weight


@dataclass
class DistanceResult:
    qubit: int
    sector: str  # "x", "z", "min" or "pauli"
    kind: str  # "bit" or "word"
    value: int
    certified: bool  # always True: the trellis minimum is exact


def bit_distance(code: HolographicCode, qubit: int = 0,
                 sector: str = "min") -> DistanceResult:
    """Minimum weight of qubit i's logical class modulo stabilizers only.

    For CSS codes the X and Z sectors are solved separately; sector "min"
    reports the smaller of the two.  Non-CSS codes use one joint search
    over the full symplectic vector under Pauli weight, targeting X-bar
    (sector "pauli", also for "min").  Other sectors raise ValueError.
    """
    return _distance(code, qubit, sector, False, "bit")


def word_distance(code: HolographicCode, qubit: int = 0,
                  sector: str = "min") -> DistanceResult:
    """Minimum weight of any logical operator with support on qubit i."""
    return _distance(code, qubit, sector, True, "word")


def _distance(code, qubit, sector, with_others, kind):
    if not 0 <= qubit < code.k:
        raise ValueError("qubit index out of range")
    sectors = coset_sectors(code)
    chosen = [s for s in sectors if sector in (s.name, "min")]
    if not chosen:
        raise ValueError(f"sector {sector!r} is not min or one of this "
                         f"code's sectors: {', '.join(s.name for s in sectors)}")
    weights = []
    for s in chosen:
        rows = list(s.stabilizers)
        if with_others:
            rows += [r for j, qubit_rows in enumerate(s.logicals) if j != qubit
                     for r in qubit_rows]
        weights.append(coset_weight(rows, s.width, s.logicals[qubit][0],
                                    fold_shift=s.fold))
    if len(chosen) == 1:
        sector = chosen[0].name
    return DistanceResult(qubit, sector, kind, min(weights), True)


def fit_distance_scaling(points):
    """Least-squares power-law fit of distance against qubit count.

    ``points`` is a list of (n, d); returns (exponent, (lo, hi)) with a
    95% confidence interval from the t-distribution.  Needs >= 3 points.
    """
    from scipy import stats

    if len(points) < 3:
        raise ValueError("need at least 3 points")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    if np.ptp(x) == 0:
        raise ValueError("degenerate points")
    res = stats.linregress(x, y)
    tcrit = stats.t.ppf(0.975, len(points) - 2)
    half = tcrit * res.stderr if np.isfinite(res.stderr) else 0.0
    return res.slope, (res.slope - half, res.slope + half)
