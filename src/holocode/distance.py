"""Per-logical-qubit bit and word distances via the coset minimizer.

The bit distance of qubit i is the minimum weight of a representative of
its logical class that acts trivially on all other logical qubits (coset
over stabilizers only).  The word distance also allows non-trivial action
on the other qubits (coset over stabilizers plus the other qubits' logical
rows) and is never larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builder import HolographicCode, css_split
from .decoder import CosetTrellis, DecodeProblem


@dataclass
class DistanceResult:
    qubit: int
    sector: str  # "x", "z" or "pauli"
    kind: str  # "bit" or "word"
    value: int
    certified: bool  # always True: the trellis minimum is exact


def _sector_problem(code, qubit, sector, include_other_logicals):
    sx, sz, (x_reps, z_reps) = css_split(code)
    if sector == "x":
        target = x_reps[qubit]
        gens = list(sx.rows)
        others = [x_reps[j] for j in range(code.k) if j != qubit]
    else:
        target = z_reps[qubit]
        gens = list(sz.rows)
        others = [z_reps[j] for j in range(code.k) if j != qubit]
    if include_other_logicals:
        gens += others
    return DecodeProblem(target, gens, code.n)


def _symplectic_problem(code, qubit, include_other_logicals, objective):
    n = code.n
    target = code.logicals[qubit].x_rep
    target_v = target.x | (target.z << n)
    gens = [s.x | (s.z << n) for s in code.stabilizers]
    if include_other_logicals:
        for j, lq in enumerate(code.logicals):
            if j != qubit:
                gens.append(lq.x_rep.x | (lq.x_rep.z << n))
                gens.append(lq.z_rep.x | (lq.z_rep.z << n))
    fold = n if objective == "pauli" else None
    return DecodeProblem(target_v, gens, 2 * n, fold_shift=fold)


def _run(problem):
    trellis = CosetTrellis(problem.gens, problem.width, problem.fold_shift)
    return trellis.minimize(problem.target)[0]


def bit_distance(code: HolographicCode, qubit: int = 0, sector: str = "min",
                 objective: str = "pauli") -> DistanceResult:
    """Minimum weight of qubit i's logical class modulo stabilizers only.

    For CSS codes the X and Z sectors are solved separately; sector "min"
    reports the smaller of the two.  Non-CSS codes use one joint search
    over the full symplectic vector, by default minimizing Pauli weight;
    ``objective="hamming"`` counts a Y as two errors instead.
    """
    return _distance(code, qubit, sector, False, objective, "bit")


def word_distance(code: HolographicCode, qubit: int = 0, sector: str = "min",
                  objective: str = "pauli") -> DistanceResult:
    """Minimum weight of any logical operator with support on qubit i."""
    return _distance(code, qubit, sector, True, objective, "word")


def _distance(code, qubit, sector, with_others, objective, kind):
    if not 0 <= qubit < code.k:
        raise ValueError("qubit index out of range")
    if code.css:
        if sector in ("x", "z"):
            w = _run(_sector_problem(code, qubit, sector, with_others))
            return DistanceResult(qubit, sector, kind, w, True)
        wx = _run(_sector_problem(code, qubit, "x", with_others))
        wz = _run(_sector_problem(code, qubit, "z", with_others))
        return DistanceResult(qubit, "min", kind, min(wx, wz), True)
    w = _run(_symplectic_problem(code, qubit, with_others, objective))
    return DistanceResult(qubit, "pauli", kind, w, True)


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
