"""Per-logical-qubit bit and word distances via the coset minimizer.

The bit distance of qubit i is the minimum weight of a representative of
its logical class that acts trivially on all other logical qubits (coset
over stabilizers only).  The word distance also allows non-trivial action
on the other qubits (coset over stabilizers plus the other qubits' logical
rows) and is never larger.  Both read the sectors of
``decoder.coset_sectors``, the rows the decoder minimizes over, and target
qubit i's first logical row there.  Sectors that pose the same coset
problem (same rows, width, target and fold) are swept once: the X and Z
sectors of a self-dual CSS code, every heptagon/max code among them.
"""

from __future__ import annotations

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
    weights = {}  # one sweep per distinct coset problem
    for s in chosen:
        rows = list(s.stabilizers)
        if with_others:
            rows += [r for j, qubit_rows in enumerate(s.logicals) if j != qubit
                     for r in qubit_rows]
        target = s.logicals[qubit][0]
        key = (tuple(rows), s.width, target, s.fold)
        if key not in weights:
            weights[key] = coset_weight(rows, s.width, target,
                                        fold_shift=s.fold)
    if len(chosen) == 1:
        sector = chosen[0].name
    return DistanceResult(qubit, sector, kind, min(weights.values()), True)


# scipy.special.stdtrit(df, 0.975), the two-sided 95% t quantile, for
# df = 1..30 (index df - 1).  Written as repr of the float64 values, so
# each reads back to the same bits.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


def _t975(df):
    if df <= len(_T975):
        return _T975[df - 1]
    from scipy.special import stdtrit

    return stdtrit(df, 0.975)


def fit_distance_scaling(points):
    """Least-squares power-law fit of distance against qubit count.

    ``points`` is a list of (n, d); returns (exponent, (lo, hi)) with a
    95% confidence interval from the t-distribution.  Needs >= 3 points.
    The slope and its standard error are ``scipy.stats.linregress``'s
    closed form, and the t quantile is the ``stdtrit`` that
    ``scipy.stats.t.ppf`` calls, so the fit equals scipy's bit for bit.
    Up to 32 points the quantile comes from ``_T975`` and the fit loads
    no scipy module; more points import ``scipy.special``.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    if np.ptp(x) == 0:
        raise ValueError("degenerate points")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    df = len(points) - 2
    if ssym == 0.0:  # constant distances: linregress's r is NaN
        stderr = np.nan
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
        stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    half = _t975(df) * stderr if np.isfinite(stderr) else 0.0
    return slope, (slope - half, slope + half)
