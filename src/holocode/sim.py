"""Monte Carlo failure-rate estimation and threshold extraction.

Fixed-weight depolarizing errors are decoded trial by trial; the
per-weight failure estimates are binomially mixed into a failure curve
against the physical error rate, and thresholds are read off curve
crossings between radii.  Every trial's randomness comes from a
counter-based Philox generator keyed by (seed, code, weight) whose
counter starts at the trial index, so results are bit-reproducible
regardless of how trials are distributed over workers.  The streams are
not independent: Philox4x64 advances its counter once per four outputs,
so trial t + 1 draws trial t's outputs from the fifth on.
"""

from __future__ import annotations

import csv
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .builder import HolographicCode
from .decoder import CodeDecoder
from .gf2 import PauliVector


@dataclass
class WeightRecord:
    """Failure tally at one fixed error weight."""

    a: int
    m: int
    f: int
    timeouts: int = 0  # always 0; kept as a column of saved curve CSVs

    @property
    def p(self) -> float:
        return self.f / self.m if self.m else 0.0

    @property
    def sigma(self) -> float:
        if not self.m:
            return 0.0
        return math.sqrt(self.p * (1.0 - self.p) / self.m)


@dataclass
class FailureCurve:
    """Per-weight failure estimates for one code and target qubit."""

    family: str
    variant: str
    radius: int
    n: int
    k: int
    target: int
    seed: int
    records: list = field(default_factory=list)

    def filled_probabilities(self):
        """P_failure and sigma for every a in 0..n; see ``_fill``."""
        return _fill(self.records, self.n)

    def mixed(self, p: float):
        return binomial_mix(self.records, p, self.n)

    def mixer(self):
        """``mixed`` as a function of p, with the records filled once."""
        filled = _fill(self.records, self.n)
        return lambda p: _mix(filled, p, self.n)


def _isotonic(y):
    """Pool-adjacent-violators: non-decreasing fit, used for fill anchors."""
    y = list(map(float, y))
    level = []  # (value, count)
    for v in y:
        level.append((v, 1))
        while len(level) > 1 and level[-2][0] > level[-1][0]:
            v2, c2 = level.pop()
            v1, c1 = level.pop()
            level.append(((v1 * c1 + v2 * c2) / (c1 + c2), c1 + c2))
    out = []
    for v, c in level:
        out.extend([v] * c)
    return np.array(out)


def _fill(records, n: int):
    """P_failure for every a in 0..n from the records' tallies.

    Sampled weights are kept as measured (after isotonic smoothing for
    interpolation anchors); unsampled weights get monotone piecewise
    linear fill with P(0) = 0 and a flat tail beyond the last sample.
    Returns (P array, sigma array) of length n + 1.
    """
    sampled = sorted(records, key=lambda r: r.a)
    if not sampled:
        raise ValueError("no records")
    xs = np.array([r.a for r in sampled], dtype=float)
    ps = np.array([r.p for r in sampled])
    ss = np.array([r.sigma for r in sampled])
    anchor = _isotonic(ps)
    allx = np.arange(n + 1, dtype=float)
    filled = np.interp(allx, xs, anchor)
    sig = np.interp(allx, xs, ss)
    for r in sampled:
        filled[r.a] = r.p
        sig[r.a] = r.sigma
    if xs[0] > 0:
        filled[: int(xs[0])] = np.linspace(0.0, anchor[0], int(xs[0]) + 1)[:-1]
    if 0 not in xs:
        filled[0] = 0.0
    return filled, sig


def _binomial_pmf(n: int, p: float):
    """Binomial(n, p) probabilities of 0..n, by the ratio recurrence.

    Starts from 1 at the mode and fills outwards with running products of
    w[k+1]/w[k] = (n-k)p / ((k+1)(1-p)), each factor at most 1, then
    normalizes.  No factorial is formed, nothing overflows, and the far
    tails underflow to 0.  p = 0 and p = 1 give exact one-hot rows.
    Raises ValueError for p outside [0, 1], NaN included.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    w = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        w[0 if p == 0.0 else n] = 1.0
        return w
    mode = min(int((n + 1) * p), n)
    up = np.arange(mode, n, dtype=float)  # k with w[k+1] from w[k]
    down = np.arange(mode, 0, -1, dtype=float)  # k with w[k-1] from w[k]
    w[mode] = 1.0
    w[mode + 1:] = np.cumprod((n - up) * p / ((up + 1) * (1 - p)))
    w[:mode] = np.cumprod(down * (1 - p) / ((n - down + 1) * p))[::-1]
    return w / w.sum()


def _mix(filled, p: float, n: int):
    """(p_failure, sigma) at rate p from ``_fill(records, n)``."""
    probs, sigmas = filled
    w = _binomial_pmf(n, p)
    return (float(np.dot(w, probs)),
            float(math.sqrt(np.dot(w * w, sigmas * sigmas))))


def binomial_mix(records, p: float, n: int):
    """Mix fixed-weight failure rates into p_failure(p, n).

    Exact weighted sum of P_failure(a, n) with Binomial(n, p) weights;
    missing weights are filled by the curve's monotone interpolation
    policy (``_fill``).  Returns (p_failure, sigma) with the per-weight
    uncertainties propagated in quadrature through the same weights.
    Raises ValueError for p outside [0, 1].
    """
    return _mix(_fill(records, n), p, n)


# -- trial execution -------------------------------------------------------


def _trial_rng(seed: int, code_key: str, a: int, trial: int) -> Generator:
    digest = hashlib.blake2b(
        f"{seed}:{code_key}:{a}".encode(), digest_size=16
    ).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return Generator(Philox(key=key, counter=[trial, 0, 0, 0]))


def sample_fixed_weight_error(n: int, a: int, rng: Generator) -> PauliVector:
    """A uniform weight-a depolarizing error: random size-a support, each
    supported qubit X, Y or Z with probability 1/3."""
    if not 0 <= a <= n:
        raise ValueError("weight outside [0, n]")
    support = rng.choice(n, size=a, replace=False)
    kinds = rng.integers(0, 3, size=a)
    x = z = 0
    for q, kind in zip(support.tolist(), kinds.tolist()):
        if kind != 2:  # X or Y
            x |= 1 << q
        if kind != 0:  # Z or Y
            z |= 1 << q
    return PauliVector(n, x, z)


def _code_key(code: HolographicCode, target: int) -> str:
    return f"{code.family}:{code.variant}:{code.radius}:{code.seed_name}:{target}"


def _run_chunk(decoder, code_key, target, a, trials, seed):
    n = decoder.n
    fails = 0
    for t in trials:
        rng = _trial_rng(seed, code_key, a, t)
        err = sample_fixed_weight_error(n, a, rng)
        corr, _ = decoder.decode(decoder.syndrome(err))
        effect = decoder.net_logical_effect(err.mul(corr))
        if effect == "detectable":
            raise AssertionError("correction does not satisfy the syndrome")
        if effect[target] != "I":
            fails += 1
    return fails


# Trials per task.  Curves do not depend on it: every trial's stream is
# keyed by its own index.
_CHUNK = 200

_WORKER = {}


def _worker_init(code):
    _WORKER["decoder"] = CodeDecoder(code)


def _worker_chunk(args, decoder=None):
    """One task's failures; workers use the decoder ``_worker_init`` made."""
    code_key, target, a, lo, hi, seed = args
    return a, _run_chunk(decoder or _WORKER["decoder"], code_key, target, a,
                         range(lo, hi), seed)


def _check_run(code: HolographicCode, target_qubit: int, m: int):
    if not 0 <= target_qubit < code.k:
        raise ValueError(f"target qubit {target_qubit} outside 0..{code.k - 1}")
    if m < 1:
        raise ValueError("need at least one trial per weight")


def run_trials(code: HolographicCode, target_qubit: int, a: int, m: int,
               seed: int, decoder: CodeDecoder | None = None) -> WeightRecord:
    """m decode trials at fixed error weight a; failures counted on the
    target qubit."""
    _check_run(code, target_qubit, m)
    dec = decoder or CodeDecoder(code)
    f = _run_chunk(dec, _code_key(code, target_qubit), target_qubit, a,
                   range(m), seed)
    return WeightRecord(a, m, f)


def simulate_code(code: HolographicCode, target_qubit: int = 0,
                  trials_per_weight: int = 1000, seed: int = 0,
                  weights="auto", threads: int = 1) -> FailureCurve:
    """Estimate P_failure(a, n) over an error-weight schedule.

    ``weights`` is "all" (every 0..n), "auto" (all for n <= 50, else an
    adaptive grid refined where the curve is steep), or an explicit list.
    Deterministic for fixed seed independent of ``threads``.
    """
    _check_run(code, target_qubit, trials_per_weight)
    n = code.n
    curve = FailureCurve(code.family, code.variant, code.radius, n, code.k,
                         target_qubit, seed)
    key = _code_key(code, target_qubit)

    pool = None
    dec = None
    if threads > 1:
        pool = ProcessPoolExecutor(
            max_workers=threads, initializer=_worker_init, initargs=(code,),
        )
    else:
        dec = CodeDecoder(code)

    def measure(a_list, m):
        tasks = []
        for a in sorted(a_list):
            for lo in range(0, m, _CHUNK):
                tasks.append((key, target_qubit, a, lo, min(lo + _CHUNK, m), seed))
        tally = {a: 0 for a in a_list}
        if pool is not None:
            results = pool.map(_worker_chunk, tasks)
        else:
            results = (_worker_chunk(args, dec) for args in tasks)
        for a, f in results:
            tally[a] += f
        for a in sorted(a_list):
            curve.records.append(WeightRecord(a, m, tally[a]))

    try:
        if weights == "all" or (weights == "auto" and n <= 50):
            measure(list(range(n + 1)), trials_per_weight)
        elif weights == "auto":
            grid = _coarse_grid(n)
            measure(grid, trials_per_weight)
            for _ in range(12):
                new = _refine(curve)
                if not new:
                    break
                measure(new, trials_per_weight)
        else:
            measure(sorted(set(weights)), trials_per_weight)
    finally:
        if pool is not None:
            pool.shutdown()
    curve.records.sort(key=lambda r: r.a)
    return curve


# The "auto" schedule samples at most this many weights.
_MAX_WEIGHTS = 64


def _coarse_grid(n: int) -> list:
    return sorted({0, 1, 2, n} | {round(n ** (i / 20)) for i in range(1, 20)})


def _refine(curve: FailureCurve):
    """Midpoints of steep intervals of the measured curve, if any; an
    interval with both rates below 0.02 or both above 0.98 is flat."""
    recs = sorted(curve.records, key=lambda r: r.a)
    if len(recs) >= _MAX_WEIGHTS:
        return []
    new = []
    for r1, r2 in zip(recs, recs[1:]):
        if r2.a - r1.a <= 1:
            continue
        lo, hi = sorted((r1.p, r2.p))
        if hi < 0.02 or lo > 0.98:
            continue
        if hi - lo > 0.08 or (r2.a - r1.a > 8 and hi <= 0.98):
            new.append((r1.a + r2.a) // 2)
    return sorted(set(new))[: _MAX_WEIGHTS - len(recs)]


# -- thresholds ------------------------------------------------------------


# The crossing search: a scan of rates, then bisection of one bracket.
_SCAN = np.linspace(0.005, 0.5, 200)
_BISECT_STEPS = 60


def estimate_threshold(curves):
    """Crossing point of failure curves at adjacent radii.

    For every adjacent pair (sorted by radius), finds where the mixed-curve
    difference P_small - P_large turns from positive to negative (the
    larger code stops winning): a scan of 200 evenly spaced rates from
    0.005 to 0.5, then 60 bisection steps in the first bracket; a turn from
    negative to positive, as low-count noise below the crossing can give,
    is not a threshold.  Each curve's ``mixer`` gives its mixed values, so
    its records are filled once per pair.  Returns (p_th, (lo, hi), pairs)
    with the mean crossing and the spread across pairs.  Raises ValueError
    when no pair of curves crosses.
    """
    curves = sorted(curves, key=lambda c: c.radius)
    if len(curves) < 2:
        raise ValueError("need at least two curves")
    crossings = []
    pairs = []
    for ca, cb in zip(curves, curves[1:]):
        root = _crossing(ca, cb)
        pairs.append({"radii": (ca.radius, cb.radius), "crossing": root})
        if root is not None:
            crossings.append(root)
    if not crossings:
        raise ValueError("no crossing in range: curves do not intersect")
    return (
        sum(crossings) / len(crossings),
        (min(crossings), max(crossings)),
        pairs,
    )


def _crossing(ca, cb):
    mix_a, mix_b = ca.mixer(), cb.mixer()

    def diff(p):
        return mix_a(p)[0] - mix_b(p)[0]

    steps = [(p, diff(p)) for p in _SCAN]
    for (p1, v1), (p2, v2) in zip(steps, steps[1:]):
        if v1 > 0.0 > v2:
            lo, hi = p1, p2
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                fmid = diff(mid)
                if fmid == 0.0:
                    return mid
                if fmid < 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    # No strict sign change: curves may meet tangentially (e.g. both
    # saturate).  Bisect the boundary of the first positive -> zero run.
    for (p1, v1), (p2, v2) in zip(steps, steps[1:]):
        if v1 > 0.0 and v2 == 0.0:
            lo, hi = p1, p2
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                if diff(mid) == 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    return None


# -- persistence -----------------------------------------------------------

CSV_FIELDS = ["family", "variant", "R", "n", "k", "target", "a", "m", "f",
              "P", "sigma", "timeouts"]


def write_curve_csv(curve: FailureCurve, path: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in curve.records:
            w.writerow([curve.family, curve.variant, curve.radius, curve.n,
                        curve.k, curve.target, r.a, r.m, r.f,
                        repr(r.p), repr(r.sigma), r.timeouts])


def read_curve_csv(path: str) -> FailureCurve:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"empty curve file: {path}")
    first = rows[0]
    curve = FailureCurve(first["family"], first["variant"], int(first["R"]),
                         int(first["n"]), int(first["k"]),
                         int(first["target"]), 0)
    keys = ("family", "variant", "R", "n", "k", "target")
    for row in rows:
        r = WeightRecord(int(row["a"]), int(row["m"]), int(row["f"]),
                         int(row["timeouts"]))
        differ = [key for key in keys if row[key] != first[key]]
        if differ:
            raise ValueError(f"{path}: row a={r.a} differs from the first row "
                             f"in {', '.join(differ)}")
        if not (0 <= r.a <= curve.n and r.m >= 1 and 0 <= r.f <= r.m):
            raise ValueError(f"{path}: row a={r.a} m={r.m} f={r.f} is not "
                             f"0 <= a <= n={curve.n}, m >= 1, 0 <= f <= m")
        if any(q.a == r.a for q in curve.records):
            raise ValueError(f"{path}: weight a={r.a} appears twice")
        curve.records.append(r)
    curve.records.sort(key=lambda r: r.a)
    return curve


def plot_data(curve: FailureCurve, p_values) -> list:
    """(p, p_failure, sigma) rows for external plotting."""
    return [(p, *curve.mixed(p)) for p in p_values]
