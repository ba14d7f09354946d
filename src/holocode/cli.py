"""Command-line entry point.

Subcommands: build, verify, decode, distance, simulate, threshold,
plotdata, reproduce.  Flags override values from an optional JSON config
file (--config), which override defaults.  A command that writes output
also writes its run record (a manifest) next to it, holding every argument
of the subcommand but --threads, so --config manifest.json replays it.
Exit codes: 0 success, 2 invariant failure (or no crossing), 3 trellis
state limit exceeded, 4 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys

import numpy as np
import scipy

from . import __version__
from .builder import HolographicCode, build_code
from .decoder import CodeDecoder, TrellisLimitError
from .distance import bit_distance, fit_distance_scaling, word_distance
from .seeds import (
    CATALOG,
    blank_tile,
    fixed_tile,
    is_block_perfect,
    is_perfect,
)
from .sim import (
    estimate_threshold,
    plot_data,
    read_curve_csv,
    simulate_code,
    write_curve_csv,
)
from .tiling import REFERENCE_BOUNDARY_COUNTS, SUPPORTED, build_tiling, counts

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_STATE_LIMIT = 3
EXIT_BAD_INPUT = 4


def _threads_default():
    env = os.environ.get("HOLOCODE_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HOLOCODE_THREADS={env!r} is not an integer") from None
    return os.cpu_count() or 1


def _write_json(path, obj):
    """Write obj as indented, key-sorted JSON to path, if one is given, and
    return the text."""
    text = json.dumps(obj, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _write_manifest(parser, args):
    """Write the run record of a finished command next to its output:
    ``<out_dir>/manifest.json``, else ``<out>.manifest.json``, else none.

    Its config is every argument of the subcommand but ``threads``: curves
    do not depend on the worker count, and a replay sizes its own pool.
    """
    if getattr(args, "out_dir", None):
        path = os.path.join(args.out_dir, "manifest.json")
    elif getattr(args, "out", None):
        path = args.out + ".manifest.json"
    else:
        return
    keys = _subcommand_dests(parser, args.subcommand) - {"help", "threads"}
    _write_json(path, {
        "subcommand": args.subcommand,
        "config": {k: getattr(args, k) for k in keys},
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    })


# -- build ------------------------------------------------------------------


def cmd_build(args):
    code = build_code(args.family, args.variant, args.radius, args.seed_code)
    n, k = code.n, code.k
    print(f"family={code.family} variant={code.variant} R={code.radius} "
          f"seed={code.seed_name}")
    print(f"n={n} k={k} rate={k / n:.6f} css={code.css}")
    if args.out:
        code.save(args.out)
        print(f"wrote {args.out}.tab / {args.out}.json")
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def _valid(obj):
    obj.validate()
    return True


def _verify_checks(max_radius):
    from .seeds import five_qubit_tensor, scf_tensor, steane_tensor

    yield "seed steane block-perfect", lambda: is_block_perfect(steane_tensor())
    yield "seed steane not perfect", lambda: not is_perfect(steane_tensor())
    yield "seed scf block-perfect", lambda: is_block_perfect(scf_tensor())
    yield "seed scf not perfect", lambda: not is_perfect(scf_tensor())
    yield "seed five_qubit perfect", lambda: is_perfect(five_qubit_tensor())
    for name, make in CATALOG.items():
        yield (f"seed {name} tableau invariants",
               lambda make=make: _valid(make()))
    yield "blank tile scf is [[6,0]]", lambda: (
        blank_tile(scf_tensor()).n == 6 and blank_tile(scf_tensor()).k == 0
    )
    yield "fixed tile scf is [[5,0]]", lambda: (
        fixed_tile(scf_tensor()).n == 5 and fixed_tile(scf_tensor()).k == 0
    )
    for (fam, var), ns in REFERENCE_BOUNDARY_COUNTS.items():
        for R, expect in enumerate(ns, start=1):
            yield (f"tiling {fam}/{var} R={R} n={expect}",
                   lambda fam=fam, var=var, R=R, expect=expect:
                   counts(build_tiling(fam, R, var))[0] == expect)
    for fam, var in sorted(SUPPORTED):
        for R in range(1, max_radius + 1):
            yield (f"code invariants {fam}/{var} R={R}",
                   lambda fam=fam, var=var, R=R:
                   _valid(build_code(fam, var, R)))


def cmd_verify(args):
    failures = 0
    for name, check in _verify_checks(args.max_radius):
        try:
            ok = check()
        except Exception as exc:  # structural failure surfaces as diagnostic
            ok = False
            name = f"{name} ({exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# -- decode -----------------------------------------------------------------


def _parse_syndrome(text):
    """0/1 digits, bit 0 first, or 0x hex."""
    text = text.strip()
    if re.fullmatch("[01]+", text):
        return int(text[::-1], 2)
    if re.fullmatch("0[xX][0-9a-fA-F]+", text):
        return int(text, 16)
    raise ValueError(f"syndrome {text!r} is neither 0/1 digits nor 0x hex")


def cmd_decode(args):
    dec = CodeDecoder(HolographicCode.load(args.code))
    corr, _ = dec.decode(dec.split_syndrome(_parse_syndrome(args.syndrome)))
    print(f"correction: {corr.to_string()}")
    print(f"weight: {corr.weight()}")
    return EXIT_OK


# -- distance ---------------------------------------------------------------


def _distance_fields(code, qubit, sector="min"):
    """A table row's bit distance fields, and its word distance fields when
    k > 1 (with one logical qubit the two coincide)."""
    fields = {"bit_distance": bit_distance(code, qubit, sector=sector).value}
    if code.k > 1:
        fields["word_distance"] = word_distance(code, qubit,
                                                sector=sector).value
    return fields


def cmd_distance(args):
    code = build_code(args.family, args.variant, args.radius, args.seed_code)
    if args.qubit == "all":
        qubits = list(range(code.k))
    elif args.qubit == "central":
        qubits = [0]
    else:
        qubits = [int(args.qubit)]
    rows = []
    for q in qubits:
        fields = _distance_fields(code, q, args.sector)  # checks q's range
        row = {"family": code.family, "variant": code.variant,
               "R": code.radius, "n": code.n, "qubit": q,
               "layer": code.logicals[q].layer, **fields}
        rows.append(row)
        print(json.dumps(row, sort_keys=True))
    _write_json(args.out, rows)
    return EXIT_OK


# -- simulate / threshold / plotdata ----------------------------------------


def cmd_simulate(args):
    code = build_code(args.family, args.variant, args.radius, args.seed_code)
    weights = args.weights
    if weights not in ("all", "auto"):
        weights = [int(w) for w in weights.split(",")]
    target = 0 if args.target == "central" else int(args.target)
    curve = simulate_code(
        code, target_qubit=target, trials_per_weight=args.trials_per_weight,
        seed=args.seed, weights=weights, threads=args.threads,
    )
    write_curve_csv(curve, args.out)
    print(f"wrote {args.out} ({len(curve.records)} weights)")
    return EXIT_OK


def _threshold_fields(curves):
    """``estimate_threshold`` of the curves as JSON fields, or {"error": ...}
    when no pair crosses."""
    try:
        p_th, bracket, pairs = estimate_threshold(curves)
    except ValueError as exc:
        return {"error": str(exc)}
    return {"p_th": p_th, "bracket": list(bracket),
            "pairs": [{"radii": list(p["radii"]), "crossing": p["crossing"]}
                      for p in pairs]}


def _check_radii(radii, what):
    """Raise ValueError unless there are radii, all at least 1 and none
    repeated; ``what`` names them in the message."""
    radii = sorted(radii)
    if not radii or radii[0] < 1:
        raise ValueError(f"{what} need radii of 1 or more, got {radii}")
    if len(set(radii)) < len(radii):
        raise ValueError(f"{what} repeat a radius: {radii}")


def cmd_threshold(args):
    if len(args.results) < 2:
        raise ValueError("threshold needs at least two curve files")
    curves = [read_curve_csv(p) for p in args.results]
    for key in ("family", "variant", "target"):
        if len({getattr(c, key) for c in curves}) > 1:
            raise ValueError(f"threshold curves differ in {key}")
    _check_radii([c.radius for c in curves], "threshold curves")
    out = _threshold_fields(curves)
    print(_write_json(args.out, out))
    return EXIT_INVARIANT if "error" in out else EXIT_OK


def cmd_plotdata(args):
    curve = read_curve_csv(args.results)
    ps = np.linspace(args.p_min, args.p_max, args.p_steps)
    rows = plot_data(curve, ps)
    with open(args.out, "w") as fh:
        fh.write("p,p_failure,sigma\n")
        for p, v, s in rows:
            fh.write(f"{p!r},{v!r},{s!r}\n")
    print(f"wrote {args.out}")
    return EXIT_OK


# -- reproduce --------------------------------------------------------------

# id -> (kind, (family, variant) rows, default of its radius flag, desk
# radius).  A "curves" recipe simulates each --radii code and finds the
# crossing; a "table" or "fit" recipe takes central distances from R=1 to
# --max-radius and writes the rows, or the (n, distance) points and their
# fitted exponents.  Above its desk radius a recipe warns that it may run
# long.  The reduced-rate R=2 and R=3 curves do not cross, so fig3b pairs
# the same-parity radii; fig3c at R=4 sums 62.7M states a sweep.
RECIPES = {
    "table3": ("table", (("heptagon", "max"), ("pentagon", "reduced"),
                         ("pentagon", "zero")), 3, 4),
    "fig3a": ("curves", (("heptagon", "max"),), "2,3", None),
    "fig3b": ("curves", (("pentagon", "reduced"),), "1,3", None),
    "fig3c": ("curves", (("pentagon", "zero"),), "1,2", 3),
    "fig5": ("fit", (("heptagon", "max"),), 3, 4),
}


def cmd_reproduce(args):
    kind, families, default, desk = RECIPES[args.id]
    used, other = (("radii", "max_radius") if kind == "curves"
                   else ("max_radius", "radii"))
    if getattr(args, other) is not None:  # recorded as null: it did not run
        print(f"warning: reproduce {args.id} takes --{used.replace('_', '-')}"
              f"; ignoring --{other.replace('_', '-')} {getattr(args, other)}",
              file=sys.stderr)
        setattr(args, other, None)
    if getattr(args, used) is None:
        setattr(args, used, default)  # so the run record holds the radii
    if kind == "curves":
        radii = [int(r) for r in args.radii.split(",")]
    else:
        radii = list(range(1, args.max_radius + 1))
    _check_radii(radii, f"reproduce {args.id} runs")
    for R in radii:
        if desk is not None and R > desk:
            print(f"warning: {args.id} R={R} is above its desk radius "
                  f"{desk}; expect long runtimes", file=sys.stderr)
    args.out_dir = args.out_dir or f"reproduce_{args.id}"
    os.makedirs(args.out_dir, exist_ok=True)
    rows, curves = [], []
    for fam, var in families:
        for R in radii:
            code = build_code(fam, var, R)
            if kind == "curves":
                curves.append(simulate_code(
                    code, target_qubit=0, trials_per_weight=args.trials,
                    seed=args.seed, weights="auto", threads=args.threads))
                path = os.path.join(args.out_dir, f"{args.id}_R{R}.csv")
                write_curve_csv(curves[-1], path)
                print(f"wrote {path}")
                continue
            rows.append({"family": fam, "variant": var, "R": R, "n": code.n,
                         "k": code.k, **_distance_fields(code, 0)})
            if kind == "table":
                print(json.dumps(rows[-1], sort_keys=True))
    if kind == "curves":
        out = _threshold_fields(curves) if len(curves) >= 2 else {}
        print(_write_json(os.path.join(args.out_dir,
                                       f"{args.id}_threshold.json"), out))
        return EXIT_INVARIANT if "error" in out else EXIT_OK
    path = os.path.join(args.out_dir, f"{args.id}.json")
    if kind == "table":
        _write_json(path, rows)
        return EXIT_OK
    out = {"bit_points": [(r["n"], r["bit_distance"]) for r in rows],
           "word_points": [(r["n"], r.get("word_distance", r["bit_distance"]))
                           for r in rows]}
    for name in ("bit", "word") if len(rows) >= 3 else ():
        out[f"{name}_exponent"], ci = fit_distance_scaling(
            out[f"{name}_points"])
        out[f"{name}_ci95"] = list(ci)
    print(_write_json(path, out))
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def make_parser():
    top = argparse.ArgumentParser(prog="holocode", description=__doc__)
    top.add_argument("--config", help="JSON file with default argument values")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def family_flags(p, seed=True):
        p.add_argument("--family", required=True,
                       choices=["heptagon", "pentagon"])
        p.add_argument("--variant", required=True,
                       choices=["max", "reduced", "zero"])
        p.add_argument("--radius", type=int, required=True)
        if seed:
            p.add_argument("--seed-code", dest="seed_code", default=None,
                           choices=list(CATALOG))

    p = sub.add_parser("build", help="build a code and write it to disk")
    family_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run structural invariant checks")
    p.add_argument("--max-radius", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", help="decode one syndrome")
    p.add_argument("--code", required=True, help="code file prefix")
    p.add_argument("--syndrome", required=True,
                   help="bit i is the parity with stabilizer i of the saved "
                        "code: 0/1 digits, bit 0 first, or 0x hex")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("distance", help="bit/word distances")
    family_flags(p)
    p.add_argument("--qubit", default="central",
                   help="central, all, or a qubit index")
    p.add_argument("--sector", choices=["x", "z", "min"], default="min")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("simulate", help="Monte Carlo failure curve")
    family_flags(p)
    p.add_argument("--weights", default="auto",
                   help="all, auto, or comma-separated weights")
    p.add_argument("--trials-per-weight", dest="trials_per_weight", type=int,
                   default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="central")
    p.add_argument("--threads", type=int, default=_threads_default())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold", help="crossing of failure curves")
    p.add_argument("results", nargs="+", help="curve CSV files")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("plotdata", help="mixed curve table for plotting")
    p.add_argument("results", help="curve CSV file")
    p.add_argument("--p-min", dest="p_min", type=float, default=0.0)
    p.add_argument("--p-max", dest="p_max", type=float, default=0.3)
    p.add_argument("--p-steps", dest="p_steps", type=int, default=61)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("reproduce", help="canned desk-scale pipelines")
    p.add_argument("id", choices=list(RECIPES))

    def defaults(*kinds):
        return ", ".join(f"{default} for {name}" for name, (kind, _, default,
                         _) in RECIPES.items() if kind in kinds)

    p.add_argument("--max-radius", dest="max_radius", type=int, default=None,
                   help="distances from R=1 to this radius (default: "
                        f"{defaults('table', 'fit')})")
    p.add_argument("--radii", default=None,
                   help="comma-separated curve radii (default: "
                        f"{defaults('curves')})")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_threads_default())
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_reproduce)

    return top


def _subcommand_dests(parser, name):
    """Argument names the named subcommand defines, or None if unknown."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and name in action.choices:
            return {a.dest for a in action.choices[name]._actions}
    return None


def _inject_config(parser, argv):
    """Turn ``--config FILE`` in argv into flags, in place.

    Config/manifest values are injected as flags unless already given,
    so explicit flags win and replaying a manifest reproduces the run.
    Keys the subcommand does not take (say, options since removed) are
    dropped with a warning, so older manifests still replay.
    """
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a file name")
    path = argv[idx + 1]
    del argv[idx:idx + 2]
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    config = loaded.get("config", loaded) if isinstance(loaded, dict) else None
    if not isinstance(config, dict):
        raise ValueError(f"config {path}: not a JSON object of argument values")
    sub = loaded.get("subcommand")
    if sub and (not argv or argv[0] != sub):
        argv.insert(0, sub)
    known = _subcommand_dests(parser, argv[0] if argv else None)
    dropped = sorted(set(config) - known) if known is not None else []
    if dropped:
        print(f"warning: {path}: ignoring keys that {argv[0]} does not "
              f"take: {', '.join(dropped)}", file=sys.stderr)
    for key, value in config.items():
        if value is None or key in dropped:
            continue
        if key == "id":
            if len(argv) < 2 or argv[1].startswith("-"):
                argv.insert(1, str(value))
        elif key == "results":
            vals = value if isinstance(value, list) else [value]
            argv.extend(str(v) for v in vals)
        else:
            flag = "--" + key.replace("_", "-")
            if not any(a == flag or a.startswith(flag + "=") for a in argv):
                argv.extend([flag, str(value)])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = make_parser()
        if "--config" in argv:
            _inject_config(parser, argv)
        args = parser.parse_args(argv)
        rc = args.func(args)
        _write_manifest(parser, args)
        return rc
    except SystemExit as exc:  # argparse: --help, or flags it rejects
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    except TrellisLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE_LIMIT
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
