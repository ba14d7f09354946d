"""Command-line interface: subcommands, manifests, exit codes."""

import json
import os

import numpy as np
import pytest

from holocode.builder import HolographicCode
from holocode.cli import main
from holocode.decoder import CodeDecoder
from holocode.gf2 import symplectic_product
from holocode.sim import sample_fixed_weight_error
from holocode.tiling import SUPPORTED


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_build_prints_counts(tmp_path, capsys):
    out = str(tmp_path / "code")
    rc, stdout, _ = run(["build", "--family", "heptagon", "--variant", "max",
                         "--radius", "2", "--out", out], capsys)
    assert rc == 0
    assert "n=42 k=8" in stdout
    assert os.path.exists(out + ".tab")
    assert os.path.exists(out + ".json")
    assert os.path.exists(out + ".manifest.json")


def test_build_zero_rate_five_qubit(tmp_path, capsys):
    rc, stdout, _ = run(["build", "--family", "pentagon", "--variant", "zero",
                         "--radius", "3", "--seed-code", "five_qubit"], capsys)
    assert rc == 0
    assert "n=95 k=1" in stdout


def test_build_reduced_radius_one(tmp_path, capsys):
    rc, stdout, _ = run(["build", "--family", "pentagon", "--variant",
                         "reduced", "--radius", "1", "--seed-code", "scf"],
                        capsys)
    assert rc == 0
    assert "n=5 k=1" in stdout


def test_build_bad_combination_exit_code(capsys):
    rc, _, err = run(["build", "--family", "heptagon", "--variant", "reduced",
                      "--radius", "2"], capsys)
    assert rc == 4
    assert "unsupported" in err


def test_decode_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "1",
         "--out", out], capsys)
    rc, stdout, _ = run(["decode", "--code", out, "--syndrome", "0x1"],
                        capsys)
    assert rc == 0
    assert "correction:" in stdout


def test_decode_binary_syndrome(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "1",
         "--out", out], capsys)
    rc, stdout, _ = run(["decode", "--code", out, "--syndrome", "100000"],
                        capsys)
    assert rc == 0
    assert "weight: 1" in stdout


def test_decode_non_css_code_matches_decoder(tmp_path, capsys):
    out = str(tmp_path / "zero1")
    run(["build", "--family", "pentagon", "--variant", "zero", "--radius",
         "1", "--out", out], capsys)
    code = HolographicCode.load(out)
    assert not code.css
    dec = CodeDecoder(code)
    for y in range(1 << (code.n - code.k)):
        rc, stdout, _ = run(["decode", "--code", out, "--syndrome", hex(y)],
                            capsys)
        assert rc == 0
        corr, _ = dec.decode(y)
        assert f"correction: {corr.to_string()}" in stdout
        assert f"weight: {corr.weight()}" in stdout


@pytest.mark.parametrize("family,variant", sorted(SUPPORTED))
def test_decode_packed_syndrome_matches_decoder(tmp_path, capsys, family,
                                                variant):
    # The packed syndrome's bit i is the parity with stabilizer i of the
    # saved code, whatever the code's sectors.
    rng = np.random.default_rng(5)
    for radius in ("1", "2"):
        out = str(tmp_path / f"code{radius}")
        run(["build", "--family", family, "--variant", variant, "--radius",
             radius, "--out", out], capsys)
        code = HolographicCode.load(out)
        dec = CodeDecoder(code)
        for a in (1, 1, 2, 2):
            err = sample_fixed_weight_error(code.n, a, rng)
            y = sum(symplectic_product(err, s) << i
                    for i, s in enumerate(code.stabilizers))
            rc, stdout, _ = run(["decode", "--code", out, "--syndrome",
                                 hex(y)], capsys)
            assert rc == 0
            corr, _ = dec.decode(dec.syndrome(err))
            assert f"correction: {corr.to_string()}\n" in stdout


def test_decode_syndrome_format(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "1",
         "--out", out], capsys)
    # 0/1 digits read bit 0 first, so "011" is 0x6.
    _, want, _ = run(["decode", "--code", out, "--syndrome", "0x6"], capsys)
    for text in ("011", "0X6", " 011 "):
        assert run(["decode", "--code", out, "--syndrome", text],
                   capsys)[1] == want
    for text in ("12", "0b110", "6", "", "0x", "0x1_0", "0xg", "0x1000000"):
        rc, stdout, stderr = run(["decode", "--code", out, "--syndrome",
                                  text], capsys)
        assert rc == 4, text
        assert stdout == "" and stderr.startswith("error: "), text


def test_decode_mode_flag_is_gone(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "1",
         "--out", out], capsys)
    for flag in (["--mode", "symplectic"], ["--objective", "pauli"]):
        rc, _, _ = run(["decode", "--code", out, "--syndrome", "0x1", *flag],
                       capsys)
        assert rc == 4, flag


def test_trellis_state_limit_exits_3(monkeypatch, capsys):
    import holocode.distance as distance

    real = distance.coset_weight
    monkeypatch.setattr(distance, "coset_weight",
                        lambda *a, **k: real(*a, state_limit=4, **k))
    rc, stdout, err = run(["distance", "--family", "heptagon", "--variant",
                           "max", "--radius", "2"], capsys)
    assert rc == 3
    assert stdout == ""
    assert "above the limit of 4" in err


def test_distance_sector_the_code_lacks_is_bad_input(capsys):
    rc, stdout, stderr = run(["distance", "--family", "pentagon", "--variant",
                              "zero", "--radius", "1", "--sector", "x"],
                             capsys)
    assert rc == 4
    assert stdout == "" and "sector 'x'" in stderr


def test_distance_json(tmp_path, capsys):
    out = str(tmp_path / "dist.json")
    rc, stdout, _ = run(["distance", "--family", "pentagon", "--variant",
                         "reduced", "--radius", "2", "--qubit", "central",
                         "--out", out], capsys)
    assert rc == 0
    rows = json.load(open(out))
    assert rows[0]["bit_distance"] == 4


def test_simulate_threshold_plotdata_pipeline(tmp_path, capsys):
    csv1 = str(tmp_path / "r1.csv")
    csv2 = str(tmp_path / "r2.csv")
    for radius, path in (("1", csv1), ("2", csv2)):
        rc, _, _ = run(["simulate", "--family", "heptagon", "--variant",
                        "max", "--radius", radius, "--weights", "all",
                        "--trials-per-weight", "40", "--seed", "3",
                        "--threads", "1", "--out", path], capsys)
        assert rc == 0
        assert os.path.exists(path)
        assert os.path.exists(path + ".manifest.json")
    outj = str(tmp_path / "th.json")
    rc, stdout, _ = run(["threshold", csv1, csv2, "--out", outj], capsys)
    report = json.loads(open(outj).read())
    if rc == 0:
        assert 0 < report["p_th"] < 0.5
    else:
        assert "error" in report
    outc = str(tmp_path / "plot.csv")
    rc, _, _ = run(["plotdata", csv2, "--p-min", "0.0", "--p-max", "0.2",
                    "--p-steps", "5", "--out", outc], capsys)
    assert rc == 0
    lines = open(outc).read().strip().splitlines()
    assert lines[0] == "p,p_failure,sigma"
    assert len(lines) == 6


def test_simulate_manifest_replay_byte_identical(tmp_path, capsys):
    first = str(tmp_path / "a.csv")
    rc, _, _ = run(["simulate", "--family", "pentagon", "--variant", "max",
                    "--radius", "1", "--seed-code", "scf", "--weights", "all",
                    "--trials-per-weight", "30", "--seed", "12",
                    "--threads", "1", "--out", first], capsys)
    assert rc == 0
    second = str(tmp_path / "b.csv")
    rc, _, _ = run(["--config", first + ".manifest.json", "simulate",
                    "--out", second], capsys)
    assert rc == 0
    assert open(first).read() == open(second).read()


def test_replay_explicit_flag_with_equals_wins(tmp_path, capsys):
    first = str(tmp_path / "a")
    rc, _, _ = run(["build", "--family", "heptagon", "--variant", "max",
                    "--radius", "1", "--out", first], capsys)
    assert rc == 0
    before = open(first + ".tab").read()
    os.remove(first + ".tab")
    second = str(tmp_path / "b")
    rc, _, _ = run(["--config", first + ".manifest.json", "build",
                    "--out=" + second], capsys)
    assert rc == 0
    assert open(second + ".tab").read() == before
    assert not os.path.exists(first + ".tab")


def test_replay_skips_keys_the_subcommand_no_longer_takes(tmp_path, capsys):
    first = str(tmp_path / "a.csv")
    rc, _, _ = run(["simulate", "--family", "pentagon", "--variant", "max",
                    "--radius", "1", "--seed-code", "scf", "--weights", "1,2",
                    "--trials-per-weight", "20", "--seed", "3",
                    "--threads", "1", "--out", first], capsys)
    assert rc == 0
    manifest = json.load(open(first + ".manifest.json"))
    manifest["config"]["timeout"] = 60.0  # an option older manifests hold
    old = str(tmp_path / "old.manifest.json")
    json.dump(manifest, open(old, "w"))
    second = str(tmp_path / "b.csv")
    rc, _, stderr = run(["--config", old, "simulate", "--out", second], capsys)
    assert rc == 0
    assert "timeout" in stderr
    assert open(first).read() == open(second).read()


def test_verify_passes(capsys):
    rc, stdout, _ = run(["verify", "--max-radius", "2"], capsys)
    assert rc == 0
    assert "FAIL" not in stdout
    assert "tiling heptagon/max R=6 n=22337" in stdout
    assert stdout.strip().endswith("0 failure(s)")


def test_reproduce_table3_small(tmp_path, capsys):
    outdir = str(tmp_path / "rep")
    rc, stdout, _ = run(["reproduce", "table3", "--max-radius", "1",
                         "--out-dir", outdir], capsys)
    assert rc == 0
    rows = json.load(open(os.path.join(outdir, "table3.json")))
    by_key = {(r["family"], r["variant"]): r for r in rows}
    assert by_key[("heptagon", "max")]["bit_distance"] == 3
    assert by_key[("pentagon", "reduced")]["bit_distance"] == 2
    assert by_key[("pentagon", "zero")]["bit_distance"] == 3


def test_reproduce_fig5_fits(tmp_path, capsys):
    outdir = str(tmp_path / "rep5")
    rc, stdout, _ = run(["reproduce", "fig5", "--max-radius", "3",
                         "--out-dir", outdir], capsys)
    assert rc == 0
    report = json.load(open(os.path.join(outdir, "fig5.json")))
    assert report["bit_points"][0][:2] == [7, 3]
    assert "bit_exponent" in report


def test_reproduce_fig3b_default_radii(tmp_path, capsys):
    outdir = str(tmp_path / "rep3b")
    run(["reproduce", "fig3b", "--trials", "10", "--threads", "1",
         "--out-dir", outdir], capsys)
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["config"]["radii"] == "1,3"
    for name in ("fig3b_R1.csv", "fig3b_R3.csv"):
        assert os.path.exists(os.path.join(outdir, name))


def test_unknown_subcommand_is_bad_input(capsys):
    assert main(["frobnicate"]) == 4


def test_config_without_file_is_bad_input(capsys):
    rc, _, stderr = run(["--config"], capsys)
    assert rc == 4
    assert stderr.startswith("error: ")


def test_missing_config_file_is_bad_input(tmp_path, capsys):
    rc, _, stderr = run(["--config", str(tmp_path / "absent.json"), "verify"],
                        capsys)
    assert rc == 4
    assert stderr.startswith("error: ") and "absent.json" in stderr


def test_malformed_config_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"subcommand": "verify", "config": {')
    rc, _, stderr = run(["--config", str(path)], capsys)
    assert rc == 4
    assert stderr.startswith("error: ")


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("HOLOCODE_THREADS", "3")
    from holocode.cli import _threads_default

    assert _threads_default() == 3


# -- bad arguments and malformed files exit 4 with a message -----------------


def test_distance_qubit_out_of_range_is_bad_input(capsys):
    rc, stdout, stderr = run(["distance", "--family", "heptagon", "--variant",
                              "max", "--radius", "1", "--qubit", "3"], capsys)
    assert rc == 4
    assert stdout == "" and "out of range" in stderr


@pytest.mark.parametrize("radius, flags", [
    ("1", ["--target", "2"]),  # k = 1
    ("2", ["--target", "-1"]),
    ("1", ["--trials-per-weight", "0"]),
], ids=["target-past-k", "target-negative", "no-trials"])
def test_simulate_bad_arguments_are_bad_input(tmp_path, capsys, radius, flags):
    out = str(tmp_path / "c.csv")
    rc, _, stderr = run(["simulate", "--family", "heptagon", "--variant",
                         "max", "--radius", radius, "--weights", "0,1",
                         "--threads", "1", "--out", out, *flags], capsys)
    assert rc == 4
    assert stderr.startswith("error: ")
    assert not os.path.exists(out)


def test_non_integer_threads_env_is_bad_input(monkeypatch, capsys):
    monkeypatch.setenv("HOLOCODE_THREADS", "abc")
    rc, stdout, stderr = run(["verify"], capsys)
    assert rc == 4
    assert stdout == "" and "HOLOCODE_THREADS" in stderr


def test_decode_truncated_tableau_is_bad_input(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "2",
         "--out", out], capsys)
    lines = open(out + ".tab").read().splitlines()
    with open(out + ".tab", "w") as fh:
        fh.write("\n".join(lines[:4]) + "\n")
    rc, _, stderr = run(["decode", "--code", out, "--syndrome", "0x1"], capsys)
    assert rc == 4
    assert "expected n - k + 2k = 50 rows of 42 Paulis" in stderr


def test_decode_short_layer_list_is_bad_input(tmp_path, capsys):
    out = str(tmp_path / "code")
    run(["build", "--family", "heptagon", "--variant", "max", "--radius", "2",
         "--out", out], capsys)
    meta = json.load(open(out + ".json"))
    meta["logical_layers"] = meta["logical_layers"][:3]
    json.dump(meta, open(out + ".json", "w"))
    rc, _, stderr = run(["decode", "--code", out, "--syndrome", "0x1"], capsys)
    assert rc == 4
    assert "expected k = 8 logical layers" in stderr


@pytest.mark.parametrize("a, m, f", [(50, 10, 1), (-1, 10, 1), (5, 0, 0),
                                     (5, 10, 12), (5, 10, -1)])
def test_plotdata_rejects_impossible_curve_rows(tmp_path, capsys, a, m, f):
    path = tmp_path / "bad.csv"
    path.write_text("family,variant,R,n,k,target,a,m,f,P,sigma,timeouts\n"
                    "heptagon,max,2,42,8,0,0,10,0,0.0,0.0,0\n"
                    f"heptagon,max,2,42,8,0,{a},{m},{f},0.0,0.0,0\n")
    out = str(tmp_path / "plot.csv")
    rc, _, stderr = run(["plotdata", str(path), "--out", out], capsys)
    assert rc == 4
    assert f"a={a} m={m} f={f} is not 0 <= a <= n=42" in stderr
    assert not os.path.exists(out)


# -- run records and threshold exit codes --------------------------------------


def _curve_csv(path, radius, n, f):
    """A curve file of every weight 0..n, each with 10 trials and f failures
    (0 at weight 0)."""
    rows = [f"heptagon,max,{radius},{n},1,0,{a},10,{f if a else 0},0.0,0.0,0"
            for a in range(n + 1)]
    path.write_text("family,variant,R,n,k,target,a,m,f,P,sigma,timeouts\n"
                    + "\n".join(rows) + "\n")
    return str(path)


def test_threshold_one_curve_is_bad_input(tmp_path, capsys):
    one = _curve_csv(tmp_path / "one.csv", 1, 7, 5)
    out = str(tmp_path / "th.json")
    rc, stdout, stderr = run(["threshold", one, "--out", out], capsys)
    assert rc == 4
    assert stdout == "" and "at least two curve files" in stderr
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".manifest.json")


@pytest.mark.parametrize("rows, message", [
    (["heptagon,max,2,42,8,0,3,10,1,0.1,0.0,0",
      "heptagon,max,3,42,8,0,4,10,1,0.1,0.0,0"], "differs from the first row in R"),
    (["heptagon,max,2,42,8,0,3,10,1,0.1,0.0,0",
      "heptagon,max,2,42,8,0,3,10,2,0.2,0.0,0"], "a=3 appears twice"),
], ids=["mixed-radius", "repeated-weight"])
def test_threshold_of_a_mixed_curve_file_is_bad_input(tmp_path, capsys, rows,
                                                      message):
    bad = tmp_path / "bad.csv"
    bad.write_text("family,variant,R,n,k,target,a,m,f,P,sigma,timeouts\n"
                   "heptagon,max,2,42,8,0,0,10,0,0.0,0.0,0\n"
                   + "\n".join(rows) + "\n")
    good = _curve_csv(tmp_path / "r1.csv", 1, 7, 5)
    rc, stdout, stderr = run(["threshold", good, str(bad)], capsys)
    assert rc == 4
    assert stdout == "" and message in stderr


def test_threshold_without_crossing_writes_error_and_record(tmp_path, capsys):
    # The smaller code fails at every weight above 0 and the larger never
    # does, so the difference of the mixed curves never turns negative.
    small = _curve_csv(tmp_path / "r1.csv", 1, 7, 10)
    large = _curve_csv(tmp_path / "r2.csv", 2, 42, 0)
    out = str(tmp_path / "th.json")
    rc, stdout, _ = run(["threshold", small, large, "--out", out], capsys)
    assert rc == 2
    assert json.load(open(out)) == json.loads(stdout)
    assert "no crossing" in json.load(open(out))["error"]
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["subcommand"] == "threshold"
    assert manifest["config"] == {"results": [small, large], "out": out}


def test_record_holds_every_argument_but_threads(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    rc, _, _ = run(["simulate", "--family", "heptagon", "--variant", "max",
                    "--radius", "1", "--weights", "0,1",
                    "--trials-per-weight", "5", "--threads", "1",
                    "--out", out], capsys)
    assert rc == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["config"] == {
        "family": "heptagon", "variant": "max", "radius": 1,
        "seed_code": None, "weights": "0,1", "trials_per_weight": 5,
        "seed": 0, "target": "central", "out": out}
    for key in ("package_version", "python_version", "numpy_version",
                "scipy_version"):
        assert isinstance(manifest[key], str) and manifest[key]

    outdir = str(tmp_path / "rep")
    rc, _, _ = run(["reproduce", "table3", "--max-radius", "1",
                    "--out-dir", outdir], capsys)
    assert rc == 0
    config = json.load(open(os.path.join(outdir, "manifest.json")))["config"]
    assert sorted(config) == ["id", "max_radius", "out_dir", "radii", "seed",
                              "trials"]


def test_reproduce_record_replays_byte_identical(tmp_path, capsys):
    first = str(tmp_path / "a")
    rc, _, _ = run(["reproduce", "fig3a", "--radii", "1,2", "--trials", "10",
                    "--threads", "1", "--out-dir", first], capsys)
    assert rc in (0, 2)
    second = str(tmp_path / "b")
    rc2, _, _ = run(["--config", os.path.join(first, "manifest.json"),
                     "--out-dir", second], capsys)
    assert rc2 == rc
    for name in ("fig3a_R1.csv", "fig3a_R2.csv", "fig3a_threshold.json"):
        assert (open(os.path.join(first, name)).read()
                == open(os.path.join(second, name)).read()), name
