import json
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sphereint.cli import build_parser, main, parse_polynomial
from sphereint.exactpi import PiRational

REPORT_KEYS = {
    "operation",
    "inputs",
    "exact",
    "decimal",
    "oracle_value",
    "oracle_error",
    "agreement_sigma",
    "status",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    assert err == ""
    return code, json.loads(out, parse_constant=_refuse_constant)  # strict: no NaN/Infinity


# -- human output -----------------------------------------------------------


def test_volume_human(capsys):
    code, out, err = run(["volume", "--D", "3"], capsys)
    assert code == 0
    assert out == "2 * pi^2 = 19.7392088022\n"


def test_digits_flag(capsys):
    code, out, _ = run(["volume", "--D", "2", "--digits", "4"], capsys)
    assert code == 0
    assert out == "4 * pi^1 = 12.57\n"
    # 767 digits hold a double's whole decimal expansion; format itself
    # refuses a precision of 2^31 and up, which is a flag value, not a domain error
    _, full, _ = run(["volume", "--D", "4", "--digits", "767"], capsys)
    for digits in ("768", "100000", "2147483648", str(10**30)):
        assert run(["volume", "--D", "4", "--digits", digits], capsys) == (0, full, ""), digits


def test_dirichlet_human_exact_and_float(capsys):
    code, out, _ = run(["dirichlet", "--n", "2", "--alpha", "2,2,0", "--signed"], capsys)
    assert code == 0
    assert out.startswith("4/15 * pi^1 = ")
    code, out, _ = run(["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs"], capsys)
    assert code == 0
    assert "pi" not in out  # floating path has no exact rendering


def test_reduce_human(capsys):
    code, out, _ = run(["reduce", "--D", "5", "--alpha", "2,0,-1"], capsys)
    assert code == 0
    assert "agreement: exact" in out
    assert "status = ok" in out


def test_reduce_reports_a_mismatch(monkeypatch, capsys):
    # a reduced value off the direct one fails the check, on either path
    monkeypatch.setattr("sphereint.cli.reduction_rhs", lambda dim, alphas: PiRational(1, 4))
    code, out, _ = run(["reduce", "--D", "4", "--alpha", "2,0"], capsys)
    assert code == 3
    assert "agreement: MISMATCH" in out
    assert "status = disagree" in out
    # the exact mismatch has no finite sigma: null in strict JSON, inf in text
    code, report = run_json(["reduce", "--D", "4", "--alpha", "2,0"], capsys)
    assert code == 3
    assert report["status"] == "disagree" and report["agreement_sigma"] is None
    monkeypatch.setattr("sphereint.cli.reduction_rhs", lambda dim, alphas: 1.0)
    code, out, _ = run(["reduce", "--D", "4", "--alpha", "2.0,0"], capsys)
    assert code == 3
    assert "agreement: relative gap" in out
    assert "status = disagree" in out
    code, report = run_json(["reduce", "--D", "4", "--alpha", "2.0,0"], capsys)
    assert code == 3
    assert report["status"] == "disagree" and report["agreement_sigma"] > 1e-10


def test_fluid_human_with_series(capsys):
    code, out, _ = run(
        ["fluid", "--D", "2", "--omega", "0.5", "--series", "--kmax", "25"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "16.7551608191"
    assert "series (kmax=25)" in out
    assert "relative gap" in out


# -- JSON reports -----------------------------------------------------------


def test_json_field_set_and_roundtrip(capsys):
    code, report = run_json(["volume", "--D", "3"], capsys)
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["exact"] == "2 * pi^2"
    assert report["decimal"] == 19.739208802178716
    assert report["oracle_value"] is None
    assert report["status"] == "ok"
    # canonical form: reserializing with sorted keys reproduces the bytes
    _, out, _ = run(["volume", "--D", "3", "--json"], capsys)
    assert out == json.dumps(report, sort_keys=True) + "\n"


def test_json_verified_volume(capsys):
    code, report = run_json(
        ["volume", "--D", "4", "--verify", "--seed", "7", "--samples", "5000"], capsys
    )
    assert code == 0
    assert report["status"] == "ok"
    assert report["oracle_value"] == pytest.approx(report["decimal"], rel=1e-12)
    assert report["oracle_error"] == 0.0  # constant integrand
    assert report["agreement_sigma"] == 0.0
    assert report["inputs"]["oracle"] == "mc"


def test_json_reduce_routes_reduced_value_through_oracle_fields(capsys):
    code, report = run_json(["reduce", "--D", "4", "--alpha", "2,0"], capsys)
    assert code == 0
    assert report["inputs"]["oracle"] == "reduction"
    assert report["exact"] == "16/15 * pi^2"
    assert report["oracle_value"] == report["decimal"]
    assert report["oracle_error"] == 0.0
    assert report["agreement_sigma"] == 0.0


def test_json_fluid_series_routes_through_oracle_fields(capsys):
    code, report = run_json(
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "30"], capsys
    )
    assert code == 0
    assert report["exact"] is None
    assert report["inputs"]["oracle"] == "series"
    assert report["inputs"]["kmax"] == 30
    assert report["oracle_value"] == pytest.approx(report["decimal"], rel=1e-8)
    assert report["agreement_sigma"] <= 1e-8  # relative gap
    assert report["status"] == "ok"


def test_fluid_series_does_not_share_the_closed_volume(capsys, monkeypatch):
    # the series takes V_D from its own route, so a wrong closed-form V_D
    # shows as a gap instead of cancelling out of it
    from sphereint import fluid

    real = fluid.sphere_volume
    monkeypatch.setattr(fluid, "sphere_volume",
                        lambda dim: real(dim) * Fraction(1_000_001, 1_000_000))
    code, report = run_json(
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "60"], capsys
    )
    assert code == 0
    assert report["agreement_sigma"] >= 1e-7


def test_json_sample_points(capsys):
    code, report = run_json(["sample", "--D", "2", "--seed", "3", "--count", "4"], capsys)
    assert code == 0
    assert len(report["points"]) == 4
    pt = report["points"][0]
    assert len(pt["xs"]) == 3 and len(pt["mus"]) == 2 and len(pt["phis"]) == 1


@pytest.mark.parametrize("D", [2, 3])
def test_streamed_sample_matches_the_whole_batch(D, capsys, monkeypatch):
    import sphereint.cli
    from sphereint import oracle

    # small chunks and write blocks, so 4 chunks and several blocks per chunk
    monkeypatch.setattr(oracle, "_CHUNK", 16)
    monkeypatch.setattr(sphereint.cli, "_SAMPLE_BLOCK", 5)
    count = 3 * 16 + 7
    batch = oracle.sample_batch(D, oracle.MCConfig(seed=11, samples=count))
    rows = list(zip(batch.xs.tolist(), batch.mus.tolist(), batch.phis.tolist()))
    argv = ["sample", "--D", str(D), "--seed", "11", "--count", str(count)]

    code, out, err = run(argv + ["--json"], capsys)
    assert (code, err) == (0, "")
    report = {"operation": "sample", "inputs": {"D": D, "seed": 11, "count": count},
              **dict.fromkeys(REPORT_KEYS - {"operation", "inputs", "status"}),
              "status": "ok", "points": [{"xs": x, "mus": m, "phis": p} for x, m, p in rows]}
    assert out == json.dumps(report, sort_keys=True) + "\n"

    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count + 1
    assert lines[1:] == [",".join(map(repr, x + m + p)) for x, m, p in rows]


# -- alpha list handling ----------------------------------------------------


def test_alpha_comma_and_repeat_are_equivalent(capsys):
    _, a = run_json(["dirichlet", "--n", "2", "--alpha", "2,0,0", "--abs"], capsys)
    _, b = run_json(
        ["dirichlet", "--n", "2", "--alpha", "2", "--alpha", "0", "--alpha", "0", "--abs"],
        capsys,
    )
    assert a == b
    # a list may start with a negative value, with or without "="
    forms = [
        (["mu-power", "--D", "5", "--alpha", "-1,0,2"],
         ["mu-power", "--D", "5", "--alpha=-1,0,2"],
         ["mu-power", "--D", "5", "--alpha", "-1", "--alpha", "0", "--alpha", "2"]),
        (["fluid", "--D", "3", "--omega", "-0.3,0.4"],
         ["fluid", "--D", "3", "--omega=-0.3,0.4"]),
    ]
    for argvs in forms:
        reports = [run_json(argv, capsys) for argv in argvs]
        assert reports[0][0] == 0
        assert all(r == reports[0] for r in reports)


def test_integer_tokens_take_the_exact_path(capsys):
    _, a = run_json(["mu-power", "--D", "5", "--alpha", "2,0,0"], capsys)
    _, b = run_json(["mu-power", "--D", "5", "--alpha", "2.0,0,0"], capsys)
    assert a["exact"] is not None
    assert b["exact"] is None
    assert a["decimal"] == pytest.approx(b["decimal"], rel=1e-12)


# -- polynomial files -------------------------------------------------------


def test_integrate_poly_file(tmp_path, capsys):
    f = tmp_path / "norm.poly"
    f.write_text(
        "# the norm polynomial on S^2\n"
        "1 2 0 0\n"
        "1 0 2 0\n"
        "1 0 0 2  # trailing comment\n"
    )
    code, report = run_json(["integrate-poly", "--n", "2", "--file", str(f)], capsys)
    assert code == 0
    assert report["exact"] == "4 * pi^1"
    assert report["inputs"]["terms"] == 3


def test_integrate_poly_verified(tmp_path, capsys):
    f = tmp_path / "p.poly"
    f.write_text("1/2 2 2 0\n3 0 0 0\n")
    code, report = run_json(
        ["integrate-poly", "--n", "2", "--file", str(f), "--verify", "--seed", "11"],
        capsys,
    )
    assert code == 0
    assert report["status"] == "ok"
    assert report["agreement_sigma"] <= 3.0


def test_parse_polynomial_details():
    poly = parse_polynomial("1/3 2 0 0\n2/3 2 0 0\n", 2)
    assert poly == {(2, 0, 0): Fraction(1)}  # duplicates accumulate
    with pytest.raises(ValueError, match="line 1"):
        parse_polynomial("1 2 0\n", 2)  # too few exponents
    with pytest.raises(ValueError, match="coefficient"):
        parse_polynomial("x 2 0 0\n", 2)
    with pytest.raises(ValueError, match=">= 0"):
        parse_polynomial("1 -2 0 0\n", 2)
    with pytest.raises(ValueError, match="no terms"):
        parse_polynomial("# only a comment\n", 2)
    # decimals and exponents within the bound are exact fractions
    poly = parse_polynomial("0.5 2 0\n1e5 0 2\n-2.5E-3 1 1\n1e4300 0 0\n", 1)
    assert poly == {(2, 0): Fraction(1, 2), (0, 2): Fraction(100000),
                    (1, 1): Fraction(-1, 400), (0, 0): Fraction(10**4300)}
    for text in ("1e4301", "1e-4301", "1E+1_000_000_000"):
        with pytest.raises(ValueError, match=r"line 2: .*decimal exponent past \+-4300"):
            parse_polynomial(f"1 0 0\n{text} 2 0\n", 1)


# -- exit codes -------------------------------------------------------------


def test_exit_usage_errors(tmp_path, capsys):
    f = tmp_path / "p.poly"
    f.write_text("1 2 0 0\n")
    # Fraction would write 10^(+-10^9) out in full, for minutes
    huge, tiny = tmp_path / "huge.poly", tmp_path / "tiny.poly"
    huge.write_text("1e1000000000 2 0\n")
    tiny.write_text("1e-1000000000 2 0\n")
    cases = [
        ["volume"],  # missing --D
        ["nonsense"],
        ["dirichlet", "--n", "2", "--abs"],  # missing --alpha
        ["dirichlet", "--n", "2", "--alpha", "2,0,0"],  # missing --signed/--abs
        ["mu-power", "--D", "2", "--alpha", "abc"],
        ["fluid", "--D", "2", "--omega", "0.5", "--series", "--verify"],
        ["sample", "--D", "2", "--count", "0"],
        ["mu-power", "--alpha", "--D", "5"],  # a flag is not a value
        # flag values out of range, refused before any work
        ["volume", "--D", "4", "--verify", "--samples", "0"],
        ["volume", "--D", "4", "--digits", "0"],
        ["volume", "--D", "4", "--verify", "--sigma", "-1"],
        ["dirichlet", "--n", "2", "--alpha", "2,0,0", "--abs", "--verify",
         "--oracle", "quad", "--nodes", "1"],
        ["mu-power", "--D", "5", "--alpha", "2,0,-1", "--verify", "--seed", "-1"],
        ["reduce", "--D", "4", "--alpha", "2,0", "--digits", "-3"],
        ["reduce", "--D", "4", "--alpha", "2,0", "--verify"],  # reduce is its own check
        ["reduce", "--D", "4", "--alpha", "2,0", "--oracle", "quad"],
        ["fluid", "--D", "2", "--omega", "0.5", "--verify", "--sigma", "nan"],
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "-1"],
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "100000000"],
        ["integrate-poly", "--n", "0", "--file", str(f)],  # 3 exponents per line for n = 0
        ["integrate-poly", "--n", "1", "--file", str(huge)],
        ["integrate-poly", "--n", "1", "--file", str(tiny)],
        ["sample", "--D", "2", "--seed", "-1"],
        # quadrature grids past the budget
        ["mu-power", "--D", "3", "--alpha", "2.5,0", "--verify", "--oracle", "quad",
         "--nodes", "100000"],
        ["volume", "--D", "9", "--verify", "--oracle", "quad", "--nodes", "33"],
        # an exact Gamma argument past the cap: its factorial would never finish
        ["mu-power", "--D", "3", "--alpha", "100000000,0"],
        # sample output past 2^20 coordinates: count * (D+1) = 2^20 + 4, and 10^9 + 1
        ["sample", "--D", "3", "--count", "262145"],
        ["sample", "--D", "1000000000", "--count", "1", "--json"],
        # MC work past 10^8 coordinates: about 10 hours of sampling
        ["volume", "--D", "9", "--verify", "--samples", "100000000000"],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


def test_mc_samples_budget(tmp_path, capsys, monkeypatch):
    from sphereint import oracle
    from sphereint.integrals import as_dim

    seen = []

    def stub(dim, f, config):
        seen.append((as_dim(dim).D, config.samples))
        return oracle.OracleEstimate(value=1.0, error=0.0, samples_or_nodes=config.samples,
                                     method="mc")

    monkeypatch.setattr(oracle, "mc_integrate", stub)
    # at the budget, samples * (D+1) = 10^8 coordinates, the oracle runs
    code, _, err = run(["volume", "--D", "9", "--verify", "--samples", "10000000"], capsys)
    assert (code, err) == (3, "")  # the stub's 1.0 is not V_9
    assert seen == [(9, 10**7)]
    code, _, err = run(["volume", "--D", "9", "--verify", "--samples", "10000001"], capsys)
    assert code == 1 and "Monte Carlo budget" in err
    # polynomial_values makes one pass per term: 5 terms on S^3 reach the
    # budget at samples * 4 * 5 = 10^8
    f = tmp_path / "p.poly"
    f.write_text("1 2 0 0 0\n1 0 2 0 0\n1 0 0 2 0\n1 0 0 0 2\n-1 0 0 0 0\n")
    poly = ["integrate-poly", "--n", "3", "--file", str(f), "--verify", "--samples"]
    code, _, err = run([*poly, "5000000"], capsys)
    assert (code, err) == (3, "")
    assert seen[-1] == (3, 5_000_000)
    code, _, err = run([*poly, "5000001"], capsys)
    assert code == 1
    assert err == ("error: --samples 5000001 on S^3 is past the Monte Carlo budget: "
                   "samples * (D+1) * 5 terms may be at most 100000000 coordinates\n")
    # quadrature ignores --samples, so it is not refused
    code, _, err = run(["volume", "--D", "4", "--verify", "--oracle", "quad",
                        "--samples", "100000000000"], capsys)
    assert (code, err) == (0, "")
    assert len(seen) == 2


def test_exit_domain_errors(capsys):
    cases = [
        ["volume", "--D", "0"],
        ["dirichlet", "--n", "2", "--alpha", "2,0", "--signed"],  # wrong length
        ["dirichlet", "--n", "2", "--alpha", "1.5,0,0", "--signed"],  # reals need --abs
        ["mu-power", "--D", "2", "--alpha", "-2"],
        ["fluid", "--D", "2", "--omega", "1"],
        ["dirichlet", "--n", "1", "--alpha", "1,1", "--signed", "--verify", "--oracle", "quad"],
        ["dirichlet", "--n", "0", "--alpha", "2", "--abs", "--verify"],
        ["volume", "--D", "12", "--verify", "--oracle", "quad"],
        ["reduce", "--D", "2", "--alpha", "-2"],
        ["sample", "--D", "0"],
        ["fluid", "--D", "399", "--omega", ",".join(["0.995"] * 200)],  # prod (1 - w^2) too
        # exponents whose log-Gamma terms cancel on the floating path
        ["dirichlet", "--n", "1", "--alpha", "1e300,0", "--abs"],
        ["mu-power", "--D", "3", "--alpha", "1e20,0"],
    ]
    for argv in cases:
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


def test_exit_oracle_disagreement(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.poly"
    f.write_text("1/2 2 2 0\n3 0 0 0\n")
    tight = ["--verify", "--sigma", "0.01"]
    # a wrong closed form (3 pi^2 for 8/3 pi^2), caught by quadrature's sigma <= 1
    monkeypatch.setattr("sphereint.cli.sphere_volume", lambda dim: PiRational(Fraction(3), 4))
    cases = [
        ["mu-power", "--D", "2", "--alpha", "2", "--seed", "5", "--samples", "2000", *tight],
        ["volume", "--D", "4", "--verify", "--oracle", "quad"],
        ["dirichlet", "--n", "2", "--alpha", "2,0,0", "--signed", *tight],
        ["fluid", "--D", "2", "--omega", "0.6", *tight],
        ["integrate-poly", "--n", "2", "--file", str(f), *tight],
    ]
    for argv in cases:
        code, out, err = run(argv, capsys)
        assert code == 3, argv
        assert "status = disagree" in out, argv
    # MC on the constant integrand has a zero error, so the wrong volume is
    # an infinite sigma: inf in text, null in strict JSON
    code, out, _ = run(["volume", "--D", "4", "--verify"], capsys)
    assert code == 3
    assert out.endswith("+- 0\nagreement sigma = inf\nstatus = disagree\n")
    code, report = run_json(["volume", "--D", "4", "--verify"], capsys)
    assert code == 3
    assert report["status"] == "disagree" and report["agreement_sigma"] is None


def test_exit_poly_quad_refused(tmp_path, capsys):
    f = tmp_path / "p.poly"
    f.write_text("1 2 0 0\n")
    code, _, err = run(
        ["integrate-poly", "--n", "2", "--file", str(f), "--verify", "--oracle", "quad"],
        capsys,
    )
    assert code == 2
    assert "mc" in err


def test_missing_poly_file_is_usage_error(capsys):
    code, _, err = run(["integrate-poly", "--n", "2", "--file", "/nope/x.poly"], capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["volume", "--help"]) == 0
    capsys.readouterr()


# -- verified paths end to end ----------------------------------------------


def test_verify_quad_paths(capsys):
    code, report = run_json(
        ["mu-power", "--D", "3", "--alpha", "2,0", "--verify", "--oracle", "quad"], capsys
    )
    assert code == 0 and report["status"] == "ok"
    # dirichlet quadrature goes through the lifted radii integrand
    code, report = run_json(
        ["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs", "--verify",
         "--oracle", "quad", "--nodes", "24"],
        capsys,
    )
    assert code == 0 and report["status"] == "ok"
    assert report["agreement_sigma"] <= 1.0
    code, report = run_json(
        ["fluid", "--D", "4", "--omega", "0.5,0.2", "--verify", "--oracle", "quad"], capsys
    )
    assert code == 0 and report["status"] == "ok"


def test_verify_mc_paths(capsys):
    code, report = run_json(
        ["dirichlet", "--n", "2", "--alpha", "2,4,0", "--signed", "--verify",
         "--seed", "2", "--samples", "50000"],
        capsys,
    )
    assert code == 0 and report["status"] == "ok"
    code, report = run_json(
        ["fluid", "--D", "2", "--omega", "0.6", "--verify", "--seed", "8",
         "--samples", "50000"],
        capsys,
    )
    assert code == 0 and report["status"] == "ok"
    # at odd D with equal w the Lorentz factor is constant on the sphere, so
    # the MC error is rounding noise, not a spread to divide a rounding gap by
    code, out, err = run(["fluid", "--D", "3", "--omega", "0.5,0.5", "--verify"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("+- 2.85e-17\nagreement sigma = 0\nstatus = ok\n")


# -- imports ----------------------------------------------------------------

# One fresh `python -S` child per command, so that `site` preloads nothing
# (a .pth file may import typing) and each command's module set is its own.
# The parent's path entries go after the standard library, so numpy and
# mpmath stay importable without shadowing a standard module.
_TRACK_IMPORTS = """
import contextlib, io, json, sys
sys.path += [p for p in json.loads(sys.argv[2]) if p not in sys.path]
TRACKED = {"numpy", "mpmath", "dataclasses", "inspect", "typing"}
def loaded():
    return sorted(m for m in sys.modules if m in TRACKED or m.startswith("sphereint."))
import sphereint
bare = loaded()
from sphereint.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([bare, code, loaded()]))
"""


@pytest.fixture(scope="module")
def tracked_imports(tmp_path_factory):
    """(exact argvs, oracle argvs, [modules after import sphereint, exit code,
    modules after the command] per argv, each from its own fresh process)."""
    f = tmp_path_factory.mktemp("poly") / "p.poly"
    f.write_text("1/2 2 2 0\n3 0 0 0\n")
    exact = [
        ["volume", "--D", "4"],
        ["dirichlet", "--n", "2", "--alpha", "2,2,0", "--signed"],
        ["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs", "--json"],
        ["mu-power", "--D", "5", "--alpha", "2,0,-1"],
        ["reduce", "--D", "5", "--alpha", "1.5,0,2"],
        ["fluid", "--D", "2", "--omega", "0.6"],
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--json"],
        ["integrate-poly", "--n", "2", "--file", str(f)],
        ["volume", "--D", "0"],  # a refusal
    ]
    oracle = [
        ["volume", "--D", "4", "--verify", "--samples", "1000"],
        ["mu-power", "--D", "3", "--alpha", "2,0", "--verify", "--oracle", "quad"],
        ["sample", "--D", "2", "--count", "3"],
    ]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    log = []
    for argv in exact + oracle:
        r = subprocess.run([sys.executable, "-S", "-c", _TRACK_IMPORTS, json.dumps(argv),
                            json.dumps(sys.path)],
                           capture_output=True, text=True, env={"PYTHONPATH": src})
        assert r.returncode == 0, r.stderr
        log.append(json.loads(r.stdout))
    return exact, oracle, log


def test_import_sphereint_loads_no_submodule(tracked_imports):
    # no sphereint.* submodule, nor numpy, mpmath, dataclasses, inspect or typing
    _, _, log = tracked_imports
    assert [bare for bare, _, _ in log] == [[]] * len(log)


def test_exact_commands_do_not_import_numpy(tracked_imports):
    exact, oracle, log = tracked_imports
    numpy = [[argv, code, "numpy" in after] for argv, (_, code, after) in zip(exact + oracle, log)]
    assert numpy[:len(exact) - 1] == [[argv, 0, False] for argv in exact[:-1]]
    assert numpy[len(exact) - 1] == [exact[-1], 2, False]
    assert numpy[len(exact):] == [[argv, 0, True] for argv in oracle]


def test_exact_commands_load_no_dataclasses_inspect_or_typing(tracked_imports):
    exact, _, log = tracked_imports
    heavy = {"dataclasses", "inspect", "typing", "numpy"}
    assert [[argv, sorted(heavy & set(after))] for argv, (_, _, after) in zip(exact, log)
            if heavy & set(after)] == []


def test_only_fluid_commands_load_fluid(tracked_imports):
    exact, oracle, log = tracked_imports
    fluid = [argv for argv, (_, _, after) in zip(exact + oracle, log)
             if "sphereint.fluid" in after]
    assert fluid == [argv for argv in exact + oracle if argv[0] == "fluid"]


def test_no_command_imports_mpmath(tracked_imports):
    # mpmath is a test-only reference: to_float is standard-library integer arithmetic
    exact, oracle, log = tracked_imports
    assert len(log) == len(exact) + len(oracle)
    assert [argv for argv, (_, _, after) in zip(exact + oracle, log) if "mpmath" in after] == []


def test_public_names_resolve():
    import sphereint
    import sphereint.oracle

    star = {}
    exec("from sphereint import *", star)
    assert set(sphereint.__all__) <= set(dir(sphereint))
    for name in sphereint.__all__:
        assert star[name] is getattr(sphereint, name)
    for name in ("mc_integrate", "IntegrandError", "sample_batch"):
        assert star[name] is getattr(sphereint.oracle, name)
    with pytest.raises(AttributeError):
        sphereint.no_such_name
    # the benchmark reaches the package as `si.<name>`: every such name must stay public
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    used = {m for path in bench.glob("*.py")
            for m in re.findall(r"\bsi\.(\w+)", path.read_text(encoding="utf-8"))}
    assert "mu_power_values" in used
    assert used <= set(sphereint.__all__), sorted(used - set(sphereint.__all__))


# -- byte determinism through the real entry point ---------------------------


def _run_module(argv):
    return subprocess.run(
        [sys.executable, "-m", "sphereint", *argv],
        capture_output=True,
        text=True,
    )


def test_cli_byte_determinism():
    argv = ["mu-power", "--D", "3", "--alpha", "2,0", "--verify",
            "--seed", "123", "--samples", "20000", "--json"]
    a = _run_module(argv)
    b = _run_module(argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_sample_csv_determinism():
    argv = ["sample", "--D", "4", "--seed", "99", "--count", "6"]
    a = _run_module(argv)
    b = _run_module(argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.splitlines()
    assert lines[0] == "x1,x2,x3,x4,x5,mu1,mu2,mu3,phi1,phi2"
    assert len(lines) == 7
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def test_parser_builds_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("volume", "dirichlet", "mu-power", "reduce", "fluid",
                 "integrate-poly", "sample"):
        assert name in text
