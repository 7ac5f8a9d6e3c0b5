import json
import math
import os
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
    monkeypatch.setattr("sphereint.cli.reduction_rhs", lambda D, alphas: PiRational(1, 4))
    code, out, _ = run(["reduce", "--D", "4", "--alpha", "2,0"], capsys)
    assert code == 3
    assert "agreement: MISMATCH" in out
    assert "status = disagree" in out
    # the exact mismatch has no finite sigma: null in strict JSON, inf in text
    code, report = run_json(["reduce", "--D", "4", "--alpha", "2,0"], capsys)
    assert code == 3
    assert report["status"] == "disagree" and report["agreement_sigma"] is None
    monkeypatch.setattr("sphereint.cli.reduction_rhs", lambda D, alphas: 1.0)
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
    assert 0 <= report["oracle_error"] <= 1e-20  # the tail bound after 30 shells
    assert report["agreement_sigma"] <= 1.0  # the gap in units of tail bound + 1e-12 closed
    assert report["status"] == "ok"


def test_fluid_series_does_not_share_the_closed_volume(capsys, monkeypatch):
    # the series takes V_D from its own route, so a wrong closed-form V_D
    # shows as a gap past the tail bound instead of cancelling out of it
    from sphereint import fluid

    real = fluid.sphere_volume
    monkeypatch.setattr(fluid, "sphere_volume",
                        lambda D: real(D) * Fraction(1_000_001, 1_000_000))
    code, report = run_json(
        ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series", "--kmax", "60"], capsys
    )
    assert code == 3
    assert report["status"] == "disagree" and report["agreement_sigma"] > 1e4


@pytest.mark.parametrize("D", [1, 2, 5])
def test_fluid_series_with_every_omega_zero_agrees_at_every_order(D, capsys):
    # every shell past k = 0 is zero, so the tail bound is 0 and the gap is rounding
    omega = ",".join(["0"] * ((D + 1) // 2))
    for K in [*range(12), 1000]:
        code, report = run_json(["fluid", "--D", str(D), "--omega", omega, "--series",
                                 "--kmax", str(K)], capsys)
        assert (code, report["status"], report["oracle_error"]) == (0, "ok", 0.0), K


def test_fluid_series_without_a_tail_bound_checks_the_lower_side(capsys):
    # 5 circles at w = 0.9 and 3 shells: the shell ratio q = h_4 / h_3 is >= 1
    argv = ["fluid", "--D", "9", "--omega", "0.9,0.9,0.9,0.9,0.9", "--series", "--kmax", "3"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "tail bound = unbounded\n" in out and out.endswith("status = ok\n")
    code, report = run_json(argv, capsys)
    assert code == 0 and report["oracle_error"] is None  # strict JSON has no Infinity


def test_fluid_mc_near_light_speed_never_disagrees(capsys):
    # sampling misses the peak of gamma^(D+1) near w = 1, and the sample
    # error then understates the true one; the CLI refuses (exit 2) where
    # the variance bound sqrt((F - 1) / samples) is past its tolerance, so
    # a correct closed form is never reported as a disagreement
    codes = {}
    for D in range(2, 10):
        r = (D + 1) // 2
        for e in (0.5, 0.2, 0.1, 0.03, 0.01, 1e-3, 1e-5):  # 1 - w^2
            w = repr(math.sqrt(1.0 - e))
            for omega in ([w] + ["0"] * (r - 1), [w] * r):
                for seed in ("0", "1"):
                    argv = ["fluid", "--D", str(D), "--omega", ",".join(omega), "--verify",
                            "--seed", seed, "--samples", "20000"]
                    codes.setdefault(run(argv, capsys)[0], []).append(argv)
    assert set(codes) == {0, 2}, codes.get(3)
    assert len(codes[0]) >= 50 and len(codes[2]) >= 50


def test_json_sample_points(capsys):
    code, report = run_json(["sample", "--D", "2", "--seed", "3", "--count", "4"], capsys)
    assert code == 0
    assert len(report["points"]) == 4
    pt = report["points"][0]
    assert len(pt["xs"]) == 3 and len(pt["mus"]) == 2 and len(pt["phis"]) == 1
    # the angles chart the points: x_(2i-1) = mu_i cos(phi_i), x_(2i) = mu_i sin(phi_i),
    # with phi_i in [0, 2 pi)
    for D in (1, 2, 3, 6):
        code, report = run_json(["sample", "--D", str(D), "--seed", "5", "--count", "500"],
                                capsys)
        assert code == 0
        for pt in report["points"]:
            assert len(pt["phis"]) == (D + 1) // 2
            for i, phi in enumerate(pt["phis"]):
                assert 0.0 <= phi < 2 * math.pi
                assert abs(pt["xs"][2 * i] - pt["mus"][i] * math.cos(phi)) <= 1e-15
                assert abs(pt["xs"][2 * i + 1] - pt["mus"][i] * math.sin(phi)) <= 1e-15


_BLOCKS = [(2, None), (3, None), (40, None), (2, 1), (2, 5), (3, 1), (3, 5)]


@pytest.mark.parametrize("D, block_rows", _BLOCKS,
                         ids=[f"{D}" + (f"-{r}rows" if r else "") for D, r in _BLOCKS])
def test_streamed_sample_matches_the_whole_batch(D, block_rows, capsys, monkeypatch):
    import sphereint.cli
    from sphereint import oracle

    # write blocks of 1 row, 5 rows or the default (199 rows at D = 40)
    if block_rows:
        monkeypatch.setattr(sphereint.cli, "_MAX_SAMPLE_ROW_VALUES", block_rows * (D + 1))
    count = 1000
    batch = oracle.sample_batch(D, oracle.MCConfig(seed=11, samples=count))
    phis = [[math.atan2(x[2 * i + 1], x[2 * i]) % (2 * math.pi) for i in range((D + 1) // 2)]
            for x in batch.xs.tolist()]
    rows = list(zip(batch.xs.tolist(), batch.mus.tolist(), phis))
    argv = ["sample", "--D", str(D), "--seed", "11", "--count", str(count)]

    code, out, err = run(argv + ["--json"], capsys)
    assert (code, err) == (0, "")
    report = {"operation": "sample", "inputs": {"D": D, "seed": 11, "count": count},
              **dict.fromkeys(REPORT_KEYS - {"operation", "inputs", "status"}),
              "status": "ok", "points": [{"xs": x, "mus": m, "phis": p} for x, m, p in rows]}
    # point by point, so a mismatch names its first point instead of diffing one long line
    expected = json.dumps(report, sort_keys=True) + "\n"
    assert out.split('{"mus"') == expected.split('{"mus"')

    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count + 1
    assert lines[1:] == [",".join(map(repr, x + m + p)) for x, m, p in rows]


_SAMPLE_RSS = """
import resource, sys
from sphereint.cli import main
code = main(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KB elsewhere
sys.stderr.write(f"{code} {peak // 1024 if sys.platform == 'darwin' else peak}")
"""


def test_sample_memory_does_not_grow_with_D():
    # a write block holds about 2^13 coordinates whatever D is: 32 rows at
    # D = 255, where 4096-row blocks once peaked at 262 MB, and one row at
    # D = 8191, the widest row accepted.  The child's own peak RSS covers
    # the interpreter and numpy too (27 MB)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    for D, count in ((255, 4096), (8191, 128)):
        argv = ["sample", "--D", str(D), "--count", str(count), "--json"]
        r = subprocess.run([sys.executable, "-c", _SAMPLE_RSS, *argv], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": src})
        assert r.returncode == 0, r.stderr
        code, peak_kb = map(int, r.stderr.split())
        assert code == 0, argv
        assert peak_kb <= 120 * 1024, argv


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


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_non_finite_negative_values_parse_with_or_without_equals(value, capsys):
    # "-inf" starts like a flag: either spelling must reach the finiteness check
    for head, flag in ((["fluid", "--D", "3"], "--omega"), (["mu-power", "--D", "3"], "--alpha"),
                       (["dirichlet", "--n", "1", "--abs"], "--alpha")):
        spaced = run([*head, flag, f"{value},0.1"], capsys)
        joined = run([*head, f"{flag}={value},0.1"], capsys)
        assert spaced == joined, (head, value)
        assert spaced[0] == 2 and "is not finite" in spaced[2], (head, value)


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
        # quadratures past the budget: 2N per axis, the fluid tensor grid's
        # (2N)^n and the product rule's n * 2N
        ["mu-power", "--D", "3", "--alpha", "2.5,0", "--verify", "--oracle", "quad",
         "--nodes", "100000"],
        ["fluid", "--D", "9", "--omega", "0.1,0.1,0.1,0.1,0.1", "--verify", "--oracle", "quad",
         "--nodes", "33"],
        ["mu-power", "--D", "1027", "--alpha=" + ",".join(["-1"] * 514), "--verify",
         "--oracle", "quad", "--nodes", "1024"],
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


def _readme_limits():
    """(constant, value text) per row of README's "Limits" table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    assert [c.strip() for c in rows[0]] == ["limit", "constant", "value", "exit code",
                                           "slowest accepted call"]
    return [(constant.strip().strip("`"), value.strip()) for _, constant, value, *_ in rows[1:]]


def test_readme_limits_table_matches_the_constants():
    # each limit's value is written once, in its constant; the table must say the same
    import importlib

    rows = _readme_limits()
    for constant, text in rows:
        module, name = constant.split(".")
        base, _, power = text.partition("^")
        value = int(base) ** int(power) if power else float(text)
        assert getattr(importlib.import_module(f"sphereint.{module}"), name) == value, constant
    # and every limit constant of the numpy-free modules has its row
    names = {name for module in ("cli", "exactpi", "fluid", "integrals")
             for name, value in vars(importlib.import_module(f"sphereint.{module}")).items()
             if re.fullmatch(r"_\w*(MAX|MIN|LIMIT)\w*", name) and isinstance(value, (int, float))}
    assert sorted(c.split(".")[1] for c, _ in rows) == sorted(names)


def test_mc_samples_budget(tmp_path, capsys, monkeypatch):
    from sphereint import oracle

    seen = []

    def stub(D, f, config):
        seen.append((D, config.samples))
        return oracle.OracleEstimate(value=1.0, error=0.0, samples_or_nodes=config.samples)

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


def test_nodes_floor_is_the_oracles(capsys):
    # build_parser reads the floor that quad_integrate checks, from the
    # numpy-free integrals module; it must refuse exactly what the oracle does
    from sphereint.integrals import _MIN_QUAD_NODES

    argv = ["volume", "--D", "4", "--verify", "--oracle", "quad", "--nodes"]
    below = str(_MIN_QUAD_NODES - 1)
    assert run([*argv, below], capsys) == (
        1, "", f"error: argument --nodes: must be a finite number >= {_MIN_QUAD_NODES}, "
               f"got {below}\n")
    code, _, err = run([*argv, str(_MIN_QUAD_NODES)], capsys)
    assert (code, err) == (0, "")


def test_exit_domain_errors(capsys):
    cases = [
        ["volume", "--D", "0"],
        ["dirichlet", "--n", "2", "--alpha", "2,0", "--signed"],  # wrong length
        ["dirichlet", "--n", "2", "--alpha", "1.5,0,0", "--signed"],  # reals need --abs
        ["mu-power", "--D", "2", "--alpha", "-2"],
        ["fluid", "--D", "2", "--omega", "1"],
        ["dirichlet", "--n", "1", "--alpha", "1,1", "--signed", "--verify", "--oracle", "quad"],
        ["dirichlet", "--n", "0", "--alpha", "2", "--abs", "--verify"],
        ["fluid", "--D", "12", "--omega", "0.1,0.1,0.1,0.1,0.1,0.1", "--verify", "--oracle", "quad"],
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
    monkeypatch.setattr("sphereint.cli.sphere_volume", lambda D: PiRational(Fraction(3), 4))
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


def test_one_sample_check_has_an_unbounded_error(capsys):
    # one Monte Carlo sample measures no spread, so it cannot refute pi^2:
    # +- inf and sigma 0 in text, a null error in strict JSON
    argv = ["mu-power", "--D", "3", "--alpha", "2,0", "--verify", "--samples", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.endswith(" +- inf\nagreement sigma = 0\nstatus = ok\n")
    code, report = run_json(argv, capsys)
    assert code == 0
    assert report["oracle_error"] is None and report["agreement_sigma"] == 0.0


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
    assert out.endswith("+- 1.6e-17\nagreement sigma = 0\nstatus = ok\n")


# -- imports ----------------------------------------------------------------

# One fresh `python -S` child per command, so that `site` preloads nothing
# (a .pth file may import typing) and each command's module set is its own.
# The parent's path entries go after the standard library, so numpy and
# mpmath stay importable without shadowing a standard module.
_TRACK_IMPORTS = """
import contextlib, io, json, sys
sys.path += [p for p in json.loads(sys.argv[2]) if p not in sys.path]
TRACKED = {"numpy", "numpy.polynomial", "mpmath", "dataclasses", "inspect", "typing"}
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
        ["fluid", "--D", "2", "--omega", "0.6", "--verify", "--oracle", "quad"],
        ["sample", "--D", "2", "--count", "3"],
    ]
    return exact, oracle, _track(exact + oracle)


def _track(argvs):
    """[modules after import sphereint, exit code, modules after the command] per argv."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    log = []
    for argv in argvs:
        r = subprocess.run([sys.executable, "-S", "-c", _TRACK_IMPORTS, json.dumps(argv),
                            json.dumps(sys.path)],
                           capture_output=True, text=True, env={"PYTHONPATH": src})
        assert r.returncode == 0, r.stderr
        log.append(json.loads(r.stdout))
    return log


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


def test_quad_refusals_do_not_import_numpy():
    # the tensor grid's argument limits, and sample's row width, are checked
    # before the oracle loads
    refused = [(["fluid", "--D", "10", "--omega", "0.1,0.1,0.1,0.1,0.1", "--verify",
                 "--oracle", "quad"], 2),
               (["fluid", "--D", "9", "--omega", "0.1,0.1,0.1,0.1,0.1", "--verify", "--oracle",
                 "quad", "--nodes", "33"], 1),
               (["sample", "--D", "8192", "--count", "1"], 1),
               (["sample", "--D", "1048575", "--count", "1", "--json"], 1)]
    log = _track([argv for argv, _ in refused])
    assert [[code, "numpy" in after] for _, code, after in log] == [[c, False] for _, c in refused]


def test_product_quadrature_does_not_import_numpy():
    # volume, mu-power and dirichlet --abs quadrature runs the math-only
    # product rule, at any D
    argvs = [["mu-power", "--D", "7", "--alpha", "2,0,1,1", "--verify", "--oracle", "quad",
              "--json"],
             ["dirichlet", "--n", "2", "--alpha", "0.5,0,0", "--abs", "--verify", "--oracle",
              "quad", "--json"],
             ["volume", "--D", "41", "--verify", "--oracle", "quad"]]
    log = _track(argvs)
    assert [[code, "numpy" in after, "sphereint.prodquad" in after] for _, code, after in log] \
        == [[0, False, True]] * len(argvs)


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # every `import numpy` fails, as on an interpreter without it
from sphereint.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_missing_numpy_is_a_refusal_before_any_output():
    # a command that needs numpy exits 1 with one error line naming it and
    # writes nothing first; the exact path runs as before
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for argv in (["volume", "--D", "4", "--verify"], ["sample", "--D", "2", "--count", "2"],
                 ["sample", "--D", "2", "--count", "2", "--json"],
                 ["fluid", "--D", "3", "--omega", "0.3,0.4", "--verify", "--oracle", "quad"],
                 ["volume", "--D", "4"], ["fluid", "--D", "3", "--omega", "0.3,0.4", "--series"]):
        r = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv], capture_output=True,
                           text=True, env={"PYTHONPATH": src})
        runs[" ".join(argv)] = (r.returncode, r.stdout, r.stderr)
    for argv, (code, out, err) in list(runs.items())[:4]:
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: --verify and sample need numpy") and err.count("\n") == 1
    assert runs["volume --D 4"] == (0, "8/3 * pi^2 = 26.3189450696\n", "")
    assert runs["fluid --D 3 --omega 0.3,0.4 --series"][0] == 0


def test_exact_commands_load_no_dataclasses_inspect_or_typing(tracked_imports):
    exact, _, log = tracked_imports
    heavy = {"dataclasses", "inspect", "typing", "numpy"}
    assert [[argv, sorted(heavy & set(after))] for argv, (_, _, after) in zip(exact, log)
            if heavy & set(after)] == []


def test_no_command_loads_numpy_polynomial(tracked_imports):
    # both quadratures take their Gauss-Legendre rule from prodquad, so the
    # tensor grid of `fluid --oracle quad` needs no leggauss either
    exact, oracle, log = tracked_imports
    assert [argv for argv, (_, _, after) in zip(exact + oracle, log)
            if "numpy.polynomial" in after] == []


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


def _run_into(target, argv, **env):
    """`python -m sphereint argv` with stdout a pipe whose reader has gone, or target."""
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full here")
    if target == "closed pipe":
        read_end, out = os.pipe()
        os.close(read_end)
    else:
        out = os.open(target, os.O_WRONLY)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    try:
        return subprocess.run([sys.executable, "-m", "sphereint", *argv], stdout=out,
                              stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": src, **env})
    finally:
        os.close(out)


@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_a_stdout_that_cannot_be_written_is_one_error_line(target):
    # a reader that has gone (EPIPE) or a full device (ENOSPC, which can
    # surface only at the last flush): exit 1, one error line, no traceback
    for argv in (["volume", "--D", "4"], ["volume", "--D", "4", "--json"],
                 ["sample", "--D", "3", "--count", "2"]):
        r = _run_into(target, argv)
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, (argv, r.stderr)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_help_into_a_stdout_that_cannot_be_written_is_one_error_line(target, unbuffered):
    # argparse writes --help itself and drops an OSError from that write;
    # buffered, the write succeeds and only main's last flush fails
    for argv in (["--help"], ["volume", "--help"]):
        r = _run_into(target, argv, PYTHONUNBUFFERED=unbuffered)
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stderr.startswith("error: cannot write the output") \
            and r.stderr.count("\n") == 1, (argv, r.stderr)


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
