"""Command-line interface: flows, exit codes, literal parsing."""

import cmath
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coslaw import cli, solver
from coslaw.cli import main, parse_complex, UsageError
from coslaw.fixtures import FIXTURE_NAMES, get_fixture
from coslaw.serialize import MAX_SPEC_DEPTH

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("3i") == 3j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("1.5-2.25i") == 1.5 - 2.25j
    assert parse_complex("2e-3+1e2i") == 0.002 + 100j


def test_parse_complex_exact():
    from fractions import Fraction

    v = parse_complex("1/2-3/4i", exact=True)
    assert v.rational_parts() == (Fraction(1, 2), Fraction(-3, 4))
    assert parse_complex("2", exact=True) == 2


def test_parse_complex_rejects_garbage():
    # the last one: an exponent longer than int() parses is malformed
    for bad in ("", "2+", "ii", "1+2j", "abc", "1e" + "9" * 5000):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_construct_verify_flow(tmp_path, capsys):
    out = tmp_path / "pair.json"
    rc = main([
        "construct", "--family", "8", "--fixture", "real-line",
        "--lambda", "1", "--alpha", "2+0i", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    rc = main(["verify", "--pair", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out.strip().splitlines()[-1])
    assert report["max_residual"] < 1e-9


def test_verify_fails_on_wrong_alpha(tmp_path, capsys):
    out = tmp_path / "pair.json"
    main([
        "construct", "--family", "8", "--fixture", "real-line",
        "--lambda", "1", "--alpha", "2+0i", "--out", str(out),
    ])
    rc = main(["verify", "--pair", str(out), "--alpha", "3"])
    assert rc == 1


def test_nullsets_naturals(capsys):
    rc = main(["nullsets", "naturals-from-2", "--chi", "parity", "--window", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P_chi   = {2, 6, 10," in out
    assert "I_chi   = {2, 4, 6," in out
    assert "window" in out


def test_nullsets_real_line_prints_the_default_exps_empty_sets(capsys):
    assert main(["nullsets", "real-line"]) == 0
    assert capsys.readouterr().out == (
        "I_chi   = {}\nI_chi^2 = {}\nP_chi   = {}\ncertified: window\n")


def test_real_line_family7_constructs_with_an_exp_that_has_no_exact_zeros(tmp_path, capsys):
    # e^(-10x) is below VERIFY_TOL on the right of the window, but no zero
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "7", "--fixture", "real-line", "--sigma", "id",
                 "--lambda", "10i", "--alpha", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "--pair", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_an_alpha_override_on_an_exact_pair_is_read_exactly(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "4", "--fixture", "c2", "--chi", "chi1", "--alpha", "1/2",
                 "--q", "1/2", "--exact", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--pair", str(out), "--alpha", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exact"
    # an exact non-zero defect is printed as a float
    assert main(["verify", "--pair", str(out), "--alpha", "1/3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "exact" and report["max_residual"] == 1 / 12


@pytest.mark.parametrize("alpha, stdout", [
    ("3", '{"max_residual": 2.000000000000001, "worst_pair": ["1.8450623521082914", '
          '"1.8450623521082914"], "pair_count": 4096, "mode": "float"}\n'),
    ("2", '{"max_residual": 2.2121037052315357e-15, "worst_pair": ["1.9447954522222526", '
          '"-2.543194052906023"], "pair_count": 4096, "mode": "float"}\n'),
])
def test_an_alpha_override_on_a_float_pair_is_read_as_a_float(tmp_path, capsys, alpha, stdout):
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "8", "--fixture", "real-line", "--lambda", "1",
                 "--alpha", "2+0i", "--out", str(out)]) == 0
    capsys.readouterr()
    main(["verify", "--pair", str(out), "--alpha", alpha])
    assert capsys.readouterr().out == stdout


def test_characters_bool_mult(capsys):
    rc = main(["characters", "bool-mult"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("chi")]
    assert len(lines) == 3
    assert lines[0].startswith("chi0") and "(zero)" in lines[0]


def test_automorphisms_c3(capsys):
    rc = main(["automorphisms", "c3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "id: 0 1 2" in out and "inv: 0 2 1" in out


_AUTOMORPHISMS_STDOUT = {
    "c2": "id: 0 1\n",
    "c3": "id: 0 1 2\ninv: 0 2 1\n",
    "leftzero2": "id: 0 1\nswap: 1 0\n",
    "null3": "id: 0 1 2\nswap: 0 2 1\n",
    "bool-mult": "id: 0 1\n",
    "real-line": "neg\nid\n",
    "heisenberg": "flip\nid\n",
    "naturals-from-2": "id\n",
}
_EXP = "exp (parametrized: --lambda / --a --b)\n"
_CHARACTERS_STDOUT = {
    "c2": 'chi0: ["0", "0"] ["0", "0"]  (zero)\nchi1: ["1", "0"] ["1", "0"]\n'
          'chi2: ["1", "0"] ["-1", "0"]\n',
    "c3": 'chi0: ["0", "0"] ["0", "0"] ["0", "0"]  (zero)\nchi1: ["1", "0"] ["1", "0"] ["1", "0"]\n'
          'chi2: ["1", "0"] [-0.4999999999999998, 0.8660254037844387]'
          ' [-0.5000000000000002, -0.8660254037844387]\n'
          'chi3: ["1", "0"] [-0.5000000000000002, -0.8660254037844387]'
          ' [-0.4999999999999998, 0.8660254037844387]\n',
    "leftzero2": 'chi0: ["0", "0"] ["0", "0"]  (zero)\nchi1: ["1", "0"] ["1", "0"]\n',
    "null3": 'chi0: ["0", "0"] ["0", "0"] ["0", "0"]  (zero)\nchi1: ["1", "0"] ["1", "0"] ["1", "0"]\n',
    "bool-mult": 'chi0: ["0", "0"] ["0", "0"]  (zero)\nchi1: ["0", "0"] ["1", "0"]\n'
                 'chi2: ["1", "0"] ["1", "0"]\n',
    "real-line": _EXP,
    "heisenberg": _EXP,
    "naturals-from-2": "parity\none\n",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_automorphisms_and_characters_print_the_fixture(capsys, name):
    # the listings print the fixture's own sigmas and characters, in order
    assert main(["automorphisms", name]) == 0
    assert capsys.readouterr().out == _AUTOMORPHISMS_STDOUT[name]
    assert main(["characters", name]) == 0
    assert capsys.readouterr().out == _CHARACTERS_STDOUT[name]


def test_validate_fixture_and_file(tmp_path, capsys):
    assert main(["validate", "c2"]) == 0
    bad = tmp_path / "bad.sg"
    bad.write_text("order 2\n1 1\n0 0\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "associativity" in err


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_validate_unreadable_file_is_invalid(tmp_path, capsys, case):
    target = tmp_path
    if case == "not-utf8":
        target = tmp_path / "table.sg"
        target.write_bytes(b"order 1\n0\n# caf\xe9\n")
    assert main(["validate", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: semigroup file {target}: ")
    assert len(err.strip().splitlines()) == 1


def test_validate_name_too_long_for_a_path_is_usage_error(capsys):
    assert main(["validate", "a" * 300]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown fixture 'aaa")
    assert len(err.strip().splitlines()) == 1


def test_unknown_fixture_is_usage_error(capsys):
    assert main(["validate", "no-such-fixture"]) == 2


def test_classify_flow(tmp_path, capsys):
    out = tmp_path / "pair.json"
    main([
        "construct", "--family", "6", "--fixture", "c2",
        "--chi1", "chi1", "--chi2", "chi2", "--alpha", "2", "--out", str(out),
    ])
    rc = main(["classify", "--pair", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["family_tag"] == 6
    assert report["match_residual"] <= 1e-7


def test_classify_rejects_non_solution(tmp_path, capsys):
    pair = {
        "fixture": "c2", "sigma": "id", "alpha": [0.0, 0.0],
        "g": [[2.0, 0.0], [3.0, 0.0]], "f": [[1.0, 0.0], [1.0, 0.0]],
    }
    path = tmp_path / "bad_pair.json"
    path.write_text(json.dumps(pair))
    assert main(["classify", "--pair", str(path)]) == 1


def test_solve_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "sols.jsonl"
    rc = main([
        "solve", "c2", "--alpha", "1", "--seed", "7", "--restarts", "100",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert {"g", "f", "residual", "rank_deficient"} <= set(first)


def test_construct_family7_naturals(tmp_path, capsys):
    out = tmp_path / "h.json"
    rc = main([
        "construct", "--family", "7", "--fixture", "naturals-from-2",
        "--chi", "parity", "--additive", "five-adic", "--rho-const", "0.5",
        "--alpha", "0.25", "--window", "40", "--out", str(out),
    ])
    assert rc == 0
    rc = main(["verify", "--pair", str(out)])
    assert rc == 0


def test_construct_exact_family5(tmp_path, capsys):
    out = tmp_path / "e.json"
    rc = main([
        "construct", "--family", "5", "--fixture", "c2", "--chi1", "chi1",
        "--chi2", "chi2", "--alpha", "0", "--q", "3/4", "--exact",
        "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    # g = (9/8) chi1 - (1/8) chi2 -> (1, 5/4); f = (3/8)(chi1 - chi2) -> (0, 3/4)
    assert data["g"] == [["1", "0"], ["5/4", "0"]]
    assert data["f"] == [["0", "0"], ["3/4", "0"]]


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSLAW_OUTDIR", str(tmp_path / "artifacts"))
    rc = main([
        "construct", "--family", "1", "--fixture", "c2", "--alpha", "1",
        "--out", "p.json",
    ])
    assert rc == 0
    assert (tmp_path / "artifacts" / "p.json").exists()


def test_invalid_descriptor_is_check_failure(capsys):
    rc = main([
        "construct", "--family", "8", "--fixture", "c2", "--chi", "chi2",
        "--alpha", "2",
    ])
    assert rc == 1  # chi = chi* under sigma = id


@pytest.mark.parametrize("family, fixture, window", [
    ("1", "real-line", "16"),
    ("1", "heisenberg", "1"),
    ("1", "naturals-from-2", "20"),
    ("2", "naturals-from-2", "20"),
    ("3", "naturals-from-2", "20"),
])
def test_construct_verify_free_function_families(tmp_path, capsys, family, fixture, window):
    # g = alpha*f and f = -g wrap the free function's support spec in a combo
    out = tmp_path / "pair.json"
    alpha = "1" if family == "1" else "0"
    rc = main([
        "construct", "--family", family, "--fixture", fixture, "--alpha", alpha,
        "--window", window, "--out", str(out),
    ])
    assert rc == 0
    assert main(["verify", "--pair", str(out)]) == 0


GOLDEN_PAIRS = {
    "c3-family8-exact": ["--family", "8", "--fixture", "c3", "--sigma", "inv", "--chi", "chi2",
                         "--alpha", "3/5", "--exact"],
    "heisenberg-family8": ["--family", "8", "--fixture", "heisenberg", "--window", "2",
                           "--a", "1", "--b", "2", "--alpha", "3"],
    "naturals-family7": ["--family", "7", "--fixture", "naturals-from-2", "--chi", "parity",
                         "--additive", "five-adic", "--rho-const", "5/2", "--alpha", "1/2",
                         "--exact"],
    # I_chi is empty for chi = one, so h is the five-adic rule itself
    "naturals-one-family7": ["--family", "7", "--fixture", "naturals-from-2", "--chi", "one",
                             "--additive", "five-adic"],
    # rho alone: h is 0 off I_chi, so its spec marks the additive part absent
    "naturals-parity-rho-family7": ["--family", "7", "--fixture", "naturals-from-2",
                                    "--chi", "parity", "--rho-const", "1", "--alpha", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAIRS))
def test_construct_writes_golden_bytes(tmp_path, capsys, name):
    """Pair files are byte-identical to the recorded wire format."""
    out = tmp_path / f"{name}.json"
    assert main(["construct", *GOLDEN_PAIRS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()
    assert main(["verify", "--pair", str(out)]) == 0


def test_duplicate_characters_fail_the_family_check(capsys):
    rc = main([
        "construct", "--family", "6", "--fixture", "c2", "--alpha", "2",
        "--chi1", "chi1", "--chi2", "chi1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("construct failed:")
    assert "two different multiplicative functions" in err


def test_verify_nan_pair_is_check_failure(tmp_path, capsys):
    pair = {
        "fixture": "c2", "sigma": "id", "alpha": [0.0, 0.0],
        "g": [[float("nan"), 0.0], [float("nan"), 0.0]], "f": [[0.0, 0.0], [0.0, 0.0]],
    }
    path = tmp_path / "nan_pair.json"
    path.write_text(json.dumps(pair))
    assert main(["verify", "--pair", str(path)]) == 1
    report = json.loads(capsys.readouterr().out.strip())
    assert math.isnan(report["max_residual"])
    assert len(report["worst_pair"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--alpha", "0.5", "--restarts", "0"], "restarts must be positive"),
        (["--alpha", "0.5", "--sigma", "bogus"], "no sigma named 'bogus'"),
        (["--alpha", "1e400"], "out of range"),
        (["--alpha", "1", "--seed", "-1"], "seed must be non-negative"),
    ],
)
def test_solve_edge_inputs_are_usage_errors(capsys, argv, message):
    assert main(["solve", "c2", *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:") and message in err


def test_too_many_restarts_are_refused_before_the_solver_runs(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "find_solutions", refuse)
    monkeypatch.setattr(solver, "_disk", refuse)
    assert main(["solve", "c2", "--alpha", "1", "--restarts", "99999999999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: SolverConfig.restarts must be positive and at most 262144\n"


_INF_EXP_PAIR = {
    "fixture": "real-line", "sigma": "neg", "alpha": [2.0, 0.0],
    "g": {"rule": "exp", "lambda": [1e308, 0.0]}, "f": {"rule": "exp", "lambda": [1e308, 0.0]},
}


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "8", "--fixture", "real-line", "--lambda", "1e308", "--alpha", "2"],
    ["construct", "--family", "8", "--fixture", "heisenberg", "--a", "1e308i", "--b", "0",
     "--alpha", "2"],
    ["verify", "--pair", "PAIR"],
], ids=["real-line", "heisenberg", "verify"])
def test_infinite_exp_exponent_is_an_arithmetic_error(tmp_path, capsys, argv):
    # i * 1e308 * x is infinite at |x| > 1.8: cmath.exp raises ValueError there
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_INF_EXP_PAIR))
    assert main([str(path) if a == "PAIR" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("arithmetic error: exp exponent") and "infinite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["c2", "--alpha", "1e200", "--restarts", "5"],
    ["c3", "--sigma", "inv", "--alpha", "1e300i", "--restarts", "5"],
])
def test_solve_at_a_huge_alpha_writes_nothing_to_stderr(capsys, argv):
    # Gauss-Newton rows diverge to inf/nan and are dropped; numpy must not
    # warn about the overflow on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", *argv]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_overflowing_literal_is_usage_error():
    with pytest.raises(UsageError, match="out of range"):
        parse_complex("1e400")
    with pytest.raises(UsageError, match="out of range"):
        parse_complex("1-1e400i")


@pytest.mark.parametrize("literal, real", [
    ("1e308", 10**308),
    ("1.5e308", 15 * 10**307),
    ("0.001e311", 10**308),
    ("1e-400", Fraction(1, 10**400)),
    ("1e309", None),
    ("1.8e308", None),
])
def test_literals_at_the_float_range_edge(literal, real):
    if real is None:
        for exact in (False, True):
            with pytest.raises(UsageError, match="out of range"):
                parse_complex(literal, exact=exact)
        return
    assert parse_complex(literal) == float(real)
    assert parse_complex(literal, exact=True) == real


def test_huge_exponent_is_rejected_before_it_is_expanded(capsys):
    start = time.perf_counter()
    assert main(["solve", "c2", "--alpha", "1e100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "usage error: complex literal '1e100000000' is out of range\n"


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("where", ["alpha", "g"])
def test_pair_file_huge_exponent_is_a_parse_error_at_once(tmp_path, capsys, command, where):
    pair = {"fixture": "c2", "sigma": "id", "alpha": ["0", "0"],
            "g": [["1", "0"], ["1", "0"]], "f": [["0", "0"], ["0", "0"]]}
    if where == "alpha":
        pair["alpha"] = ["1e100000000", "0"]
    else:
        pair["g"][1] = ["0", "-1e100000000"]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    start = time.perf_counter()
    assert main([command, "--pair", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "out of range" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", ["e5", "0_e5"])
def test_pair_file_malformed_literal_is_a_parse_error(tmp_path, capsys, bad):
    pair = {"fixture": "c2", "sigma": "id", "alpha": [bad, "0"],
            "g": [["1", "0"], ["1", "0"]], "f": [["0", "0"], ["0", "0"]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert main(["verify", "--pair", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("literal, exact, value", [
    ("0e100000000", False, 0.0),
    ("0e100000000", True, 0),
    ("-0.00e-100000000", True, 0),
    ("1e-100000000", False, 0.0),
    ("-1e-100000000", False, -0.0),
])
def test_zero_and_underflowing_literals_are_read_without_the_power(literal, exact, value):
    start = time.perf_counter()
    v = parse_complex(literal, exact=exact)
    assert time.perf_counter() - start < 1.0
    assert type(v) is type(value) and v == value
    assert math.copysign(1, v) == math.copysign(1, value)


def test_chi_exp_takes_the_exp_parameters(tmp_path, capsys, monkeypatch):
    # `--chi exp` names the parametrized character: it reads --a/--b (and
    # --lambda) with their defaults, as leaving --chi out does
    monkeypatch.setenv("COSLAW_OUTDIR", str(tmp_path))
    argv = ["construct", "--family", "8", "--fixture", "heisenberg", "--sigma", "flip",
            "--alpha", "3"]
    assert main([*argv, "--chi", "exp", "--out", "x.json"]) == 0
    assert main([*argv, "--out", "default.json"]) == 0
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "default.json").read_bytes()
    capsys.readouterr()
    # exp(x) on the real line is not sigma-even: a check failure, not a traceback
    assert main(["construct", "--family", "4", "--fixture", "real-line", "--chi", "exp",
                 "--alpha", "1", "--q", "0", "--out", "y.json"]) == 1
    assert capsys.readouterr().err == (
        "construct failed: family 4 requires a sigma-even multiplicative function\n"
    )


@pytest.mark.parametrize("fixture", ["real-line", "heisenberg"])
@pytest.mark.parametrize("family", ["5", "6"])
def test_bare_exp_in_chi1_chi2_is_a_usage_error(capsys, fixture, family):
    # the parametrized exp has no parameters to read for two characters
    assert main(["construct", "--family", family, "--fixture", fixture,
                 "--chi1", "exp", "--chi2", "exp", "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "exp takes parameters" in err


@pytest.mark.parametrize(
    "fixture, window", [("real-line", 0), ("real-line", 1), ("c2", 0), ("naturals-from-2", -3)]
)
def test_window_below_minimum_is_usage_error(capsys, fixture, window):
    assert main(["validate", fixture, "--window", str(window)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "window must be at least" in err


# (fixture, largest window): each holds MAX_WINDOW_ELEMENTS = 4096 elements or fewer
LARGEST_WINDOWS = [("real-line", 4096), ("heisenberg", 7), ("naturals-from-2", 4097)]


@pytest.mark.parametrize("fixture, window", LARGEST_WINDOWS)
def test_window_above_maximum_is_usage_error(capsys, fixture, window):
    assert len(get_fixture(fixture, window=window).carrier.elements) <= 4096
    assert main(["validate", fixture, "--window", str(window + 1)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {fixture} window {window + 1} has more than 4096 elements\n"
    )


@pytest.mark.parametrize("fixture", ["heisenberg", "c2"])
@pytest.mark.parametrize("window", [True, "2", 1.5])
def test_a_pair_file_window_that_is_not_an_integer_is_a_parse_error(tmp_path, capsys, fixture, window):
    zero = [[0.0, 0.0]] * 2 if fixture == "c2" else {"rule": "const", "value": [0.0, 0.0]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"fixture": fixture, "sigma": "id", "window": window,
                                "alpha": [1.0, 0.0], "g": zero, "f": zero}))
    assert main(["verify", "--pair", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"parse error: pair file: {fixture} window must be an integer, got {window!r}\n")


def test_huge_window_is_refused_before_any_element_is_built(tmp_path, capsys):
    # (2*10**8 + 1)**3 Heisenberg elements would exhaust memory
    assert main(["construct", "--family", "8", "--fixture", "heisenberg", "--window", "100000000",
                 "--a", "1", "--b", "0", "--alpha", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: heisenberg window 100000000 has more than 4096 elements\n"
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"fixture": "heisenberg", "sigma": "flip", "window": 10**8,
                                "alpha": 0, "g": 0, "f": 0}))
    assert main(["verify", "--pair", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("window", [50, 2000])
def test_a_closed_stdout_pipe_gives_no_traceback(window):
    # the reader is gone before the first write; stdout is block-buffered,
    # so at window 50 the output fits the buffer and the flush at the end
    # meets the closed pipe, and at 2000 a print does
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "coslaw", "nullsets", "naturals-from-2", "--chi", "parity",
         "--window", str(window)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and err == ""


@pytest.mark.parametrize(
    "header",
    [
        {"fixture": "real-line", "sigma": "neg", "window": 0},
        {"fixture": "c2", "sigma": "bogus"},
        {"fixture": "bogus", "sigma": "id"},
    ],
)
def test_pair_file_bad_fixture_header_is_parse_error(tmp_path, capsys, header):
    pair = {**header, "alpha": 0, "g": 0, "f": 0}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert main(["verify", "--pair", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error:")


_C2_PAIR = {
    "fixture": "c2", "sigma": "id", "alpha": [0.0, 0.0],
    "g": [[1.0, 0.0], [1.0, 0.0]], "f": [[0.0, 0.0], [0.0, 0.0]],
}
BAD_PAIR_TEXT = {
    "missing-file": None,
    "truncated-json": json.dumps(_C2_PAIR)[:40],
    "short-vector": json.dumps({**_C2_PAIR, "g": [[1.0, 0.0]]}),
    "nan-literal": json.dumps({**_C2_PAIR, "g": [["nan", "0"], [1.0, 0.0]]}),
}


@pytest.mark.parametrize("case, command", [
    *((case, command) for case in BAD_PAIR_TEXT for command in ("verify", "classify")),
    ("zero-character", "nullsets"),
])
def test_edge_inputs_give_one_line_without_traceback(tmp_path, capsys, case, command):
    if command == "nullsets":
        argv, code, prefix = ["nullsets", "c3", "--chi", "chi0"], 2, "usage error:"
    else:
        path = tmp_path / "pair.json"
        if BAD_PAIR_TEXT[case] is not None:
            path.write_text(BAD_PAIR_TEXT[case])
        argv, code, prefix = [command, "--pair", str(path)], 1, "parse error:"
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["solve", "c2", "--alpha", "0.5", "--sigma", "bogus"], "fixture c2 has no sigma named 'bogus'"),
    (["validate", "bogus"], f"unknown fixture 'bogus'; available: {', '.join(FIXTURE_NAMES)}"),
    (["nullsets", "c3", "--chi", "bogus"], "fixture c3 has no character named 'bogus'"),
    (["construct", "--family", "6", "--fixture", "c2", "--chi1", "bogus", "--chi2", "chi1"],
     "fixture c2 has no character named 'bogus'"),
], ids=["sigma", "fixture", "chi", "chi1"])
def test_usage_error_message_is_unquoted(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["solve", "real-line", "--alpha", "1"], 2, "usage error: solve needs a finite fixture"),
    (["construct", "--family", "1", "--fixture", "real-line", "--alpha", "1", "--free-file", "FREE"], 1,
     "parse error: function file FREE: dense values are only valid for finite fixtures"),
    (["construct", "--family", "4", "--fixture", "c2", "--chi", "chi1", "--alpha", "1"], 1,
     "construct failed: family 4 requires the constant q"),
], ids=["solve-procedural", "dense-free-file", "family4-without-q"])
def test_each_refusal_is_its_one_stderr_line(tmp_path, capsys, argv, code, message):
    free = tmp_path / "free.json"
    free.write_text("[[1, 0], [2, 0]]")
    assert main([str(free) if a == "FREE" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == message.replace("FREE", str(free)) + "\n" and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "c2", "--alpha", "1", "--exact"],
    ["suite", "--window", "3"],
    ["verify", "--pair", "p.json", "--window", "3"],
    ["classify", "--pair", "p.json", "--window", "3"],
    ["characters", "c2", "--exact"],
    ["automorphisms", "real-line", "--window", "8"],
    ["characters", "heisenberg", "--window", "1"],
    ["solve", "c2", "--alpha", "1", "--window", "3"],
    ["nullsets", "c3", "--chi", "chi1", "--sigma", "inv"],
    ["nullsets", "real-line", "--lambda", "1"],
    ["nullsets", "heisenberg", "--a", "1"],
    ["nullsets", "heisenberg", "--b", "1"],
    ["verify", "--pair", "p.json", "--exact"],
    ["classify", "--pair", "p.json", "--exact"],
], ids=["solve-exact", "suite-window", "verify-window", "classify-window", "characters-exact",
        "automorphisms-window", "characters-window", "solve-window", "nullsets-sigma",
        "nullsets-lambda", "nullsets-a", "nullsets-b", "verify-exact", "classify-exact"])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unrecognized arguments") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "c2", "--bogus"],
    ["solve", "c2", "--alpha", "1", "--bogus"],
    ["construct", "--family", "9", "--fixture", "c2"],
    ["verify"],
], ids=["missing-alpha", "unknown-option", "bad-choice", "missing-pair"])
def test_argparse_errors_are_one_usage_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


def test_help_is_still_the_argparse_usage_block(capsys):
    assert main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: coslaw solve [-h] --alpha ALPHA")
    assert "--restarts RESTARTS" in out and len(out.splitlines()) > 5


@pytest.mark.parametrize("literal", ["-1/2", "-i", "-1e3", "-2+1i"])
def test_a_negative_literal_after_alpha_is_its_value(capsys, literal):
    assert main(["solve", "c2", "--alpha", literal, "--restarts", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and f"(alpha = {literal}," in captured.out


def test_a_malformed_negative_literal_reaches_the_literal_parser(capsys):
    assert main(["solve", "c2", "--alpha", "-2+1j", "--restarts", "5"]) == 2
    assert capsys.readouterr().err == "usage error: malformed complex literal '-2+1j'\n"


@pytest.mark.parametrize("argv", [
    ["--family", "4", "--fixture", "c2", "--chi", "chi1", "--q", "-1/2", "--alpha", "-i"],
    ["--family", "8", "--fixture", "real-line", "--lambda", "-1e3", "--alpha", "-2+1i", "--window", "8"],
    ["--family", "7", "--fixture", "naturals-from-2", "--chi", "parity", "--rho-const", "-i",
     "--alpha", "1", "--window", "50"],
    ["--family", "8", "--fixture", "heisenberg", "--sigma", "flip", "--a", "-i", "--b", "-1/2",
     "--alpha", "3", "--window", "1"],
], ids=["q", "lambda", "rho-const", "a-b"])
def test_negative_literals_after_every_literal_option(tmp_path, capsys, argv):
    out = tmp_path / "pair.json"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "" and out.exists()


@pytest.mark.parametrize("argv, err", [
    (["construct", "--family", "8", "--fixture", "real-line", "--lam", "-1e3", "--alpha", "2"],
     "unrecognized arguments: --lam -1e3"),
    (["solve", "c2", "--alph", "-1/2"], "the following arguments are required: --alpha"),
], ids=["lam", "alph"])
def test_an_abbreviated_literal_option_is_not_an_option_name(capsys, argv, err):
    # option names are taken only whole, so no spelling escapes the literal join
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {err}\n"


@pytest.mark.parametrize("case", ["missing", "truncated", "short-vector", "bad-fraction", "unknown-rule"])
def test_free_file_errors_are_parse_errors(tmp_path, capsys, case):
    path = tmp_path / "free.json"
    fixture = "c2"
    if case == "truncated":
        path.write_text("[[1, 0],")
    elif case == "short-vector":
        path.write_text("[[1, 0]]")
    elif case == "bad-fraction":
        path.write_text('[["1/0", "0"], [1, 0]]')
    elif case == "unknown-rule":
        path.write_text('{"rule": "bogus"}')
        fixture = "real-line"
    out = tmp_path / "pair.json"
    argv = ["construct", "--family", "1", "--fixture", fixture, "--alpha", "1",
            "--free-file", str(path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: function file") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["--fixture", "real-line", "--sigma", "id", "--lambda", "1", "--window", "8"], "linear"),
    (["--fixture", "heisenberg", "--sigma", "id", "--window", "1"], "coords"),
], ids=["real-line", "heisenberg"])
def test_procedural_fixtures_without_additive_rules_refuse_one(tmp_path, capsys, argv, name):
    # only naturals-from-2 names an additive rule, whose h has a spec to write
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "7", *argv, "--additive", name, "--out", str(out)]) == 2
    fixture = argv[1]
    assert capsys.readouterr().err == f"usage error: fixture {fixture} has no additive rule {name!r}\n"
    assert not out.exists()


def _nested_spec(kind: str, levels: int) -> str:
    """A real-line rule spec `levels` deep, as JSON text: `star`s under neg,
    or one-term `combo`s, over a const.  Written by hand, as `json.dumps`
    itself recurses once per level."""
    head, tail = {
        "star": ('{"rule": "star", "sigma": "neg", "fn": ', "}"),
        "combo": ('{"rule": "combo", "terms": [{"coef": [1.0, 0.0], "fn": ', "}]}"),
    }[kind]
    const = '{"rule": "const", "value": [0.0, 0.0]}'
    return head * (levels - 1) + const + tail * (levels - 1)


def _nested_pair(path, kind: str, levels: int):
    path.write_text('{"fixture": "real-line", "sigma": "neg", "alpha": [1.0, 0.0], "g": '
                    + _nested_spec(kind, levels) + ', "f": {"rule": "const", "value": [0.0, 0.0]}}')


@pytest.mark.parametrize("kind, levels, reason", [
    # decoded, then refused at level MAX_SPEC_DEPTH + 1
    ("star", 401, f"function spec nested more than {MAX_SPEC_DEPTH} levels"),
    # too deep for the JSON decoder itself
    ("combo", 701, "maximum recursion depth exceeded while decoding a JSON"),
], ids=["star-401", "combo-701"])
@pytest.mark.parametrize("command", ["verify", "classify", "free-file"])
def test_a_deeply_nested_spec_is_one_parse_error(tmp_path, capsys, kind, levels, reason, command):
    path, out = tmp_path / "in.json", tmp_path / "pair.json"
    if command == "free-file":
        path.write_text(_nested_spec(kind, levels))
        argv = ["construct", "--family", "1", "--fixture", "real-line", "--alpha", "1",
                "--free-file", str(path), "--out", str(out)]
    else:
        _nested_pair(path, kind, levels)
        argv = [command, "--pair", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("parse error: ") and reason in captured.err
    assert not out.exists()


def test_a_spec_at_the_nesting_limit_still_verifies(tmp_path, capsys):
    path = tmp_path / "pair.json"
    _nested_pair(path, "star", MAX_SPEC_DEPTH)
    assert main(["verify", "--pair", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] == 0.0
    _nested_pair(path, "star", MAX_SPEC_DEPTH + 1)
    assert main(["verify", "--pair", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"parse error: pair file: function spec nested more than {MAX_SPEC_DEPTH} levels\n")


def test_a_pair_nested_beyond_the_limit_is_not_written(tmp_path, capsys):
    # a free function at the limit is read, but g = alpha*f is one level deeper
    free, out = tmp_path / "free.json", tmp_path / "pair.json"
    free.write_text(_nested_spec("star", MAX_SPEC_DEPTH).replace("[0.0, 0.0]", "[1.0, 0.0]"))
    assert main(["construct", "--family", "1", "--fixture", "real-line", "--alpha", "1",
                 "--free-file", str(free), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("construct failed: cannot write the pair: "
                                       f"function spec nested more than {MAX_SPEC_DEPTH} levels\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--fixture", "naturals-from-2", "--chi", "one", "--rho-const", "1"],
    ["--fixture", "heisenberg", "--a", "0", "--b", "0", "--rho-const", "2"],
], ids=["naturals-one", "heisenberg"])
def test_a_zero_h_with_a_rho_is_written_and_verifies(tmp_path, capsys, argv):
    # P_chi is empty everywhere and there is no additive part: h is 0
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "7", *argv, "--alpha", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["f"]["terms"][1]["fn"] == {"rule": "const", "value": [0.0, 0.0]}
    assert main(["verify", "--pair", str(out)]) == 0
    assert capsys.readouterr().err == ""


_ONE = [1.0, 0.0]


@pytest.mark.parametrize("fixture, points", [
    ("real-line", ["a"]),
    ("naturals-from-2", [1, 2.5, True]),
    ("naturals-from-2", [2.5]),
    ("naturals-from-2", [True]),
    ("c2", [2]),
    ("bool-mult", [1.0]),
    ("bool-mult", [True]),
    ("c2", ["a"]),
], ids=["real-line-str", "naturals-all", "naturals-float", "naturals-bool", "c2-index",
        "bool-mult-float", "bool-mult-bool", "c2-str"])
def test_support_points_outside_the_carrier_are_parse_errors(tmp_path, capsys, fixture, points):
    g = {"rule": "support", "points": [[x, _ONE] for x in points]}
    finite = get_fixture(fixture).carrier.is_finite
    zero = [[0.0, 0.0]] * 2 if finite else {"rule": "const", "value": [0.0, 0.0]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"fixture": fixture, "sigma": "id", "alpha": [1.0, 0.0],
                                "g": g, "f": zero}))
    assert main(["verify", "--pair", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: pair file:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("fixture, point", [("real-line", 10.0), ("naturals-from-2", 67)])
def test_support_points_beyond_the_window_stay_legal(tmp_path, capsys, fixture, point):
    # no window product reaches the point, so g = f = its indicator solves family 2
    g = {"rule": "support", "points": [[point, _ONE]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"fixture": fixture, "sigma": "id", "alpha": [0.5, 0.0], "g": g, "f": g}))
    assert main(["verify", "--pair", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_outside_its_range_is_a_usage_error(capsys, tol):
    assert main(["verify", "--pair", str(DATA / "c3-family8-exact.json"), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --tol") and len(captured.err.splitlines()) == 1


def test_verify_tol_zero_passes_an_exact_pair(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["construct", "--family", "6", "--fixture", "c2", "--chi1", "chi1", "--chi2", "chi2",
                 "--alpha", "1/2", "--exact", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--pair", str(out), "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] == 0.0


# ---------------------------------------------------------------------------
# fuzzing: every input ends in exit 0, 1 or 2 and one line, never a traceback
# ---------------------------------------------------------------------------

_LITERALS = st.one_of(
    st.text(max_size=12),
    st.from_regex(
        r"[+-]?\d{0,3}(\.\d{0,3})?([eE][+-]?\d{1,3})?(/\d{1,2})?([+-]\d{0,3}(\.\d)?(/\d)?)?i?",
        fullmatch=True,
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_LITERALS, st.booleans())
def test_parse_complex_fuzz(text, exact):
    try:
        v = parse_complex(text, exact=exact)
    except UsageError:
        return
    assert cmath.isfinite(complex(v))  # whatever parses is a finite number


# rule specs hold float pairs; dense values may also be fraction strings
_FLOAT_SCALARS = st.one_of(
    st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0, 1e300, -1000.0, 1000.0, math.nan, math.inf]),
             min_size=2, max_size=2),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=2),
)
_GOOD_SCALARS = st.one_of(
    _FLOAT_SCALARS,
    st.lists(st.sampled_from(["1/2", "-3", "0", "2/3"]), min_size=2, max_size=2),
)
_BAD_SCALARS = st.one_of(
    st.lists(st.sampled_from(["1/0", "nan", "x", 10**400]), min_size=2, max_size=2),
    st.sampled_from([[1.0], 1, "x", None, [1, 2, 3], {}]),
)


def _functions(fixture: str, sigmas: list, scalars):
    """Function specs for `fixture`: dense lists on finite carriers, and rule
    specs, nested through combo and star, on rule-defined ones."""
    if fixture == "real-line":
        named = st.builds(lambda v: {"rule": "exp", "lambda": v}, scalars)
        points = st.sampled_from([0.0, -math.pi])
    elif fixture == "heisenberg":
        named = st.builds(lambda a, b: {"rule": "exp", "a": a, "b": b}, scalars, scalars)
        points = st.lists(st.integers(-1, 1), min_size=3, max_size=3)
    elif fixture == "naturals-from-2":
        named = st.one_of(
            st.sampled_from([{"rule": r} for r in ("parity", "one", "five-adic")]),
            st.builds(lambda v: {"rule": "h-piecewise", "c": v}, scalars),
        )
        points = st.integers(2, 6)
    else:
        order = get_fixture(fixture).carrier.order
        named = points = None
    if named is None:
        leaf = st.lists(scalars, min_size=order, max_size=order)
    else:
        const = st.builds(lambda v: {"rule": "const", "value": v}, scalars)
        support = st.builds(lambda v: {"rule": "support", "points": v},
                            st.lists(st.tuples(points, scalars).map(list), max_size=3))
        leaf = st.one_of(const, support, named, named)  # named rules drawn twice as often
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(lambda ts: {"rule": "combo", "terms": ts},
                      st.lists(st.builds(lambda c, f: {"coef": c, "fn": f}, scalars, inner),
                               min_size=1, max_size=2)),
            st.builds(lambda s, f: {"rule": "star", "sigma": s, "fn": f},
                      st.sampled_from(sigmas), inner),
        ),
        max_leaves=3,
    )


@st.composite
def _pair_files(draw):
    """Mostly well-formed pair files, so that most reach the residual scan and
    the classifier; one in four is corrupted in one place."""
    fixture = draw(st.sampled_from(FIXTURE_NAMES))
    sigmas = [s.name for s in get_fixture(fixture).sigmas]
    finite = get_fixture(fixture).carrier.is_finite
    functions = _functions(fixture, sigmas, _GOOD_SCALARS if finite else _FLOAT_SCALARS)
    pair = {
        "fixture": fixture,
        "sigma": draw(st.sampled_from(sigmas)),
        "alpha": draw(_GOOD_SCALARS),
        "g": draw(functions),
        "f": draw(functions),
    }
    # small windows keep each scan short (the default heisenberg window is 117,649 pairs)
    if fixture == "heisenberg":
        pair["window"] = draw(st.sampled_from([1, 2]))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(["fixture", "sigma", "alpha", "g", "f", "window"]))
        junk = {
            "fixture": st.sampled_from(["bogus", 3, None]),
            "sigma": st.sampled_from(["bogus", 3, None]),
            "alpha": _BAD_SCALARS,
            "g": st.one_of(_functions(fixture, [*sigmas, "bogus"], _BAD_SCALARS),
                           st.sampled_from([None, 3, "f", {}, {"rule": "bogus"},
                                            {"rule": "combo", "terms": []}, [[1.0, 0.0]]])),
            "window": st.sampled_from([-1, 0, 1, 2.5, "2", None, True]),
        }
        junk["f"] = junk["g"]
        if draw(st.booleans()):
            pair.pop(key, None)
        else:
            pair[key] = draw(junk[key])
    return pair


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_pair_files(), st.sampled_from(["verify", "classify"]))
def test_pair_file_fuzz_keeps_the_exit_contract(tmp_path, capsys, pair, command):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    rc = main([command, "--pair", str(path)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1


_FINITE = [name for name in FIXTURE_NAMES if get_fixture(name).carrier.is_finite]
_TOKENS = ["x", "-1", "4", "99", "1.5", "order", "sigma", "#", "1_0", "\u0663", "9" * 5000, ""]


@st.composite
def _semigroup_files(draw):
    """Semigroup files of order <= 4: a built-in table (with one of its
    sigmas, or none) or a random one; one in four is corrupted in one place."""
    if draw(st.booleans()):
        fx = get_fixture(draw(st.sampled_from(_FINITE)))
        table = [list(row) for row in fx.carrier.cayley]
        perm = draw(st.sampled_from([None, *(s.perm for s in fx.sigmas)]))
    else:
        n = draw(st.integers(1, 4))
        table = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n))
        perm = draw(st.none() | st.permutations(range(n)))
    lines = [f"order {len(table)}", *(" ".join(map(str, row)) for row in table)]
    if perm is not None:
        lines.append("sigma " + " ".join(map(str, perm)))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 3)) > 0:
        return data
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["token", "drop", "repeat", "junk-line", "bytes", "truncate"]))
    if how == "token":
        words = lines[k].split()
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(_TOKENS))
        lines[k] = " ".join(words)
    elif how == "drop":
        del lines[k]
    elif how == "repeat":
        lines.insert(k, lines[k])
    elif how == "junk-line":
        lines.insert(k, draw(st.text(max_size=8)))
    data = ("\n".join(lines) + "\n").encode()
    cut = draw(st.integers(0, len(data)))
    if how == "bytes":
        data = data[:cut] + draw(st.binary(min_size=1, max_size=3)) + data[cut:]
    elif how == "truncate":
        data = data[:cut]
    return data


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_semigroup_files())
def test_semigroup_file_fuzz_keeps_the_exit_contract(tmp_path, capsys, data):
    path = tmp_path / "table.sg"
    path.write_bytes(data)
    rc = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1


# well-formed literals drawn three times as often as malformed ones
_CONSTRUCT_LITERALS = st.sampled_from(
    ["0", "1", "-1", "2", "1/3", "-1/2", "i", "-i", "-1e3", "-2+1i", "0.5-0.5i"] * 3
    + ["1e400", "-2+1j", "x", "", "-", "--", "nan"])


@st.composite
def _construct_argv(draw):
    """`construct` argument lists: a family (or a bad one), a fixture, and a
    few options with names from the fixture or not and literals of every
    shape; windows stay small so that each construct is quick."""
    fixture = draw(st.sampled_from([*FIXTURE_NAMES] * 3 + ["bogus"]))
    fx = get_fixture(fixture) if fixture != "bogus" else None
    names = {
        "--sigma": [s.name for s in fx.sigmas] if fx else [],
        "--chi": [*fx.characters, "exp"] if fx else [],
        "--additive": list(fx.additive_rules) if fx else [],
    }
    names["--chi1"] = names["--chi2"] = names["--chi"]
    options = {opt: st.sampled_from([*values] * 3 + ["bogus"]) for opt, values in names.items()}
    options.update({opt: _CONSTRUCT_LITERALS for opt in ("--alpha", "--q", "--lambda", "--a", "--b", "--rho-const")})
    options["--branch"] = st.sampled_from(["1", "-1", "2"])
    options["--free-file"] = st.just("missing.json")
    family = draw(st.sampled_from([*"12345678"] * 3 + ["0", "9", "x"]))
    argv = ["construct", "--family", family, "--fixture", fixture]
    # the characters the family reads, given three times in four
    needs = {"5": ["--chi1", "--chi2"], "6": ["--chi1", "--chi2"]}.get(family, ["--chi"])
    needs = needs if draw(st.integers(0, 3)) else []
    for opt in dict.fromkeys(needs + draw(st.lists(st.sampled_from(sorted(options)), max_size=5))):
        argv += [opt, draw(options[opt])]
    if fixture in ("heisenberg", "naturals-from-2") or draw(st.booleans()):
        window = ["1", "2"] if fixture == "heisenberg" else ["2", "3", "8", "40"]
        argv += ["--window", draw(st.sampled_from([*window, "0", "-1", "x"]))]
    if draw(st.booleans()):
        argv.append("--exact")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_construct_argv())
def test_construct_argument_fuzz_keeps_the_exit_contract(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("COSLAW_OUTDIR", str(tmp_path))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1
