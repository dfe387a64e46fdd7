"""The benchmark's workloads: seeded call lists over coslaw's public API.

`build` is the set-up step: it makes the fixtures and the inputs of one
pass and returns them as a list of `Call`s.  Running a call returns a
JSON-able record of the outputs that are checked against the reference
recorded from the seed commit (`reference/<workload>.json`).

A workload seed selects one of `REFERENCE_SEEDS` input sets (seed modulo
`REFERENCE_SEEDS`), so every seed has a recorded reference.  The seed only
changes the inputs coslaw receives: the solver's random starts, and on
construct-verify the Heisenberg characters, the piecewise-h constant, the
round-trip descriptors and the CLI parameters.  The call list itself is the
same for every seed, which keeps the work per pass steady across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import coslaw
import coslaw.acceptance
import coslaw.cli
import coslaw.solver

REFERENCE_SEEDS = 16

# Positive-dimensional components: ~2000 kept points per call, so the O(k^2)
# dedup and ~2000 classify calls dominate.  One call keeps a pass near 10 s,
# so a run holds three or more passes.
SOLVE_CURVES = (("c2", "id", 0.5),)

# Isolated solutions only: 20-350 kept points, time goes to Gauss-Newton.
SOLVE_ISOLATED = (
    ("c3", "inv", 0.5), ("c3", "inv", 1j), ("leftzero2", "id", 0.5),
    ("leftzero2", "swap", 1j), ("null3", "id", 0.5), ("null3", "swap", 1j),
)

SOLVE_TRIPLES = {"solve-curves": SOLVE_CURVES, "solve-isolated": SOLVE_ISOLATED}
WORKLOADS = (*SOLVE_TRIPLES, "construct-verify")

FINITE = ("c2", "c3", "leftzero2", "null3", "bool-mult")
ROUND_TRIPS = 200
RECONSTRUCT_TOL = 1e-7


@dataclass
class Call:
    label: str
    run: Callable[[], object]


def seed_index(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def build(name: str, seed: int, scratch: Path, capture: "SolutionCapture") -> list[Call]:
    """Set-up for one workload: fixtures, characters and the seeded inputs.

    `scratch` is the directory for the CLI's output files; `capture` must be
    installed before any tracing wrapper so that tracing leaves it in place.
    """
    idx = seed_index(seed)
    if name == "construct-verify":
        return _construct_verify_calls(idx, scratch)
    cfg = coslaw.SolverConfig(seed=idx)  # restarts stay at the default 2000
    calls = []
    for fx_name, sigma_name, alpha in SOLVE_TRIPLES[name]:
        fx = coslaw.get_fixture(fx_name)
        calls.append(Call(
            f"{fx_name}/{sigma_name}/alpha={alpha}",
            _solve_call(fx.carrier, fx.sigma(sigma_name), alpha, cfg, capture),
        ))
    return calls


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------


class SolutionCapture:
    """Keeps the SolutionSet that `completeness_check` gets from
    `find_solutions`, whose rank-deficient flags its report does not carry."""

    def __init__(self, original):
        self.original = original
        self.last = None

    @classmethod
    def install(cls) -> "SolutionCapture":
        capture = cls(coslaw.solver.find_solutions)
        coslaw.solver.find_solutions = capture
        return capture

    def __call__(self, *args, **kwargs):
        self.last = self.original(*args, **kwargs)
        return self.last


def _solve_call(carrier, sigma, alpha, cfg, capture):
    def run():
        capture.last = None
        rep = coslaw.completeness_check(carrier, sigma, alpha, cfg)
        sols = capture.last
        deficient = None if sols is None else sum(e.rank_deficient for e in sols.entries)
        return {
            "total": rep.total,
            "tags": sorted([str(k), v] for k, v in rep.tags.items()),
            "rank_deficient": deficient,
            "unclassified": len(rep.unclassified),
        }

    return run


# ---------------------------------------------------------------------------
# construct-verify
# ---------------------------------------------------------------------------


def _verdict(rep) -> list:
    """Exact/float mode, exact-zero verdict and pass verdict of a residual."""
    return [rep.mode, rep.max_residual == 0.0, rep.ok()]


def _construct_verify_calls(idx: int, scratch: Path) -> list[Call]:
    rng = np.random.default_rng([idx, 2210])
    calls = []

    # A1: the family case matrix over all eight fixtures
    for k, (fx, sigma, d, free, preds, _) in enumerate(coslaw.acceptance.family_case_matrix()):
        calls.append(Call(
            f"A1/{k}/{fx.name}/{sigma.name}/family{d.family}",
            _case_call(fx.carrier, sigma, d, free, preds),
        ))

    # A3: exact ExpPoly residual scans on the Heisenberg window (bound 3)
    h3 = coslaw.get_fixture("heisenberg")
    flip = h3.sigma("flip")
    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    a, b = grid[int(rng.integers(len(grid)))]
    d = coslaw.FamilyDescriptor(8, 3, chi=h3.character("exp", a=a, b=b))
    calls.append(Call(f"A3/family8/a={a},b={b}", _case_call(h3.carrier, flip, d)))
    one = h3.character("exp", a=0, b=0)
    ones = coslaw.function_vanishing_on_products(h3.carrier, {x: 1 for x in h3.carrier.elements})
    for label, d, free in (
        ("zero", coslaw.FamilyDescriptor(4, 3, q=-3, branch=-1, chi=one), None),
        ("family1", coslaw.FamilyDescriptor(1, 1), ones),
    ):
        calls.append(Call(f"A3/{label}", _case_call(h3.carrier, flip, d, free)))
    calls.append(Call("A3/family6-rejects-repeat", _rejected_call(
        h3.carrier, flip, coslaw.FamilyDescriptor(6, 3, chi1=one, chi2=one))))

    # A4: naturals null sets and the piecewise h
    nat = coslaw.get_fixture("naturals-from-2", window=200)
    rho = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
    calls.append(Call("A4/null_sets", _null_sets_call(nat)))
    calls.append(Call(f"A4/build_h/rho={rho}", _build_h_call(nat, rho)))

    # A8-style exact round trip on the finite carriers
    combos = []
    for name in FINITE:
        fx = coslaw.get_fixture(name)
        for sigma in fx.sigmas:
            evens = [c for c in coslaw.enumerate_multiplicative(fx.carrier)
                     if not c.is_zero and c.is_even(sigma)]
            twisted = [c for c in coslaw.enumerate_multiplicative(fx.carrier)
                       if not c.is_zero and not c.same_as(c.star(sigma))]
            combos.append((fx, sigma, evens, twisted))
    for k in range(ROUND_TRIPS):
        fx, sigma, evens, twisted = combos[int(rng.integers(len(combos)))]
        d, free = _exact_descriptor(fx.carrier, sigma, evens, twisted, rng)
        calls.append(Call(
            f"A8/{k}/{fx.name}/{sigma.name}/family{d.family}",
            _round_trip_call(fx.carrier, sigma, d, free),
        ))

    # a CLI slice: construct --out, verify --pair, classify --pair
    for label, argv, classify in _cli_cases(rng):
        calls.append(Call(f"cli/{label}", _cli_call(label, argv, classify, scratch)))
    return calls


def _case_call(carrier, sigma, d, free=None, preds=None):
    def run():
        pair = coslaw.construct(carrier, sigma, d, free_f=free, predicates=preds)
        return _verdict(coslaw.residual(carrier, sigma, d.alpha, pair.g, pair.f))

    return run


def _rejected_call(carrier, sigma, d):
    def run():
        try:
            coslaw.construct(carrier, sigma, d)
        except coslaw.InvalidDescriptor:
            return "invalid"
        return "accepted"

    return run


def _null_sets_call(nat):
    sigma, parity = nat.sigma("id"), nat.characters["parity"]

    def run():
        ns = coslaw.null_sets(nat.carrier, sigma, parity)
        return {
            "i_chi": sorted(ns.i_chi), "i_chi_sq": sorted(ns.i_chi_sq),
            "p_chi": sorted(ns.p_chi), "certified": ns.certified,
        }

    return run


def _build_h_call(nat, rho):
    def run():
        h = coslaw.build_h(
            nat.carrier, nat.sigma("id"), nat.characters["parity"],
            additive=nat.additive_rules["five-adic"], rho=rho,
            predicates=nat.null_predicates["parity"],
        )
        return [str(h(x)) for x in (6, 8, 15, 25, 50, 250, 1250, 4002)]

    return run


def _rational(rng) -> Fraction:
    return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))


def _exact_descriptor(s, sigma, evens, twisted, rng):
    """A descriptor with rational parameters; families 2/3/5/6/8 fall back
    to family 1 or 4 where the carrier lacks what they need."""
    outside = sorted(set(s.elements) - coslaw.product_set(s, s.elements))
    choices = [1, 4, 7] + ([2, 3] if outside else []) + ([5, 6] if len(evens) >= 2 else [])
    choices += [8] if twisted else []
    fam = int(rng.choice(choices))
    if fam == 1:
        free = coslaw.ScalarFunction(s, values=[_rational(rng) + 6 for _ in s.elements])
        return coslaw.FamilyDescriptor(1, int(rng.choice((1, -1)))), free
    if fam in (2, 3):
        free = coslaw.function_vanishing_on_products(
            s, {x: _rational(rng) + Fraction(1, 7) for x in outside})
        alpha = _rational(rng)
        if alpha in (1, -1):
            alpha += 11
        return coslaw.FamilyDescriptor(fam, alpha), free
    branch = int(rng.choice((1, -1)))
    if fam == 4:
        chi = evens[int(rng.integers(len(evens)))]
        return coslaw.FamilyDescriptor(4, _rational(rng), q=_rational(rng), branch=branch, chi=chi), None
    if fam in (5, 6):
        i, j = rng.choice(len(evens), size=2, replace=False)
        alpha, q = _rational(rng), _rational(rng)
        if fam == 6:
            return coslaw.FamilyDescriptor(6, alpha + 11, chi1=evens[i], chi2=evens[j]), None
        if q in (alpha, -alpha):
            q += 7
        return coslaw.FamilyDescriptor(5, alpha, q=q, branch=branch,
                                       chi1=evens[i], chi2=evens[j]), None
    if fam == 7:
        chi = evens[int(rng.integers(len(evens)))]
        return coslaw.FamilyDescriptor(7, _rational(rng), branch=branch, chi=chi,
                                       h_spec=coslaw.HSpec()), None
    alpha = _rational(rng)
    if alpha in (1, -1):
        alpha += 11
    return coslaw.FamilyDescriptor(8, alpha, chi=twisted[int(rng.integers(len(twisted)))]), None


def _round_trip_call(carrier, sigma, d, free):
    def run():
        pair = coslaw.construct(carrier, sigma, d, free_f=free)
        rep = coslaw.residual(carrier, sigma, d.alpha, pair.g, pair.f)
        result = coslaw.classify(carrier, sigma, d.alpha, pair.g, pair.f)
        if not result.classified:
            return [_verdict(rep), "unclassified"]
        rebuilt = coslaw.construct(carrier, sigma, result.descriptor)
        m = max(rebuilt.g.max_diff(pair.g), rebuilt.f.max_diff(pair.f))
        exact_match = m == 0.0 if rep.mode == "exact" else None
        return [_verdict(rep), result.family_tag, exact_match, m <= RECONSTRUCT_TOL]

    return run


def _cli_cases(rng):
    """(label, construct argv, classify?) for three seeded CLI slices."""
    p, q = int(rng.integers(1, 9)), int(rng.integers(2, 9))
    if p == q:
        p += 1
    a, b = (int(v) for v in rng.integers(1, 3, size=2))
    c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4)))
    return (
        ("c3-family8", ["--family", "8", "--fixture", "c3", "--sigma", "inv", "--chi", "chi2",
                        "--alpha", f"{p}/{q}", "--exact"], True),
        ("heisenberg-family8", ["--family", "8", "--fixture", "heisenberg", "--window", "2",
                                "--a", str(a), "--b", str(b), "--alpha", "3"], False),
        ("naturals-family7", ["--family", "7", "--fixture", "naturals-from-2", "--chi", "parity",
                              "--additive", "five-adic", "--rho-const", str(c),
                              "--alpha", "1/2", "--exact"], False),
    )


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = coslaw.cli.main(argv)
    return code, out.getvalue()


def _cli_call(label, construct_argv, classify, scratch: Path):
    def run():
        os.environ["COSLAW_OUTDIR"] = str(scratch)
        name = f"{label}.json"
        code, _ = _cli(["construct", *construct_argv, "--out", name])
        if code != 0:
            return {"construct_exit": code}
        path = str(scratch / name)
        vcode, vout = _cli(["verify", "--pair", path])
        verify = json.loads(vout)
        record = {
            "construct_exit": code,
            "verify_exit": vcode,
            "verify": [verify["mode"], verify["max_residual"] == 0.0],
        }
        if classify:
            ccode, cout = _cli(["classify", "--pair", path])
            record["classify_exit"] = ccode
            record["family_tag"] = json.loads(cout)["family_tag"]
        return record

    return run
