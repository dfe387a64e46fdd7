"""Command-line front end.

Subcommands: validate, automorphisms, characters, nullsets, construct,
verify, solve, classify, suite.  Exit status 0 on success / pass, 1 on a
check failure, 2 on usage errors; a stdout closed early (``| head``) ends
the run with status 1 and no traceback.  Complex literals accept ``a``, ``bi``,
``a+bi`` and ``a-bi`` with decimal reals (fractions too under ``--exact``).
The output directory for artifact files can be overridden with the
``COSLAW_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from .analysis import NotASolution, classify, residual
from .exactnum import VERIFY_TOL, rational_complex, read_fraction
from .families import (
    ConditionViolation,
    FamilyDescriptor,
    HSpec,
    InvalidDescriptor,
    construct,
    function_vanishing_on_products,
)
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture
from .functions import ScalarFunction, null_sets
from .semigroups import product_set, validate
from .serialize import (
    ParseError,
    load_function,
    load_pair,
    load_semigroup,
    save_pair,
    scalar_to_json,
)
from .solver import SolverConfig, find_solutions


class UsageError(ValueError):
    pass


_NUM = re.compile(r"[+-]?(?:\d+/\d+|\d*\.\d+|\d+\.?|\.\d+)(?:[eE][+-]?\d+)?$")


def parse_complex(text: str, exact: bool = False):
    """a | bi | a+bi | a-bi with decimal (or fractional) reals."""
    t = text.strip().replace(" ", "")
    if t.endswith("i"):
        body = t[:-1]
        # the last sign that is not a leading sign or an exponent sign splits
        # the real part from the imaginary coefficient
        split = None
        for k in range(1, len(body)):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
        if split is None:
            re_txt, im_txt = "0", body or "1"
        else:
            re_txt, im_txt = body[:split], body[split:]
        if im_txt in ("+", ""):
            im_txt = "1"
        elif im_txt == "-":
            im_txt = "-1"
    else:
        re_txt, im_txt = t, "0"
    if not (_NUM.match(re_txt) and _NUM.match(im_txt)):
        raise UsageError(f"malformed complex literal {text!r}")
    try:  # exact values too: specs and residuals convert them to floats
        re_f, im_f = read_fraction(re_txt, exact), read_fraction(im_txt, exact)
        z = complex(float(re_f), float(im_f))
    except OverflowError:
        raise UsageError(f"complex literal {text!r} is out of range") from None
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed complex literal {text!r}") from None
    if exact:
        return rational_complex(re_f, im_f)
    return z.real if z.imag == 0 else z


def _out_path(name: str) -> Path:
    """`name` inside the artifact directory (COSLAW_OUTDIR, default: cwd)."""
    outdir = Path(os.environ.get("COSLAW_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _fixture(name: str, window: int | None) -> Fixture:
    try:
        return get_fixture(name, window=window)
    except (KeyError, ValueError) as e:
        raise UsageError(e.args[0]) from None


def _sigma(fx: Fixture, name: str | None):
    try:
        return fx.sigma(name)
    except KeyError as e:
        raise UsageError(e.args[0]) from None


def _resolve_character(fx: Fixture, args):
    # the parametrized `exp` takes --lambda / --a --b, not a bare name
    if args.chi and not (args.chi == "exp" and fx.exp is not None):
        try:
            return fx.character(args.chi)
        except KeyError as e:
            raise UsageError(e.args[0]) from None
    if fx.name == "real-line":
        lam = parse_complex(args.lam or "1")
        return fx.character("exp", lam=lam)
    if fx.name == "heisenberg":
        a = parse_complex(args.a or "1")
        b = parse_complex(args.b or "0")
        return fx.character("exp", a=a, b=b)
    raise UsageError(f"--chi is required for fixture {fx.name}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    target = args.target
    if os.path.exists(target):  # False, not OSError, for a name too long for a path
        try:
            s, sigma = load_semigroup(target)
        except ParseError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        print(f"ok: order {s.order} semigroup" + (", with sigma" if sigma else ""))
        return 0
    fx = _fixture(target, window=args.window)
    report = validate(fx.carrier)
    if report:
        for entry in report[:10]:
            print("violation:", entry)
        return 1
    window = len(fx.carrier.elements)
    print(f"ok: fixture {fx.name} valid on {window} checked elements")
    return 0


def _cmd_automorphisms(args) -> int:
    fx = _fixture(args.fixture, window=args.window)
    for s in fx.sigmas:
        print(f"{s.name}: {' '.join(map(str, s.perm))}" if fx.carrier.is_finite else s.name)
    return 0


def _cmd_characters(args) -> int:
    fx = _fixture(args.fixture, window=args.window)
    if fx.carrier.is_finite:
        for c in fx.characters.values():
            vals = " ".join(json.dumps(scalar_to_json(c(x))) for x in fx.carrier.elements)
            flag = "  (zero)" if c.is_zero else ""
            print(f"{c.name}: {vals}{flag}")
    else:
        for name in fx.characters:
            print(name)
        if fx.exp is not None:
            print("exp (parametrized: --lambda / --a --b)")
    return 0


def _cmd_nullsets(args) -> int:
    fx = _fixture(args.fixture, window=args.window)
    chi = _resolve_character(fx, args)
    sigma = _sigma(fx, args.sigma)
    try:
        ns = null_sets(fx.carrier, sigma, chi)
    except ValueError as e:  # the zero character has no null sets
        raise UsageError(f"{chi.name}: {e}") from None
    fmt = lambda xs: "{" + ", ".join(map(str, sorted(xs))) + "}"  # noqa: E731
    print(f"I_chi   = {fmt(ns.i_chi)}")
    print(f"I_chi^2 = {fmt(ns.i_chi_sq)}")
    print(f"P_chi   = {fmt(ns.p_chi)}")
    print(f"certified: {ns.certified}")
    return 0


def _default_free(fx: Fixture, family: int):
    s = fx.carrier
    if family == 1:
        if s.is_finite:
            return ScalarFunction(s, values=[k + 1 for k in range(s.order)])
        table = {x: 1 for x in s.elements}
        return function_vanishing_on_products(s, table)
    outside = sorted(set(s.elements) - product_set(s, s.elements))
    if not outside:
        raise UsageError(
            f"families 2/3 need S \\ S^2 non-empty; not so on {fx.name} (pass --free-file)"
        )
    return function_vanishing_on_products(s, {x: 1 for x in outside})


def _cmd_construct(args) -> int:
    fx = _fixture(args.fixture, window=args.window)
    sigma = _sigma(fx, args.sigma)
    alpha = parse_complex(args.alpha, exact=args.exact)
    q = parse_complex(args.q, exact=args.exact) if args.q else None
    family = args.family
    chi = chi1 = chi2 = None
    h_spec = None
    if family in (4, 7, 8):
        chi = _resolve_character(fx, args)
    if family in (5, 6):
        if not (args.chi1 and args.chi2):
            raise UsageError(f"family {family} needs --chi1 and --chi2")
        if fx.exp is not None and "exp" in (args.chi1, args.chi2):
            raise UsageError(f"--chi1/--chi2 name characters; {fx.name}'s exp takes parameters (--chi exp)")
        try:
            chi1, chi2 = fx.character(args.chi1), fx.character(args.chi2)
        except KeyError as e:
            raise UsageError(e.args[0]) from None
    if family == 7:
        additive = fx.additive_rules.get(args.additive) if args.additive else None
        if args.additive and additive is None:
            raise UsageError(f"fixture {fx.name} has no additive rule {args.additive!r}")
        rho = parse_complex(args.rho_const, exact=args.exact) if args.rho_const else None
        encode = fx.h_specs.get((chi.name, args.additive))
        h_spec = HSpec(additive=additive, rho=rho, spec=encode(rho) if encode else None)
    free = None
    if family in (1, 2, 3):
        if args.free_file:
            free = load_function(fx, args.free_file)
        else:
            free = _default_free(fx, family)
    d = FamilyDescriptor(
        family=family, alpha=alpha, q=q, branch=args.branch,
        chi=chi, chi1=chi1, chi2=chi2, h_spec=h_spec,
    )
    predicates = fx.null_predicates.get(chi.name) if chi is not None else None
    try:
        pair = construct(fx.carrier, sigma, d, free_f=free, predicates=predicates)
    except (InvalidDescriptor, ConditionViolation) as e:
        print(f"construct failed: {e}", file=sys.stderr)
        return 1
    out = _out_path(args.out)
    try:
        save_pair(out, pair, fx.name, sigma.name, window=args.window)
    except ValueError as e:  # a rule-defined function with no spec to write
        print(f"construct failed: cannot write the pair: {e}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    fx, sigma, pair = load_pair(args.pair)
    alpha = parse_complex(args.alpha, exact=args.exact) if args.alpha else pair.alpha
    rep = residual(fx.carrier, sigma, alpha, pair.g, pair.f)
    print(
        json.dumps(
            {
                "max_residual": rep.max_residual,
                "worst_pair": [str(x) for x in rep.worst_pair],
                "pair_count": rep.pair_count,
                "mode": rep.mode,
            }
        )
    )
    return 0 if rep.ok(args.tol) else 1


def _cmd_solve(args) -> int:
    fx = _fixture(args.fixture, window=args.window)
    if not fx.carrier.is_finite:
        raise UsageError("solve needs a finite fixture")
    sigma = _sigma(fx, args.sigma)
    alpha = parse_complex(args.alpha)
    try:
        cfg = SolverConfig(restarts=args.restarts, seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e)) from None
    sols = find_solutions(fx.carrier, sigma, alpha, cfg)
    print(f"{len(sols)} solutions (alpha = {args.alpha}, sigma = {sigma.name})")
    flagged = sum(1 for e in sols.entries if e.rank_deficient)
    if flagged:
        print(f"{flagged} flagged non-isolated (rank-deficient Jacobian)")
    if args.out:
        out = _out_path(args.out)
        out.write_text(sols.to_json_lines() + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _cmd_classify(args) -> int:
    fx, sigma, pair = load_pair(args.pair)
    alpha = parse_complex(args.alpha, exact=args.exact) if args.alpha else pair.alpha
    try:
        result = classify(fx.carrier, sigma, alpha, pair.g, pair.f)
    except NotASolution as e:
        print(f"not a solution: {e}", file=sys.stderr)
        return 1
    except TypeError as e:
        raise UsageError(str(e)) from None
    print(json.dumps(result.as_json()))
    return 0 if result.classified else 1


def _cmd_suite(args) -> int:
    from .acceptance import run_all

    results = run_all()
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are one `usage error: ...` line, exit 2."""

    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(2)


def _join_literals(argv: list) -> list:
    """`--alpha -1/2` as `--alpha=-1/2`, and so for each option that takes a
    literal: argparse reads a value that starts with "-" as an option unless
    it is a plain negative number, so `-i`, `-1/2` or `-1e3` would not reach
    the option.  The parsers take no abbreviated names, so these are all."""
    literal = {"--alpha", "--q", "--lambda", "--a", "--b", "--rho-const"}
    args = list(argv)
    for k in range(len(args) - 1, 0, -1):
        if args[k - 1] in literal and args[k][:1] == "-" and args[k][:2] != "--":
            args[k - 1:k + 1] = [f"{args[k - 1]}={args[k]}"]
    return args


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="coslaw", allow_abbrev=False,
        description="Construct, verify, solve and classify solutions of "
        "g(x sigma(y)) = g(x)g(y) - f(x)f(y) + alpha f(x sigma(y)) on semigroups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, window=False, exact=False, **kw):
        """A subcommand; `window` and `exact` give it the flags it reads."""
        sp = sub.add_parser(name, allow_abbrev=False, **kw)
        sp.set_defaults(fn=fn)
        if window:
            sp.add_argument("--window", type=int, default=None, help="fixture window size")
        if exact:
            sp.add_argument("--exact", action="store_true", help="rational-pair arithmetic")
        return sp

    sp = add("validate", _cmd_validate, window=True, help="validate a semigroup file or fixture")
    sp.add_argument("target", help="path to a semigroup file, or a fixture name")

    sp = add("automorphisms", _cmd_automorphisms, window=True,
             help="list involutive automorphisms")
    sp.add_argument("fixture", choices=FIXTURE_NAMES)

    sp = add("characters", _cmd_characters, window=True, help="list multiplicative functions")
    sp.add_argument("fixture", choices=FIXTURE_NAMES)

    sp = add("nullsets", _cmd_nullsets, window=True, help="print I_chi, I_chi^2, P_chi")
    sp.add_argument("fixture", choices=FIXTURE_NAMES)
    sp.add_argument("--chi", default=None, help="character name (finite / naturals)")
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--lambda", dest="lam", default=None, help="real-line exp parameter")
    sp.add_argument("--a", default=None), sp.add_argument("--b", default=None)

    sp = add("construct", _cmd_construct, window=True, exact=True,
             help="build a family solution pair")
    sp.add_argument("--family", type=int, required=True, choices=range(1, 9))
    sp.add_argument("--fixture", required=True, choices=FIXTURE_NAMES)
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--q", default=None)
    sp.add_argument("--branch", type=int, default=1, choices=(1, -1))
    sp.add_argument("--chi", default=None)
    sp.add_argument("--chi1", default=None), sp.add_argument("--chi2", default=None)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--a", default=None), sp.add_argument("--b", default=None)
    sp.add_argument("--additive", default=None, help="named additive rule (family 7)")
    sp.add_argument("--rho-const", default=None, help="constant rho on P_chi (family 7)")
    sp.add_argument("--free-file", default=None, help="JSON function for families 1-3")
    sp.add_argument("--out", default="pair.json")

    sp = add("verify", _cmd_verify, exact=True, help="verify a pair file against the equation")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--tol", type=float, default=VERIFY_TOL)

    sp = add("solve", _cmd_solve, window=True, help="find all solutions numerically")
    sp.add_argument("fixture", choices=FIXTURE_NAMES)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=2000)
    sp.add_argument("--out", default=None)

    sp = add("classify", _cmd_classify, exact=True, help="classify a solution pair")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--alpha", default=None)

    add("suite", _cmd_suite, help="run the full acceptance battery")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_literals(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # the interpreter flushes stdout at exit: point it at the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (InvalidDescriptor, ConditionViolation) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OverflowError as e:  # a value beyond float range, such as e^1000
        print(f"arithmetic error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
