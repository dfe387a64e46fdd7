"""Flat-file formats: semigroup tables and function/pair JSON (the solution
JSONL is written by `solver.SolutionSet.to_json_lines`).

Semigroup text format (UTF-8, ``#`` starts a comment):

    order n
    <n rows of n space-separated element indices>
    sigma p0 p1 ... p(n-1)        # optional involutive automorphism

Scalars.  A scalar is written as ``[re, im]``.  `scalar_to_json` writes
exact rationals as fraction strings (``["3/4", "0"]``) so they survive a
round trip, and every other value as two floats.  Scalars inside rule
specs are always two floats (`complex_pair`), so they never decode as
exact values.

Functions.  A function on a finite fixture is a dense list with one
scalar per element.  A function on a rule-defined fixture is a rule
spec, a JSON object whose ``"rule"`` names how to rebuild it.  The
generic rules work on every fixture and nest, up to MAX_SPEC_DEPTH
levels in all (a rule with no nested spec is one level):

    const    {"value": z}                         the constant z
    combo    {"terms": [{"coef": z, "fn": spec}, ...]}   sum of coef * fn
    star     {"sigma": name, "fn": spec}          fn o sigma
    support  {"points": [[x, z], ...]}            z at each listed x, 0 elsewhere
                                                  (each x a carrier element,
                                                  in the window or not; a
                                                  tuple is written as a list)

The named rules belong to one fixture each and are decoded by that
fixture's rule table (`Fixture.rules`):

    real-line        exp          {"lambda": z}          x -> e^(i*lambda*x)
    heisenberg       exp          {"a": z, "b": z}       X -> e^(a*x+b*y)
    naturals-from-2  parity, one  {}                     the named characters
                     five-adic    {}                     the 5-adic valuation
                     h-piecewise  {"c": z}               family-7 h with rho = c
                                  {"c": z, "additive": null}   the same
                                                         without the five-adic
                                                         part (0 off I_chi)

Because rule specs carry floats, a procedural pair reloads in float mode
even when it was built from exact inputs.

A spec nested deeper than MAX_SPEC_DEPTH, or a file whose JSON nests too
deeply to be read, is a ParseError, and such a spec is not written:
evaluating a deep chain would exhaust Python's recursion limit.  Every spec the package writes has at most 3
levels; the deepest `star` chain that still verifies from the command line
at the default recursion limit of 1000 (CPython 3.11) has 330 (329 stars
over a const).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import Cyc, is_exact, rational_complex, read_fraction
from .families import SolutionPair, function_vanishing_on_products
from .fixtures import Fixture, get_fixture
from .functions import ScalarFunction, complex_pair, linear_combination, star
from .semigroups import (
    FiniteSemigroup,
    InvolutiveAutomorphism,
    validate,
    validate_automorphism,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# what malformed JSON content raises while it is decoded: ZeroDivisionError
# for a "1/0" fraction string, OverflowError for an integer beyond float range,
# IndexError for a support point out of a finite carrier's range
_DECODE_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError, IndexError)

MAX_SPEC_DEPTH = 100


def _reason(e: Exception) -> str:
    return e.args[0] if e.args else repr(e)


# ---------------------------------------------------------------------------
# semigroup files
# ---------------------------------------------------------------------------


def load_semigroup(path) -> tuple[FiniteSemigroup, InvolutiveAutomorphism | None]:
    """Parse and validate a semigroup file; errors carry line numbers and
    witness triples/pairs."""
    rows: list[tuple[int, ...]] = []
    order: int | None = None
    sigma_perm: tuple[int, ...] | None = None
    sigma_line = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:  # unreadable file, or not UTF-8
        raise ParseError(f"semigroup file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if parts[0] == "order":
            if order is not None:
                raise ParseError("duplicate order line", lineno)
            try:
                order = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError("order must be 'order n'", lineno) from None
            if order <= 0:
                raise ParseError("order must be positive", lineno)
        elif parts[0] == "sigma":
            try:
                sigma_perm = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise ParseError("sigma entries must be integers", lineno) from None
            sigma_line = lineno
        else:
            if order is None:
                raise ParseError("expected 'order n' before table rows", lineno)
            try:
                row = tuple(int(p) for p in parts)
            except ValueError:
                raise ParseError("table entries must be integers", lineno) from None
            if len(row) != order:
                raise ParseError(f"expected {order} entries, got {len(row)}", lineno)
            if any(not 0 <= v < order for v in row):
                raise ParseError("table entry out of range", lineno)
            rows.append(row)
    if order is None:
        raise ParseError("missing 'order n' line")
    if len(rows) != order:
        raise ParseError(f"expected {order} table rows, got {len(rows)}")
    s = FiniteSemigroup(cayley=tuple(rows))
    report = validate(s)
    if report:
        kind, *witness = report[0]
        raise ParseError(f"{kind} violation at {tuple(witness)}")
    sigma = None
    if sigma_perm is not None:
        if sorted(sigma_perm) != list(range(order)):
            raise ParseError("sigma is not a permutation", sigma_line)
        sigma = InvolutiveAutomorphism("sigma", perm=sigma_perm)
        bad = validate_automorphism(s, sigma)
        if bad:
            kind, *witness = bad[0]
            raise ParseError(f"sigma fails {kind} at {tuple(witness)}", sigma_line)
    return s, sigma


def save_semigroup(path, s: FiniteSemigroup, sigma: InvolutiveAutomorphism | None = None):
    lines = [f"order {s.order}"]
    lines += [" ".join(map(str, row)) for row in s.cayley]
    if sigma is not None and sigma.perm is not None:
        lines.append("sigma " + " ".join(map(str, sigma.perm)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scalars and functions
# ---------------------------------------------------------------------------


def scalar_to_json(v):
    """[re, im]; exact rationals as fraction strings, floats as numbers."""
    if is_exact(v):
        if isinstance(v, (int, Fraction)):
            parts = (Fraction(v), Fraction(0))
        elif isinstance(v, Cyc):
            parts = v.rational_parts()
        else:
            parts = None  # no finite rational-complex form (e.g. ExpPoly)
        if parts is not None:
            return [str(parts[0]), str(parts[1])]
    return complex_pair(v)


def scalar_from_json(pair):
    re, im = pair
    if isinstance(re, str) or isinstance(im, str):
        return rational_complex(read_fraction(str(re)), read_fraction(str(im)))
    return complex(re, im) if im else float(re)


def function_to_json(f: ScalarFunction):
    """A dense list or a rule spec; ValueError when there is no spec, or
    one that `function_from_json` would refuse as nested too deeply."""
    if f.values is not None:
        return [scalar_to_json(v) for v in f.values]
    if f.spec is None:
        raise ValueError("rule-defined function without a serializable spec")
    if _deeper_than(f.spec, MAX_SPEC_DEPTH):
        raise ValueError(f"function spec nested more than {MAX_SPEC_DEPTH} levels")
    return f.spec


def _deeper_than(spec: dict, levels: int) -> bool:
    """True when the spec has more than `levels` levels; reads no deeper."""
    if levels == 0:
        return True
    inner = [spec["fn"]] if "fn" in spec else [t["fn"] for t in spec.get("terms", ())]
    return any(_deeper_than(fn, levels - 1) for fn in inner)


def function_from_json(fx: Fixture, data) -> ScalarFunction:
    """Rebuild a function from a dense list or a rule spec (module docstring)."""
    return _function_from_json(fx, data, MAX_SPEC_DEPTH)


def _function_from_json(fx: Fixture, data, levels: int) -> ScalarFunction:
    """`function_from_json` of a spec that may have `levels` more levels."""
    if levels == 0:
        raise ParseError(f"function spec nested more than {MAX_SPEC_DEPTH} levels")
    if isinstance(data, list):
        if fx.carrier.is_finite:
            return ScalarFunction(fx.carrier, values=[scalar_from_json(p) for p in data])
        raise ParseError("dense values are only valid for finite fixtures")
    rule = data.get("rule") if isinstance(data, dict) else None
    if rule == "const":
        c = complex(*data["value"])
        return ScalarFunction(fx.carrier, rule=lambda x: c, spec=data)
    if rule == "combo":
        out = linear_combination([
            (complex(*t["coef"]), _function_from_json(fx, t["fn"], levels - 1)) for t in data["terms"]
        ])
        out.spec = data
        return out
    if rule == "star":
        return star(_function_from_json(fx, data["fn"], levels - 1), fx.sigma(data["sigma"]))
    if rule == "support":
        table = {_element_from_json(x): scalar_from_json(v) for x, v in data["points"]}
        fx.carrier.checked(table)
        return function_vanishing_on_products(fx.carrier, table)
    if rule not in fx.rules:
        raise ParseError(f"unknown function rule {rule!r} for fixture {fx.name}")
    return fx.rules[rule](data)


def _element_from_json(x):
    return tuple(x) if isinstance(x, list) else x


# ---------------------------------------------------------------------------
# solution pairs
# ---------------------------------------------------------------------------


def pair_to_json(
    pair: SolutionPair, fixture_name: str, sigma_name: str, window: int | None = None
) -> dict:
    out = {
        "fixture": fixture_name,
        "sigma": sigma_name,
        "alpha": scalar_to_json(pair.alpha),
        "g": function_to_json(pair.g),
        "f": function_to_json(pair.f),
    }
    if window is not None:
        out["window"] = window
    if pair.provenance is not None:
        out["provenance"] = pair.provenance.as_params()
    return out


def pair_from_json(data: dict):
    """-> (fixture, sigma, SolutionPair); malformed data raises ParseError."""
    try:
        missing = [k for k in ("fixture", "sigma", "alpha", "g", "f") if k not in data]
        if missing:
            raise ParseError(f"missing {', '.join(missing)}")
        fx = get_fixture(data["fixture"], window=data.get("window"))
        sigma = fx.sigma(data["sigma"])
        alpha = scalar_from_json(data["alpha"])
        g = function_from_json(fx, data["g"])
        f = function_from_json(fx, data["f"])
    except _DECODE_ERRORS as e:
        raise ParseError(f"pair file: {_reason(e)}") from None
    return fx, sigma, SolutionPair(g=g, f=f, alpha=alpha)


def save_pair(path, pair: SolutionPair, fixture_name: str, sigma_name: str, window=None):
    """Write the pair as JSON; a function without a spec, or with one
    nested more than MAX_SPEC_DEPTH levels, raises ValueError before the
    file is opened, so no partial file is left behind."""
    data = pair_to_json(pair, fixture_name, sigma_name, window)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_pair(path):
    return pair_from_json(_read_json(path, "pair file"))


def load_function(fx: Fixture, path) -> ScalarFunction:
    """A function file (dense list or rule spec) on fixture `fx`."""
    data = _read_json(path, "function file")
    try:
        return function_from_json(fx, data)
    except _DECODE_ERRORS as e:
        raise ParseError(f"function file {path}: {_reason(e)}") from None


def _read_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not JSON, too deep
        raise ParseError(f"{what} {path}: {e}") from None
