"""Built-in carriers: small finite semigroups and rule-defined structures.

Finite fixtures: c2, c3 (cyclic groups), leftzero2 (xy = x), null3 (all
products equal an absorbing element z) and bool-mult ({0,1} under
multiplication).

Rule-defined fixtures:

* real-line — (R, +) sampled on a uniform grid over [-pi, pi]; reflection
  x -> -x; characters x -> e^(i*lambda*x).
* heisenberg — upper unitriangular 3x3 integer matrices as coordinate
  triples (x, y, z) with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y');
  reflection (x,y,z) -> (-x,-y,z); characters X -> e^(a*x+b*y), evaluated
  exactly as Laurent monomials in e when a, b are integral.
* naturals-from-2 — (N \\ {1}, *) on the window [2, upper]; the parity
  character (1 on odds, 0 on evens) has I_chi = evens, P_chi = 2N \\ 4N,
  and the 5-adic valuation is additive on the odd sub-carrier.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from math import pi
from typing import Callable

from .exactnum import ExpPoly
from .families import piecewise_h
from .functions import (
    MultiplicativeFunction,
    ScalarFunction,
    complex_pair,
    enumerate_multiplicative,
)
from .semigroups import (
    FiniteSemigroup,
    InvolutiveAutomorphism,
    ProceduralSemigroup,
    Semigroup,
    enumerate_involutive_automorphisms,
    identity_automorphism,
)

FINITE_TABLES: dict[str, tuple[tuple[int, ...], ...]] = {
    "c2": ((0, 1), (1, 0)),
    "c3": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    "leftzero2": ((0, 0), (1, 1)),
    "null3": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "bool-mult": ((0, 0), (0, 1)),
}

FIXTURE_NAMES = tuple(FINITE_TABLES) + ("real-line", "heisenberg", "naturals-from-2")

_SIGMA_ALIASES = {
    ("c3", (0, 2, 1)): "inv",
    ("leftzero2", (1, 0)): "swap",
    ("null3", (0, 2, 1)): "swap",
}


@dataclass(frozen=True)
class NullPredicates:
    """Exact membership rules for I_chi and P_chi beyond the window."""

    in_i: Callable = field(compare=False)
    in_p: Callable = field(compare=False)


@dataclass(frozen=True)
class Fixture:
    """A named carrier with its involutive reflections and named functions.

    `rules` decodes the fixture's own named function rules from their JSON
    specs (the generic rules live in `serialize`); `h_specs` maps a
    (character, additive rule or None) name pair to the spec encoder of the
    family-7 h that `build_h` makes from them with a constant rho; `exp`
    builds the parametrized exponential characters.
    """

    name: str
    carrier: Semigroup
    sigmas: tuple[InvolutiveAutomorphism, ...]
    characters: dict[str, MultiplicativeFunction] = field(default_factory=dict)
    null_predicates: dict[str, NullPredicates] = field(default_factory=dict)
    additive_rules: dict[str, Callable] = field(default_factory=dict)
    rules: dict[str, Callable[[dict], ScalarFunction]] = field(default_factory=dict)
    h_specs: dict[tuple[str, str | None], Callable[[object], dict]] = field(default_factory=dict)
    exp: Callable[..., MultiplicativeFunction] | None = None

    def sigma(self, name: str | None = None) -> InvolutiveAutomorphism:
        if name is None:
            return self.sigmas[0]
        for s in self.sigmas:
            if s.name == name:
                return s
        raise KeyError(f"fixture {self.name} has no sigma named {name!r}")

    def character(self, name: str, **params) -> MultiplicativeFunction:
        if name in self.characters:
            return self.characters[name]
        if name == "exp" and self.exp is not None:
            return self.exp(**params)
        raise KeyError(f"fixture {self.name} has no character named {name!r}")


def _finite_fixture(name: str) -> Fixture:
    s = FiniteSemigroup(cayley=FINITE_TABLES[name])
    sigmas = []
    for a in enumerate_involutive_automorphisms(s):
        alias = _SIGMA_ALIASES.get((name, a.perm))
        sigmas.append(InvolutiveAutomorphism(alias, perm=a.perm) if alias else a)
    chars = {c.name: c for c in enumerate_multiplicative(s)}
    return Fixture(name=name, carrier=s, sigmas=tuple(sigmas), characters=chars)


# ---------------------------------------------------------------------------
# real line
# ---------------------------------------------------------------------------


def _real_line(points: int) -> Fixture:
    grid = tuple(-pi + 2 * pi * k / (points - 1) for k in range(points))
    carrier = ProceduralSemigroup(
        name="real-line",
        window=grid,
        compose_rule=lambda x, y: x + y,
        contains_rule=lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
        eq_rule=lambda a, b: abs(a - b) <= 1e-12,  # float addition is inexact
    )
    sig_neg = InvolutiveAutomorphism("neg", rule=lambda x: -x)
    sig_id = identity_automorphism(carrier)
    exp = partial(_real_line_exp, carrier)
    return Fixture(
        name="real-line",
        carrier=carrier,
        sigmas=(sig_neg, sig_id),
        rules={"exp": lambda spec: exp(lam=complex(*spec["lambda"])).fn},
        exp=exp,
    )


def _exp(z: complex) -> complex:
    """cmath.exp(z); OverflowError, not ValueError, at an infinite part of z."""
    if cmath.isinf(z):
        raise OverflowError(f"exp exponent {z} is infinite")
    return cmath.exp(z)


def _real_line_exp(carrier, lam) -> MultiplicativeFunction:
    """x -> e^(i*lambda*x)."""
    lam = complex(lam)
    rule = lambda x: _exp(1j * lam * x)  # noqa: E731
    spec = {"rule": "exp", "lambda": complex_pair(lam)}
    return MultiplicativeFunction(fn=ScalarFunction(carrier, rule=rule, spec=spec), name="exp")


# ---------------------------------------------------------------------------
# Heisenberg coordinate triples
# ---------------------------------------------------------------------------


def _heis_compose(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def _heis_contains(x) -> bool:
    return (
        isinstance(x, tuple)
        and len(x) == 3
        and all(
            (type(c) is int or isinstance(c, (int, Fraction))) and not isinstance(c, bool)
            for c in x
        )
    )


def _heisenberg(bound: int) -> Fixture:
    window = tuple(sorted(product(range(-bound, bound + 1), repeat=3)))
    carrier = ProceduralSemigroup(
        name="heisenberg",
        window=window,
        compose_rule=_heis_compose,
        contains_rule=_heis_contains,
    )
    sig_flip = InvolutiveAutomorphism("flip", rule=lambda t: (-t[0], -t[1], t[2]))
    sig_id = identity_automorphism(carrier)
    exp = partial(_heisenberg_exp, carrier)
    return Fixture(
        name="heisenberg",
        carrier=carrier,
        sigmas=(sig_flip, sig_id),
        rules={"exp": lambda spec: exp(a=complex(*spec["a"]), b=complex(*spec["b"])).fn},
        exp=exp,
    )


def _integral(z) -> int | None:
    """z as an int when it is an int, an integral float or a complex with
    integral real part and imaginary part 0; otherwise None."""
    if isinstance(z, complex) and z.imag == 0:
        z = z.real
    if isinstance(z, float) and z.is_integer():
        return int(z)
    return z if isinstance(z, int) else None


def _heisenberg_exp(carrier, a, b) -> MultiplicativeFunction:
    """X -> e^(a*x+b*y); exact Laurent monomials in e when a and b are both
    integral (see `_integral`), complex floats otherwise."""
    ints = _integral(a), _integral(b)
    if None not in ints:
        a, b = ints
        rule = lambda t: ExpPoly.exp(a * t[0] + b * t[1])  # noqa: E731
    else:
        a, b = complex(a), complex(b)
        rule = lambda t: _exp(a * t[0] + b * t[1])  # noqa: E731
    spec = {"rule": "exp", "a": complex_pair(a), "b": complex_pair(b)}
    return MultiplicativeFunction(fn=ScalarFunction(carrier, rule=rule, spec=spec), name="exp")


# ---------------------------------------------------------------------------
# naturals without 1 under multiplication
# ---------------------------------------------------------------------------


def _five_adic(x: int) -> int:
    k = 0
    while x % 5 == 0:
        x //= 5
        k += 1
    return k


def _parity(x: int) -> int:
    return x % 2


def _naturals(upper: int) -> Fixture:
    window = tuple(range(2, upper + 1))
    carrier = ProceduralSemigroup(
        name="naturals-from-2",
        window=window,
        compose_rule=lambda x, y: x * y,
        contains_rule=lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= 2,
        # factors are at least 2, so a product exceeds each of its factors
        escapes=lambda x: x > upper,
    )
    sig_id = identity_automorphism(carrier)
    parity = MultiplicativeFunction(
        fn=ScalarFunction(carrier, rule=_parity, spec={"rule": "parity"}),
        name="parity",
    )
    one = MultiplicativeFunction(
        fn=ScalarFunction(carrier, rule=lambda x: 1, spec={"rule": "one"}),
        name="one",
    )
    preds = NullPredicates(in_i=lambda x: x % 2 == 0, in_p=lambda x: x % 4 == 2)
    return Fixture(
        name="naturals-from-2",
        carrier=carrier,
        sigmas=(sig_id,),
        characters={"parity": parity, "one": one},
        null_predicates={"parity": preds},
        additive_rules={"five-adic": _five_adic},
        rules={
            "parity": lambda spec: parity.fn,
            "one": lambda spec: one.fn,
            "five-adic": lambda spec: ScalarFunction(carrier, rule=_five_adic, spec=spec),
            "h-piecewise": lambda spec: _h_piecewise(carrier, preds, spec),
        },
        # with chi = one, I_chi is empty and h is the five-adic valuation itself
        h_specs={
            ("parity", "five-adic"): _h_piecewise_spec,
            ("parity", None): lambda rho: {**_h_piecewise_spec(rho), "additive": None},
            ("one", "five-adic"): lambda rho: {"rule": "five-adic"},
        },
    )


def _h_piecewise_spec(rho) -> dict:
    """Spec of build_h(parity, five-adic, constant rho); with no additive
    part, the spec also has "additive": null."""
    return {"rule": "h-piecewise", "c": complex_pair(rho or 0)}


def _h_piecewise(carrier, preds: NullPredicates, spec: dict) -> ScalarFunction:
    """`piecewise_h` with the parity rule as chi, the five-adic valuation as
    A (none when "additive" is null) and rho = c."""
    c = complex(*spec["c"])
    if spec.get("additive") is not None:
        raise ValueError('h-piecewise "additive" must be null when present')
    additive = _five_adic if "additive" not in spec else None
    rule = piecewise_h(_parity, additive, lambda x: c, preds.in_i, preds.in_p)
    return ScalarFunction(carrier, rule=rule, spec=spec)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# procedural fixture -> (builder, default window, smallest window that
# still gives a non-empty, well-defined sample, element count of a window)
_PROCEDURAL = {
    "real-line": (_real_line, 64, 2, lambda points: points),
    "heisenberg": (_heisenberg, 3, 1, lambda bound: (2 * bound + 1) ** 3),
    "naturals-from-2": (_naturals, 65, 2, lambda upper: upper - 1),
}

# largest window, as an element count: every window scan is quadratic or
# cubic in it, and the window is built and held in memory
MAX_WINDOW_ELEMENTS = 4096


def get_fixture(name: str, window: int | None = None) -> Fixture:
    """Resolve a fixture name; `window` is points (real-line), coordinate
    bound (heisenberg) or upper end (naturals-from-2), and is ignored by the
    finite fixtures.  A window that is not an int, is below the fixture's
    minimum (1 on finite ones) or has more than MAX_WINDOW_ELEMENTS elements
    raises ValueError before any element is built."""
    if name not in FINITE_TABLES and name not in _PROCEDURAL:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    build, default, least, size = _PROCEDURAL.get(name, (None, None, 1, None))
    if window is not None and type(window) is not int:  # a bool too
        raise ValueError(f"{name} window must be an integer, got {window!r}")
    if window is not None and window < least:
        raise ValueError(f"{name} window must be at least {least}, got {window}")
    if build is None:
        return _finite_fixture(name)
    window = default if window is None else window
    if size(window) > MAX_WINDOW_ELEMENTS:
        raise ValueError(f"{name} window {window} has more than {MAX_WINDOW_ELEMENTS} elements")
    return build(window)
