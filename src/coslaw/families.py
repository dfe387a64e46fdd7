"""Constructors for the eight solution families of the target equation

    g(x sigma(y)) = g(x) g(y) - f(x) f(y) + alpha f(x sigma(y)).

Family summary (chi, chi1, chi2 non-zero multiplicative; "even" means
invariant under composition with sigma; w = sqrt(1 + q^2 - alpha^2)):

  1  alpha = +-1,  f free non-zero,  g = alpha f
  2  alpha != 1,   f = g != 0,       g = 0 on S^2
  3  alpha != -1,  f = -g != 0,      g = 0 on S^2
  4  f = (q+alpha) chi/2,            g = (1 +- w) chi/2          (chi even)
  5  f = alpha(chi1+chi2)/2 + q(chi1-chi2)/2,
     g = (chi1+chi2)/2 +- w (chi1-chi2)/2   (chi1 != chi2 even, q != +-alpha)
  6  alpha != 0,  f = alpha chi1,    g = chi2   (chi1 != chi2 even)
  7  f = alpha chi + h,  g = chi +- h,  h an even solution of the sine
     addition law h(xy) = h(x)chi(y) + h(y)chi(x); every such h is
     chi*A on S \\ I_chi, 0 on I_chi \\ P_chi and rho on P_chi, subject to
     the translate conditions (I) and (II) enforced by ``build_h``
  8  alpha != +-1,  f = (1+alpha)/2 chi - (1-alpha)/2 chi*,
     g = (1+alpha)/2 chi + (1-alpha)/2 chi*   (chi != chi*)

Constructed pairs have residual exactly zero when all inputs are exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .exactnum import VERIFY_TOL, exact_sqrt, is_exact, simplify_scalar, values_equal
from .functions import (
    MultiplicativeFunction,
    NullSets,
    ScalarFunction,
    complex_pair,
    is_additive,
    is_even,
    law_failure,
    linear_combination,
    nonzero_product,
    null_sets,
)
from .semigroups import InvolutiveAutomorphism, Semigroup


class InvalidDescriptor(ValueError):
    """A family descriptor violates its invariants."""


class ConditionViolation(ValueError):
    """The piecewise sine-law data violates condition (I) or (II) or parity."""


def _eq(a, b) -> bool:
    return values_equal(a, b, 1e-12)


HALF = Fraction(1, 2)
_HALF_COMPLEX = complex(HALF)


def _half(v):
    """v/2 as `v * HALF` gives it, int for an integral Fraction.  A float or
    complex v is scaled as `Fraction.__rmul__` would scale it (by 0.5, or
    by complex(HALF)), without that method's abstract-base-class checks."""
    if type(v) is complex:
        return v * _HALF_COMPLEX
    if type(v) is float:
        return v * 0.5
    return simplify_scalar(v * HALF)


def sqrt_branch(z, branch: int = 1):
    """branch * principal sqrt(z); Re >= 0, and Im >= 0 when Re == 0.

    Stays exact for rational complex z with a rational complex root.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if is_exact(z):
        w = exact_sqrt(z)
        if w is not None:
            parts = w.rational_parts()
            if parts is not None and parts[1] == 0:
                w = parts[0]  # plain rational mixes with every exact type
            return -w if branch == -1 else w
    w = cmath.sqrt(complex(z))
    if w.real == 0 and w.imag < 0:
        w = -w
    return branch * w


@dataclass(frozen=True)
class HSpec:
    """Data for the piecewise sine-law solution: additive part and rho values."""

    additive: Callable | None = None  # A on S \ I_chi
    rho: object = None  # callable | constant scalar
    spec: dict | None = None  # serializable rule for the assembled h, if any


@dataclass(frozen=True)
class FamilyDescriptor:
    family: int
    alpha: object
    q: object = None
    branch: int = 1
    chi: MultiplicativeFunction | None = None
    chi1: MultiplicativeFunction | None = None
    chi2: MultiplicativeFunction | None = None
    h: ScalarFunction | None = field(default=None, compare=False)
    h_spec: HSpec | None = field(default=None, compare=False)
    free: ScalarFunction | None = field(default=None, compare=False)

    def as_params(self) -> dict:
        """JSON-able parameter summary."""
        out: dict = {"family_tag": self.family, "alpha": complex_pair(self.alpha)}
        if self.q is not None:
            out["q"] = complex_pair(self.q)
        if self.family in (4, 5, 7):
            out["branch"] = self.branch
        for key in ("chi", "chi1", "chi2"):
            c = getattr(self, key)
            if c is not None:
                out[key] = c.name or "anonymous"
        return out


@dataclass(frozen=True)
class SolutionPair:
    """A concrete (g, f, alpha) triple, optionally with its family provenance."""

    g: ScalarFunction
    f: ScalarFunction
    alpha: object
    provenance: FamilyDescriptor | None = None


def function_vanishing_on_products(
    s: Semigroup, support: dict
) -> ScalarFunction:
    """Arbitrary values on the given support, zero elsewhere (and beyond the
    window); the support must avoid S^2 for families 2/3."""
    if s.is_finite:
        values = [support.get(x, 0) for x in s.elements]
        return ScalarFunction(s, values=values)
    table = dict(support)
    spec = {"rule": "support", "points": [[x, complex_pair(v)] for x, v in table.items()]}
    return ScalarFunction(s, rule=lambda x: table.get(x, 0), spec=spec)


# ---------------------------------------------------------------------------
# the piecewise sine-law solution of family 7
# ---------------------------------------------------------------------------


def piecewise_h(chi: Callable, additive: Callable | None, rho: Callable, in_i, in_p) -> Callable:
    """The rule x -> chi(x)*A(x) off I_chi (0 without A), rho(x) on P_chi
    and 0 between, with `in_i` and `in_p` the membership tests."""

    def h(x):
        if not in_i(x):
            return chi(x) * (additive(x) if additive is not None else 0)
        return rho(x) if in_p(x) else 0

    return h


def build_h(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    chi: MultiplicativeFunction,
    additive: Callable | None = None,
    rho=None,
    predicates=None,
) -> ScalarFunction:
    """Assemble h = chi*A on S \\ I_chi, 0 on I_chi \\ P_chi, rho on P_chi.

    Validates the parity requirements A o sigma = A and rho o sigma = rho,
    the translate condition (I) rho(up) = rho(p)chi(u) (and its right/two
    sided variants), condition (II) h(xy) = h(yx) = 0 for x in
    I_chi \\ P_chi and y outside I_chi, and finally that h satisfies the
    sine addition law on all window pairs.  Raises ConditionViolation
    otherwise.  Condition (I) reads the P_chi translates `null_sets` kept.

    `predicates` supplies exact membership rules for evaluation beyond the
    window of a procedural carrier (fixtures ship them where the null sets
    are non-trivial).  A procedural h that is identically 0 (no additive
    part, and no rho or a P_chi empty everywhere) has the const-zero spec.
    """
    ns = null_sets(s, sigma, chi)
    in_i, in_p = _membership(s, ns, predicates)
    const = 0 if rho is None else rho
    rho_fn = rho if callable(rho) else lambda x: const
    units = [u for u in s.elements if u not in ns.i_chi]

    if additive is not None:
        if not is_additive(s, units, additive):
            raise ConditionViolation("additive part fails A(xy) = A(x) + A(y)")
        for u in units:
            if not values_equal(additive(sigma(u)), additive(u), VERIFY_TOL):
                raise ConditionViolation(f"additive part is not sigma-symmetric at {u}")
    for p in ns.p_chi:
        if not values_equal(rho_fn(sigma(p)), rho_fn(p), VERIFY_TOL):
            raise ConditionViolation(f"rho is not sigma-symmetric at {p}")

    _check_condition_i(ns, chi, rho_fn, in_p)
    # memoised, as the checks below and the procedural result evaluate it
    # at the same points again
    zero = additive is None and (rho is None or in_p is _nowhere)
    h = ScalarFunction(s, rule=piecewise_h(chi, additive, rho_fn, in_i, in_p),
                       spec={"rule": "const", "value": [0.0, 0.0]} if zero else None)
    _check_condition_ii(s, ns, h, units)

    bad = _sine_law_failure(s, h, chi)
    if bad is not None:
        x, y, lhs, rhs = bad
        raise ConditionViolation(
            f"sine addition law fails at ({x}, {y}): {lhs!r} != {rhs!r}"
        )

    if s.is_finite:
        return ScalarFunction(s, values=[h(x) for x in s.elements])
    return h


def _sine_law_failure(s: Semigroup, h, chi) -> tuple | None:
    """First window pair (x, y), with both sides, where h(xy) = h(x)chi(y) +
    chi(x)h(y) fails; None when the sine addition law holds on the window.
    One `law_failure` scan with (a, b, c, d) = (h, chi, chi, h)."""
    elems = s.elements
    hw, cw = [h(x) for x in elems], [chi(x) for x in elems]
    bad = law_failure(s, elems, elems, h, hw, cw, cw, hw)
    return bad and (elems[bad[0]], elems[bad[1]], *bad[2:])


def _membership(s: Semigroup, ns: NullSets, predicates) -> tuple[Callable, Callable]:
    if s.is_finite:
        return (lambda x: x in ns.i_chi), (lambda x: x in ns.p_chi)
    if predicates is not None:
        return predicates.in_i, predicates.in_p
    if not ns.i_chi:
        # chi has no window zeros; treat I_chi as empty everywhere
        return _nowhere, _nowhere
    raise ValueError(
        "procedural carrier with non-trivial null sets needs membership predicates"
    )


def _nowhere(x) -> bool:
    return False


def _check_condition_i(ns, chi, rho_fn, in_p):
    """rho(upv) = rho(p)chi(u)chi(v) at every translate of p in P_chi that
    null_sets kept (u or v None on one side); raises on the first failure
    in p-major order: up and pv for every u, then upv."""
    for p, translates in ns.translates.items():
        rp = rho_fn(p)
        for u, v, x in translates:
            if not in_p(x):
                continue
            want = rp
            for w in (u, v):
                if w is not None:
                    want = want * chi(w)
            if not values_equal(rho_fn(x), want, VERIFY_TOL):
                name = ("u" if u is not None else "") + "p" + ("v" if v is not None else "")
                at = "*".join(str(w) for w in (u, p, v) if w is not None)
                raise ConditionViolation(f"condition (I) fails at {name} = {at}")


def _check_condition_ii(s, ns, h, units):
    """h(xy) = h(yx) = 0 for x in I_chi \\ P_chi and y a unit; raises on the
    first (x, y), x running over I_chi \\ P_chi in set order and y over the
    units, where either product is not zero.  Two `nonzero_product` scans
    test the xy and the yx order; only a failure walks the pairs to name
    that (x, y)."""
    xs, units = tuple(ns.i_chi - ns.p_chi), tuple(units)
    if nonzero_product(s, xs, units, h) is None and nonzero_product(s, units, xs, h) is None:
        return
    x, y = next((x, y) for x in xs for y in units
                if not (values_equal(h(s.product(x, y)), 0, VERIFY_TOL)
                        and values_equal(h(s.product(y, x)), 0, VERIFY_TOL)))
    raise ConditionViolation(f"condition (II) fails: h({x}*{y} side) != 0")


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def construct(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    d: FamilyDescriptor,
    free_f: ScalarFunction | None = None,
    predicates=None,
) -> SolutionPair:
    """Build the (g, f) pair a descriptor denotes, validating its invariants.

    `free_f`, when given, replaces the descriptor's `free` before anything
    else reads it, so the pair's provenance is the descriptor it was built
    from."""
    if free_f is not None:
        d = replace(d, free=free_f)
    if d.family not in range(1, 9):
        raise InvalidDescriptor(f"unknown family tag {d.family}")
    if d.free is not None and d.family not in (1, 2, 3):
        raise InvalidDescriptor(
            f"family {d.family} is fully determined; free functions belong to 1-3"
        )
    g, f = _BUILDERS[d.family](s, sigma, d, predicates)
    return SolutionPair(g=g, f=f, alpha=d.alpha, provenance=d)


def _require_nonzero_fn(fn: ScalarFunction | None, what: str) -> ScalarFunction:
    if fn is None:
        raise InvalidDescriptor(f"{what} requires a free function argument")
    if fn.is_zero(VERIFY_TOL):
        raise InvalidDescriptor(f"{what} must be non-zero")
    return fn


def _require_character(s: Semigroup, chi: MultiplicativeFunction, what: str):
    if chi is None or chi.is_zero:
        raise InvalidDescriptor(f"{what} requires a non-zero multiplicative function")
    if chi.fn.carrier is not s and chi.fn.carrier != s:
        raise InvalidDescriptor(f"{what} requires a multiplicative function on this carrier")


def _require_even(s: Semigroup, sigma, chi: MultiplicativeFunction, what: str):
    _require_character(s, chi, what)
    if not chi.is_even(sigma):
        raise InvalidDescriptor(f"{what} requires a sigma-even multiplicative function")


def _require_two_even(s: Semigroup, sigma, d: FamilyDescriptor, what: str):
    _require_even(s, sigma, d.chi1, what)
    _require_even(s, sigma, d.chi2, what)
    if d.chi1.same_as(d.chi2):
        raise InvalidDescriptor(f"{what} requires two different multiplicative functions")


def _s2_failure(s: Semigroup, g: ScalarFunction, tol: float = VERIFY_TOL) -> tuple | None:
    """The first window pair (x, y) with g(xy) != 0 beyond `tol`, products
    outside the window included; None when g vanishes on S^2, as families 2
    and 3 and the dependence lemma require.  One `nonzero_product` scan."""
    elems = s.elements
    bad = nonzero_product(s, elems, elems, g, tol)
    return bad and (elems[bad[0]], elems[bad[1]])


def _family1(s, sigma, d, predicates):
    if not (_eq(d.alpha, 1) or _eq(d.alpha, -1)):
        raise InvalidDescriptor("family 1 requires alpha = +-1")
    f = _require_nonzero_fn(d.free, "family 1")
    return f.scale(d.alpha), f


def _family23(s, sigma, d, predicates):
    """f = g (family 2, alpha != 1) or f = -g (family 3, alpha != -1)."""
    sign = 1 if d.family == 2 else -1
    if _eq(d.alpha, sign):
        raise InvalidDescriptor(f"family {d.family} requires alpha != {sign}")
    g = _require_nonzero_fn(d.free, f"family {d.family}")
    bad = _s2_failure(s, g)
    if bad is not None:
        raise InvalidDescriptor(f"function does not vanish on S^2 (violated at {bad[0]}*{bad[1]})")
    return g, g if sign == 1 else -g


def _family4(s, sigma, d, predicates):
    _require_even(s, sigma, d.chi, "family 4")
    if d.q is None:
        raise InvalidDescriptor("family 4 requires the constant q")
    chi = d.chi.fn
    w = sqrt_branch(1 + d.q * d.q - d.alpha * d.alpha, d.branch)
    f = chi.scale(_half(d.q + d.alpha))
    g = chi.scale(_half(1 + w))
    return g, f


def _family5(s, sigma, d, predicates):
    _require_two_even(s, sigma, d, "family 5")
    if d.q is None or _eq(d.q, d.alpha) or _eq(d.q, -d.alpha):
        raise InvalidDescriptor("family 5 requires a constant q outside {+-alpha}")
    w = sqrt_branch(1 + d.q * d.q - d.alpha * d.alpha, d.branch)
    c1, c2 = d.chi1.fn, d.chi2.fn
    f = linear_combination([(_half(d.alpha + d.q), c1), (_half(d.alpha - d.q), c2)])
    g = linear_combination([(_half(1 + w), c1), (_half(1 - w), c2)])
    return g, f


def _family6(s, sigma, d, predicates):
    if _eq(d.alpha, 0):
        raise InvalidDescriptor("family 6 requires alpha != 0")
    _require_two_even(s, sigma, d, "family 6")
    return d.chi2.fn, d.chi1.fn.scale(d.alpha)


def _family7(s, sigma, d, predicates):
    _require_even(s, sigma, d.chi, "family 7")
    if d.h is not None:
        h = d.h
        if not is_even(h, sigma):
            raise InvalidDescriptor("family 7 requires a sigma-even h")
        bad = _sine_law_failure(s, h, d.chi)
        if bad is not None:
            raise InvalidDescriptor(f"h fails the sine addition law at ({bad[0]}, {bad[1]})")
    else:
        spec = d.h_spec or HSpec()
        h = build_h(s, sigma, d.chi, additive=spec.additive, rho=spec.rho, predicates=predicates)
        if spec.spec is not None:
            h.spec = spec.spec
    chi = d.chi.fn
    f = chi.scale(d.alpha) + h
    g = chi + h.scale(d.branch)
    return g, f


def _family8(s, sigma, d, predicates):
    if _eq(d.alpha, 1) or _eq(d.alpha, -1):
        raise InvalidDescriptor("family 8 requires alpha != +-1")
    _require_character(s, d.chi, "family 8")
    chi_star = d.chi.star(sigma)
    if d.chi.same_as(chi_star):
        raise InvalidDescriptor("family 8 requires chi != chi o sigma")
    cp = _half(1 + d.alpha)
    cm = _half(1 - d.alpha)
    f = linear_combination([(cp, d.chi.fn), (-cm, chi_star.fn)])
    g = linear_combination([(cp, d.chi.fn), (cm, chi_star.fn)])
    return g, f


_BUILDERS = {
    1: _family1, 2: _family23, 3: _family23, 4: _family4,
    5: _family5, 6: _family6, 7: _family7, 8: _family8,
}
