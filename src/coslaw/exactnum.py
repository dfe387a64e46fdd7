"""Exact scalar arithmetic for character-valued algebra.

Two exact number types supplement Python's float ``complex``:

* ``Cyc`` — elements of the cyclotomic field Q(zeta_n), stored as a
  polynomial in zeta_n = e^(2*pi*i/n) reduced modulo the n-th cyclotomic
  polynomial.  Rational complex numbers a+bi live in Q(zeta_4), roots of
  unity of any order are single monomials, and sums/products of character
  values stay exact.  Zero tests are exact, so "residual is exactly zero"
  is a decidable statement.
* ``ExpPoly`` — Laurent polynomials c_k * E^k in a transcendental base
  E = e with rational coefficients.  Values of exponential characters
  e^(a*x+b*y) with integer data are monomials, and the transcendence of e
  makes the coefficient-wise zero test exact.

Everything degrades gracefully: mixing an exact value with a float
``complex`` produces a float ``complex``.

``Cyc`` arithmetic divides no polynomials.  Each conductor n has one cached
table of x^k mod Phi_n for phi(n) <= k < n, with integer entries since
Phi_n is monic; a product, a Galois conjugate sigma_k (zeta_n -> zeta_n**k),
a lift or a sum across conductors folds its exponents mod n
(zeta_n**n = 1) and reduces them with that table, the only way a value is
reduced.  Phi_n itself is the integer product of the (x^d - 1)**mu(n/d),
complex conjugation is sigma_(-1), and an inverse is the product of the
other conjugates over the rational norm.  Sums on one conductor and
rational operands take fast paths that need no reduction, and
``complex(v)`` is computed once per value and cached.

``pack_scan`` is the fast path of exact pairwise scans (the equation's
residual and ``functions.law_failure``): it maps every int, Fraction and
ExpPoly value of one scan to a single Python int (Kronecker substitution:
scale by the common denominator, shift to non-negative exponents, evaluate
at B = 2**bits).  The window values are packed as they are; the linear
part of each defect is packed from the values of its bases, the functions
it is an exact linear combination of, and not from its own value.  B is
the least power of two above a bound on every coefficient of a scaled
defect, so a defect is zero exactly when its packed int is.
``packed_pairs_vanish`` then tests every pair's packed defect at once, in
int64 blocks of rows when the packed ints are narrow enough, else a row of
object ints per numpy step.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

Rat = Union[int, Fraction]

# ---------------------------------------------------------------------------
# the cyclotomic polynomials and their reduction tables
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    """n-th cyclotomic polynomial Phi_n as a coefficient tuple, low degree
    first, from Phi_n = prod_{d | n} (x^d - 1)^mu(n/d) in integers.
    Multiplying by x^d - 1 is a shift and a subtract; dividing by it is a
    running sum, exact because every factor is multiplied in first.  The
    cache would take 2.0 or True for the int they equal, so `Cyc` tests a
    conductor before it gets here."""
    factors = [(d, _mobius(n // d)) for d in range(1, n + 1) if n % d == 0]
    p = [1]
    for d, mu in sorted(factors, key=lambda f: -f[1]):
        if mu == 1:
            p = [a - b for a, b in zip([0] * d + p, p + [0] * d)]
        elif mu == -1:  # p = q * (x^d - 1), so q_k = q_(k-d) - p_k
            q: list[int] = []
            for k in range(len(p) - d):
                q.append((q[k - d] if k >= d else 0) - p[k])
            p = q
    return tuple(Fraction(c) for c in p)


def _phi_deg(n: int) -> int:
    return len(_cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_n for phi(n) <= k < n, one row per k, each row the
    non-zero (i, coefficient) pairs of the remainder.  Phi_n is monic with
    integer coefficients, so every entry is an int; lower powers are their
    own remainders."""
    d = _phi_deg(n)
    low = [-int(c) for c in _cyclotomic_poly(n)[:-1]]  # x^d = sum low[i] x^i
    rows = []
    cur = [0] * (d - 1) + [1]  # x^(d-1)
    for _ in range(d, n):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * t for c, t in zip(cur, low)]
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
    return tuple(rows)


def _reduce(p: list, n: int) -> tuple[Fraction, ...]:
    """Coefficients mod Phi_n of sum p[k] x^k, for rationals p (low degree
    first) with at most n entries: callers fold exponents mod n, as
    zeta_n**n = 1.  Each x^k with k >= phi(n) becomes its row of
    `_reduction_table`."""
    d = _phi_deg(n)
    out = p[:d] + [0] * (d - len(p))
    for ck, row in zip(p[d:], _reduction_table(n)):
        if ck:
            for i, t in row:
                out[i] += t * ck
    return tuple(x if type(x) is Fraction else Fraction(x) for x in out)


# ---------------------------------------------------------------------------
# cyclotomic rationals
# ---------------------------------------------------------------------------


class Cyc:
    """An element of Q(zeta_n), reduced mod the cyclotomic polynomial.

    The conductor n is per-value.  Representations are canonical within a
    fixed n (a tuple of phi(n) reduced Fractions), so ``is_zero`` and
    equality are exact.

    Arithmetic never divides polynomials: a product, or a sum across
    conductors, collects its terms at exponents mod m, the lcm conductor
    (zeta_m**m = 1), and reduces them once with m's integer table of
    x^k mod Phi_m (`_reduction_table`).  ``conjugate`` is the Galois map
    sigma_(-1) and ``inverse`` the product of sigma_k(v) over the units
    k != 1 mod n, scaled by 1/N(v) for the rational norm N(v); both
    re-index exponents and reduce with the same table.  Sums on one
    conductor add coefficient by coefficient, an int or Fraction operand
    adds to the constant term or scales the coefficients, and equality with
    a rational reads the coefficients; none of these reduce.
    ``complex(v)`` is computed on first use by the same sum as always and
    kept in a slot (a Cyc is immutable), so mixed exact/float arithmetic
    does not redo the ``cmath.exp`` sum.
    """

    __slots__ = ("n", "c", "_z")

    def __init__(self, n: int, coeffs) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"conductor must be an int >= 1, not {n!r}")
        self.n = n
        self.c = tuple(Fraction(x) for x in coeffs)
        self._z = None
        if len(self.c) != _phi_deg(n):
            raise ValueError(f"need {_phi_deg(n)} coefficients for conductor {n}")

    @staticmethod
    def _of(n: int, c: tuple[Fraction, ...]) -> "Cyc":
        """A Cyc from coefficients already reduced to Fractions for n."""
        v = object.__new__(Cyc)
        v.n, v.c, v._z = n, c, None
        return v

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(re: Rat, im: Rat = 0) -> "Cyc":
        re, im = Fraction(re), Fraction(im)
        if im == 0:
            return Cyc._of(1, (re,))
        return Cyc._of(4, (re, im))  # basis {1, i}

    @staticmethod
    def root_of_unity(turns: Fraction) -> "Cyc":
        """e^(2*pi*i*turns) for rational turns."""
        t = Fraction(turns) % 1
        n, k = t.denominator, t.numerator
        return Cyc._of(n, _reduce([0] * k + [1], n))

    @staticmethod
    def zero() -> "Cyc":
        return Cyc._of(1, (Fraction(0),))

    # -- coercion helpers ---------------------------------------------

    @staticmethod
    def _lift_of(v) -> "Cyc | None":
        if isinstance(v, Cyc):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyc.rational(v)
        return None

    def _lift(self, m: int) -> list[Fraction]:
        """Coefficients of self viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return list(self.c)
        acc = [0] * m
        self._spread(m, acc)
        return list(_reduce(acc, m))

    def _spread(self, m: int, acc: list) -> None:
        """Adds self's coefficients into acc at their exponents in Q(zeta_m)."""
        step = m // self.n
        for k, ck in enumerate(self.c):
            if ck:
                acc[k * step] += ck

    def _add_cyc(self, o: "Cyc") -> "Cyc":
        if o.n == self.n:
            return Cyc._of(self.n, tuple(a + b for a, b in zip(self.c, o.c)))
        m = math.lcm(self.n, o.n)
        acc = [0] * m
        self._spread(m, acc)
        o._spread(m, acc)
        return Cyc._of(m, _reduce(acc, m))

    def _mul_cyc(self, o: "Cyc") -> "Cyc":
        # Q(zeta_1) = Q(zeta_2) = Q: at conductors 1 and 2 a value is one
        # rational, and a product of two is that of their coefficients at the
        # larger conductor (the lcm), the tuple the general code would give
        if self.n <= 2 and o.n <= 2:
            return Cyc._of(max(self.n, o.n), (self.c[0] * o.c[0],))
        m = math.lcm(self.n, o.n)
        sa, sb = m // self.n, m // o.n
        acc = [0] * m
        for i, a in enumerate(self.c):
            if a:
                ia = i * sa
                for j, b in enumerate(o.c):
                    if b:
                        acc[(ia + j * sb) % m] += a * b
        return Cyc._of(m, _reduce(acc, m))

    def _scaled(self, r: Rat) -> "Cyc":
        return Cyc._of(self.n, tuple(x * r for x in self.c))

    def _shifted(self, r: Rat) -> "Cyc":
        """self + r for a rational r: only the constant term moves."""
        return Cyc._of(self.n, (self.c[0] + r, *self.c[1:]))

    # -- arithmetic ----------------------------------------------------
    # float, complex and ExpPoly operands give float complex results, from
    # complex(self) and complex(other) in that order.  They are tested
    # before int and Fraction: the type sets are disjoint, and an
    # isinstance test against Fraction takes the slow abstract-base-class
    # path for every other type

    def __add__(self, other):
        if isinstance(other, Cyc):
            return self._add_cyc(other)
        if isinstance(other, (float, complex, ExpPoly)):
            return complex(self) + complex(other)
        if isinstance(other, (int, Fraction)):
            return self._shifted(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._of(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        if isinstance(other, Cyc):
            if other.n == self.n:
                return Cyc._of(self.n, tuple(a - b for a, b in zip(self.c, other.c)))
            return self._add_cyc(-other)
        if isinstance(other, (float, complex, ExpPoly)):
            return complex(self) - complex(other)
        if isinstance(other, (int, Fraction)):
            return self._shifted(-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc._of(self.n, (other - self.c[0], *(-x for x in self.c[1:])))
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            return self._mul_cyc(other)
        if isinstance(other, (float, complex, ExpPoly)):
            return complex(self) * complex(other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """1/self = prod_(k != 1) sigma_k(self) / N(self), k over the units
        mod n: the norm N(self), the product over every unit, is a non-zero
        rational for self != 0, as Phi_n is irreducible over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if len(self.c) == 1:  # a rational: no conjugates to multiply
            return Cyc._of(self.n, (1 / self.c[0],))
        n = self.n
        rest = None
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                g = self._galois(k)
                rest = g if rest is None else rest._mul_cyc(g)
        norm = self._mul_cyc(rest).c
        assert not any(norm[1:])
        return rest._scaled(1 / norm[0])

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            return self._mul_cyc(other.inverse())
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("inverse of zero cyclotomic")
            return self._scaled(1 / Fraction(other))
        if isinstance(other, (float, complex)):
            return complex(self) / complex(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse()._scaled(other)
        if isinstance(other, (float, complex)):
            return complex(other) / complex(self)
        return NotImplemented

    def _galois(self, k: int) -> "Cyc":
        """sigma_k(self) for k prime to n, the automorphism zeta_n -> zeta_n**k:
        exponents re-indexed mod n, then reduced."""
        n = self.n
        out = [0] * n
        for i, ci in enumerate(self.c):
            out[i * k % n] += ci
        return Cyc._of(n, _reduce(out, n))

    def conjugate(self) -> "Cyc":
        return self._galois(-1)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc):
            if other.n == self.n:
                return self.c == other.c
            return (self - other).is_zero()
        if isinstance(other, (int, Fraction)):
            return self.c[0] == other and all(x == 0 for x in self.c[1:])
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    __hash__ = None  # representations across conductors are not canonical

    def __complex__(self) -> complex:
        z = self._z
        if z is None:
            z = 0j
            for k, ck in enumerate(self.c):
                if ck:
                    z += float(ck) * cmath.exp(2j * cmath.pi * k / self.n)
            self._z = z
        return z

    def __abs__(self) -> float:
        return abs(complex(self))

    def rational_parts(self) -> "tuple[Fraction, Fraction] | None":
        """(re, im) if the value lies in Q(i), else None."""
        if self.n in (1, 2):  # basis {1}: the value is the constant term
            return self.c[0], Fraction(0)
        if self.n == 4:
            return self.c[0], self.c[1]
        m = math.lcm(self.n, 4)
        step = m // 4  # zeta_m^(m/4) = i, and m/4 < phi(m) so this is basis-reduced
        re, im = Fraction(0), Fraction(0)
        for k, ck in enumerate(self._lift(m)):
            if ck == 0:
                continue
            if k == 0:
                re += ck
            elif k == step:
                im += ck
            else:
                return None
        return re, im

    def __repr__(self) -> str:
        return f"Cyc({self.n}, {self.c})"


# ---------------------------------------------------------------------------
# Laurent polynomials in the transcendental base e
# ---------------------------------------------------------------------------


class ExpPoly:
    """sum_k c_k * e^k with rational c_k and integer k; exact and real.

    Coefficients stay plain ints when possible (Fraction arithmetic is an
    order of magnitude slower and residual scans hit millions of terms).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None) -> None:
        t: dict[int, Rat] = {}
        for k, c in dict(terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if c:
                t[int(k)] = c
        self.terms = t

    @staticmethod
    def exp(k: int) -> "ExpPoly":
        return ExpPoly({k: 1})

    @staticmethod
    def const(c: Rat) -> "ExpPoly":
        return ExpPoly({0: c})

    @staticmethod
    def _coerce(v) -> "ExpPoly | None":
        if isinstance(v, ExpPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return ExpPoly.const(v)
        return None

    def _merge(self, other, op):
        """op(self, other) for op `operator.add` or `operator.sub`, term by
        term; a complex for a float or complex other."""
        o = ExpPoly._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return op(complex(self), other)
            return NotImplemented
        t = dict(self.terms)
        for k, c in o.terms.items():
            v = op(t.get(k, 0), c)
            if v:
                t[k] = v
            else:
                t.pop(k, None)
        out = ExpPoly.__new__(ExpPoly)
        out.terms = t
        return out

    def __add__(self, other):
        return self._merge(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        out = ExpPoly.__new__(ExpPoly)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self._merge(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if isinstance(other, (int, Fraction)):
                # the terms ExpPoly.const(other) * self gives, without building it
                out = ExpPoly.__new__(ExpPoly)
                out.terms = {k: c * other for k, c in self.terms.items()} if other else {}
                return out
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        t: dict[int, Rat] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                v = t.get(k, 0) + c1 * c2
                if v:
                    t[k] = v
                else:
                    t.pop(k, None)
        out = ExpPoly.__new__(ExpPoly)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExpPoly({k: Fraction(c) / other for k, c in self.terms.items()})
        if isinstance(other, ExpPoly) and len(other.terms) == 1:
            ((k0, c0),) = other.terms.items()
            return ExpPoly({k - k0: Fraction(c) / c0 for k, c in self.terms.items()})
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def conjugate(self) -> "ExpPoly":
        return self  # real-valued

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        o = ExpPoly._coerce(other)
        if o is not None:
            return self.terms == o.terms
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    __hash__ = None

    def __float__(self) -> float:
        return math.fsum(float(c) * math.exp(k) for k, c in self.terms.items())

    def __complex__(self) -> complex:
        return complex(float(self))

    def __abs__(self) -> float:
        return abs(float(self))

    def __repr__(self) -> str:
        return f"ExpPoly({self.terms})"


# ---------------------------------------------------------------------------
# generic scalar helpers (duck-typed over complex | Cyc | ExpPoly | rationals)
# ---------------------------------------------------------------------------

# Fraction last: isinstance against it goes through the slower ABC check
EXACT_TYPES = (ExpPoly, Cyc, int, Fraction)


def is_exact(v) -> bool:
    return isinstance(v, EXACT_TYPES)


def simplify_scalar(v):
    """Collapse integral Fractions to ints (int arithmetic is much faster)."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def scalar_is_zero(v) -> bool:
    if isinstance(v, (Cyc, ExpPoly)):
        return v.is_zero()
    return v == 0


# a decimal literal with an exponent, in the spellings `Fraction` takes:
# outer whitespace, a digit before or after the point, underscores only
# between digits
_DIGITS = r"\d+(?:_\d+)*"
_DECIMAL_EXP = re.compile(
    rf"\s*([+-]?)(?=\.?\d)((?:{_DIGITS})?)(?:\.((?:{_DIGITS})?))?[eE]([+-]?{_DIGITS})\s*\Z"
)


def read_fraction(txt: str, exact: bool = True):
    """Fraction(txt) for a decimal or fraction literal, read from its digits
    and exponent first where `Fraction` would build 10**k for nothing (that
    takes minutes for k in the hundreds of millions).

    OverflowError for a magnitude of 1e309 or more, beyond float range; 0
    for a zero literal; outside `exact`, a signed float zero below 1e-325
    (half the least subnormal float is 2.47e-324, so float() rounds it to
    zero).  Under `exact` a non-zero literal that small needs its 10**k.
    Text `Fraction` rejects raises its ValueError.
    """
    m = _DECIMAL_EXP.match(txt)
    if m is None:
        return Fraction(txt)
    sign, whole, frac, exp = (g.replace("_", "") for g in m.groups(""))
    try:  # an exponent too long for int() stays malformed, as Fraction finds it
        exp10 = int(exp)
    except ValueError:
        return Fraction(txt)
    digits = (whole + frac).lstrip("0")
    if not digits:
        return Fraction(0)
    # the literal is int(whole + frac) * 10**(exp - len(frac))
    lead = len(digits) - 1 + exp10 - len(frac)
    if lead >= 309:
        raise OverflowError(f"literal {txt!r} is out of range")
    if not exact and lead < -325:
        return -0.0 if sign == "-" else 0.0
    return Fraction(txt)


def rational_complex(re: Fraction, im: Fraction):
    """The exact scalar re + im*i: an int or a Fraction when im is 0, else
    `Cyc.rational(re, im)`."""
    if im == 0:
        return simplify_scalar(re)
    return Cyc.rational(re, im)


# the one tolerance for "the equation holds" and its derived identities on
# float values; exact values compare exactly
VERIFY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Kronecker packing: a residual scan's Laurent values as single ints
# ---------------------------------------------------------------------------

# the values `pack_scan` takes: Laurent polynomials in e, constants included
LAURENT_TYPES = (ExpPoly, int, Fraction)

# packing is dense in the exponent (e**(10**6) would be a megabit-wide int);
# a scan whose packed defects would be wider than this is not packed
_PACK_MAX_BITS = 1 << 14


def pack_scan(window, columns, coefs) -> "tuple[list[int], list[int]] | None":
    """The values of one pairwise scan, packed into Python ints.

    The scan tests defects  L - a*b + c*d  with a, b, c, d from `window`
    and L a linear combination sum_i coefs[i] * phi_i of bases phi_i, whose
    values at the scan's products are the `columns` (one equal-length
    sequence per base): for the residual, L = g(p) - alpha*f(p) at
    p = x*sigma(y) over the bases of g and alpha*f; for the sine law,
    L = h(p) at p = x*y, one base.  Each value is a Laurent polynomial
    v = sum c_k e**k with rational c_k (an int or Fraction is one of degree
    0), and each coefficient a rational.  With D the lcm of all their
    denominators, s the shift that makes every exponent non-negative and
    B = 2**bits, a window value packs to D * B**s * v(B), a base value to
    D * B**(2s) * v(B) and base i weighs w_i = D * coefs[i], all integers.
    Evaluation at B is a ring homomorphism, so the packed
    sum_i w_i * phi_i - a*b + c*d is D**2 * B**(2s) times the defect's
    value at B: an integer polynomial in B whose coefficients are at most

        C = |w|_1 * max |D*phi|_1 + 2 * max |D*a|_1 ** 2

    in magnitude (|.|_1 is the sum of the absolute coefficients, and a
    product's is at most the product of its factors').  B is the least
    power of two above C, and then the packed defect is 0 exactly when the
    Laurent defect is: a non-zero digit d_t at B**t outweighs all the lower
    ones, whose sum is at most (B - 1) * (1 + B + ... + B**(t-1)), which is
    B**t - 1.  (B > 2C would make the digits recoverable too; the zero test
    needs only B > C.)  Packing the bases instead of L's values takes one
    shifted int per monomial base value, and no Laurent arithmetic.  At
    degree 0 it takes no term list either: an int or Fraction v packs to
    the integer D*v, times B**s or B**(2s) only when some ExpPoly of the
    scan has a negative exponent (s > 0).

    Returns the packed window values and the packed L at each product, both
    in input order, or None when a value is not in LAURENT_TYPES or a packed
    defect would be wider than _PACK_MAX_BITS.
    """
    values = list(itertools.chain(window, *columns))
    if not all(map(isinstance, values, itertools.repeat(LAURENT_TYPES))):
        return None
    # an ExpPoly's terms; None for a constant (an int or Fraction)
    terms = [v.terms if isinstance(v, ExpPoly) else None for v in values]
    exps = [k for t in terms if t for k in t]
    s = max(0, -min(exps, default=0))
    hi = max(0, max(exps, default=0))
    d = math.lcm(*{v.denominator for v, t in zip(values, terms) if t is None},
                 *{c.denominator for t in terms if t for c in t.values()},
                 *(c.denominator for c in coefs))
    weights = [c.numerator * (d // c.denominator) for c in coefs]
    # D * v: an int for a constant; an ExpPoly as (exponent, D * coefficient)
    # pairs, at D = 1 its own terms, a Fraction n/1 among them (packed as int(c))
    out = [0 if t is not None else v.numerator * (d // v.denominator) for v, t in zip(values, terms)]
    if d == 1:
        terms = [t and t.items() for t in terms]
    else:
        terms = [t and [(k, c.numerator * (d // c.denominator)) for k, c in t.items()] for t in terms]
    norms = [abs(v) if t is None else sum([abs(c) for _, c in t]) for v, t in zip(out, terms)]
    nw = len(window)
    bits = int(sum(map(abs, weights)) * max(norms[nw:], default=0)
               + 2 * max(norms[:nw], default=0) ** 2).bit_length()
    if bits * (2 * (hi + s) + 1) > _PACK_MAX_BITS:
        return None
    if exps:  # else every value is a constant at s = 0, or a zero ExpPoly
        out = [v << bits * shift if t is None else sum([int(c) << bits * (k + shift) for k, c in t])
               for part, shift in ((slice(nw), s), (slice(nw, None), 2 * s))
               for v, t in zip(out[part], terms[part])]
    m = len(columns[0]) if columns else 0
    bases = [out[nw + i * m: nw + (i + 1) * m] for i in range(len(columns))]
    lin = [sum(map(operator.mul, weights, vs)) for vs in zip(*bases)]
    return out[:nw], lin


# cells per row block of this kernel's int64 test
ROW_BLOCK_CELLS = 1 << 12


def packed_pairs_vanish(index, lin, a, b, c, d) -> bool:
    """True when lin[index[i, j]] == a[i]*b[j] - c[i]*d[j] for every cell.

    `index` is a 2-D integer array (`semigroups.PairTable.index`); `lin`,
    `a`, `c` (one per row), `b` and `d` (one per column) are the Python ints
    of `pack_scan`, and the test is exact.  When every window int has at
    most 31 bits and every `lin` value at most 62, each product is below
    2**62 and each difference below 2**63 in magnitude, so the cells are
    tested in int64, ROW_BLOCK_CELLS at a time; otherwise the columns are
    object-dtype arrays of the ints, which cannot overflow, tested a row at
    a time.  Either way the transient arrays stay small.
    """
    small = all(_fits(v, 31) for v in (a, b, c, d)) and _fits(lin, 62)
    return _pairs_vanish(index, lin, a, b, c, d, np.int64 if small else object)


def _fits(values: list, bits: int) -> bool:
    """True when every int of `values` has at most `bits` bits."""
    return not values or (-(1 << bits) < min(values) and max(values) < 1 << bits)


def _pairs_vanish(index, lin, a, b, c, d, dtype) -> bool:
    """`packed_pairs_vanish` with its columns in `dtype` (np.int64 or object)."""
    lin, a, b, c, d = (np.array(v, dtype=dtype) for v in (lin, a, b, c, d))
    rows = 1 if dtype is object else max(1, ROW_BLOCK_CELLS // max(len(b), 1))
    return all(
        (lin[index[i:i + rows]] == a[i:i + rows, None] * b - c[i:i + rows, None] * d).all()
        for i in range(0, len(a), rows)
    )


def values_equal(a, b, tol: float = 0.0) -> bool:
    """Exact equality when both values are exact, |a-b| <= tol otherwise."""
    if is_exact(a) and is_exact(b):
        d = a - b
        if is_exact(d):
            return scalar_is_zero(d)
    return abs(complex(a) - complex(b)) <= tol


def exact_sqrt(v) -> "Cyc | None":
    """Exact principal square root of a rational complex value, if any.

    Convention: Re >= 0, and Im >= 0 on the slit Re == 0.
    """
    c = Cyc._lift_of(v)
    if c is None:
        return None
    parts = c.rational_parts()
    if parts is None:
        return None
    a, b = parts

    def frac_sqrt(x: Fraction) -> "Fraction | None":
        if x < 0:
            return None
        pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if pn * pn == x.numerator and pd * pd == x.denominator:
            return Fraction(pn, pd)
        return None

    hyp = frac_sqrt(a * a + b * b)
    if hyp is None:
        return None
    re = frac_sqrt((a + hyp) / 2)
    if re is None:
        return None
    if re == 0:
        im = frac_sqrt(-a) if b == 0 else None
        if im is None:
            return None
        return Cyc.rational(0, im)
    im = b / (2 * re)
    return Cyc.rational(re, im)
