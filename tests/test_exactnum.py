"""Exact scalar arithmetic: cyclotomic rationals and Laurent polynomials in e."""

import cmath
import itertools
import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coslaw import exactnum
from coslaw.exactnum import (
    Cyc,
    ExpPoly,
    _cyclotomic_poly,
    exact_sqrt,
    pack_scan,
    packed_pairs_vanish,
    rational_complex,
    values_equal,
)

F = Fraction


def test_cyclotomic_polynomials():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_3 = x^2 + x + 1, Phi_4 = x^2 + 1
    assert _cyclotomic_poly(1) == (F(-1), F(1))
    assert _cyclotomic_poly(2) == (F(1), F(1))
    assert _cyclotomic_poly(3) == (F(1), F(1), F(1))
    assert _cyclotomic_poly(4) == (F(1), F(0), F(1))
    assert _cyclotomic_poly(6) == (F(1), F(-1), F(1))


@pytest.mark.parametrize("n", [0, -4, 2.0, True, "3", None])
def test_cyclotomic_poly_rejects_what_is_not_a_conductor(n):
    # Cyc tests its conductor before the cached Phi_n is read: 2.0 and True
    # equal cached ints
    _cyclotomic_poly(2), _cyclotomic_poly(1)
    with pytest.raises(ValueError, match="conductor must be an int >= 1"):
        Cyc(n, [1])


def test_third_roots_sum_to_zero():
    w = Cyc.root_of_unity(F(1, 3))
    assert (1 + w + w * w).is_zero()
    assert (w * w * w) == 1
    assert w.conjugate() == w * w


def test_cross_conductor_equality():
    z6 = Cyc.root_of_unity(F(1, 6))
    z3 = Cyc.root_of_unity(F(1, 3))
    assert (z6 - 1) == z3  # e^(i*pi/3) - 1 = e^(2*i*pi/3)
    assert not (z6 - 1) == z3 * z3


def test_rational_complex_arithmetic():
    v = Cyc.rational(F(3, 4), F(-2, 5))
    assert (v * v.inverse()) == 1
    assert v.rational_parts() == (F(3, 4), F(-2, 5))
    i = Cyc.rational(0, 1)
    assert i * i == -1
    assert (Cyc.root_of_unity(F(1, 4))) == i


def test_inverse_of_cyclotomic():
    w = Cyc.root_of_unity(F(1, 3))
    u = 1 + w
    assert (u * u.inverse()) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc.zero().inverse()


@given(
    st.integers(-8, 8), st.integers(-8, 8),
    st.integers(-8, 8), st.integers(-8, 8),
)
def test_rational_complex_matches_float(a, b, c, d):
    u = Cyc.rational(a, b)
    v = Cyc.rational(c, d)
    assert abs(complex(u * v) - complex(a, b) * complex(c, d)) < 1e-9
    assert abs(complex(u + v) - (complex(a, b) + complex(c, d))) < 1e-9


@given(st.fractions(min_value=0, max_value=1).filter(lambda t: t.denominator <= 12))
def test_roots_of_unity_match_cmath(t):
    z = Cyc.root_of_unity(t)
    assert abs(complex(z) - cmath.exp(2j * cmath.pi * float(t))) < 1e-12
    assert (z * z.conjugate()) == 1


def test_mixing_with_float_complex_degrades():
    w = Cyc.root_of_unity(F(1, 3))
    out = w + 0.5j
    assert isinstance(out, complex)
    assert abs(out - (complex(w) + 0.5j)) < 1e-15


def test_exact_sqrt():
    assert exact_sqrt(Cyc.rational(F(25, 16))).rational_parts() == (F(5, 4), F(0))
    assert exact_sqrt(Cyc.rational(-1)).rational_parts() == (F(0), F(1))
    assert exact_sqrt(Cyc.rational(0, 2)).rational_parts() == (F(1), F(1))
    assert exact_sqrt(Cyc.rational(2)) is None  # sqrt(2) is irrational
    assert exact_sqrt(Cyc.rational(-4)).rational_parts() == (F(0), F(2))


# ---------------------------------------------------------------------------
# Cyc against the polynomial-division arithmetic it replaced: every operand
# lifted to the lcm conductor and reduced by dividing by Phi_m
# ---------------------------------------------------------------------------


def _ref_pdivmod(a, b):
    a = list(a)
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] -= c * cb
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return q, a


def _ref_reduce(p, n):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    _, r = _ref_pdivmod(p, list(_cyclotomic_poly(n)))
    return tuple(r + [F(0)] * (len(_cyclotomic_poly(n)) - 1 - len(r)))


def _ref_lift(v, m):
    n, c = (v.n, v.c) if isinstance(v, Cyc) else (1, (F(v),))
    step = m // n
    out = [F(0)] * (len(c) * step + 1)
    for k, ck in enumerate(c):
        out[k * step] += ck
    return list(_ref_reduce(out, m))


def _ref_conductor(a, b):
    return math.lcm(*(v.n if isinstance(v, Cyc) else 1 for v in (a, b)))


def _ref_sum(a, b, sign=1):
    m = _ref_conductor(a, b)
    return m, _ref_reduce([x + sign * y for x, y in zip(_ref_lift(a, m), _ref_lift(b, m))], m)


def _ref_product(a, b):
    m = _ref_conductor(a, b)
    la, lb = _ref_lift(a, m), _ref_lift(b, m)
    out = [F(0)] * (len(la) + len(lb))
    for i, x in enumerate(la):
        for j, y in enumerate(lb):
            out[i + j] += x * y
    return m, _ref_reduce(out, m)


def _ref_conjugate(v):
    out = [F(0)] * v.n
    for k, ck in enumerate(v.c):
        out[(v.n - k) % v.n] += ck
    return v.n, _ref_reduce(out, v.n)


def _formula_complex(v):
    z = 0j
    for k, ck in enumerate(v.c):
        if ck:
            z += float(ck) * cmath.exp(2j * cmath.pi * k / v.n)
    return z


def _bits(z):
    return struct.pack("dd", z.real, z.imag)


def _as_ref(v):
    """(n, c) of a Cyc, with every coefficient checked to be a Fraction."""
    assert isinstance(v, Cyc)
    assert all(type(x) is F for x in v.c)
    return v.n, v.c


_small = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=6), st.just(F(0))
)


@st.composite
def _cycs(draw):
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return Cyc.root_of_unity(F(draw(st.integers(0, n - 1)), n))
    deg = len(_cyclotomic_poly(n)) - 1
    return Cyc(n, draw(st.lists(_small, min_size=deg, max_size=deg)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cycs(), _cycs(), _small)
def test_cyc_arithmetic_matches_the_division_reference(a, b, r):
    # mixed conductors, and a rational operand on either side
    for got, want in (
        (a + b, _ref_sum(a, b)),
        (a - b, _ref_sum(a, b, -1)),
        (a * b, _ref_product(a, b)),
        (a + r, _ref_sum(a, r)),
        (r + a, _ref_sum(a, r)),
        (a - r, _ref_sum(a, r, -1)),
        (r - a, _ref_sum(Cyc.rational(r), a, -1)),
        (a * r, _ref_product(a, r)),
        (r * a, _ref_product(a, r)),
        (a * b.conjugate(), _ref_product(a, Cyc(*_ref_conjugate(b)))),
    ):
        assert _as_ref(got) == want
    assert (a == b) == (not any(_ref_sum(a, b, -1)[1]))
    for x, y in ((a, r), (r, a)):
        assert (x == y) == (not any(_ref_sum(a, r, -1)[1]))
    if not b.is_zero():
        assert _as_ref(a / b) == _ref_product(a, Cyc(*_as_ref(b.inverse())))
    if r:
        assert _as_ref(a / r) == _ref_product(a, F(1) / r)
    if not a.is_zero():
        assert _as_ref(r / a) == _ref_product(a.inverse(), r)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cycs(), st.integers(1, 12), st.integers(0, 11))
def test_cyc_conjugate_inverse_and_roots_match_the_division_reference(v, n, k):
    assert _as_ref(v.conjugate()) == _ref_conjugate(v)
    if v.is_zero():
        with pytest.raises(ZeroDivisionError):
            v.inverse()
    else:
        inv = v.inverse()
        # the inverse is unique: its reference product with v is one
        assert _as_ref(inv)[0] == v.n
        assert _ref_product(v, inv) == (v.n, _ref_reduce([F(1)], v.n))
    t = F(k % n, n)
    m, j = t.denominator, t.numerator
    assert _as_ref(Cyc.root_of_unity(t)) == (m, _ref_reduce([F(0)] * j + [F(1)], m))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_cycs(), _cycs(), _small)
def test_cyc_complex_is_cached_with_the_formula_bits(a, b, r):
    for v in (a, b, a + b, a * b, a + r, r - a, a * r, -a, a.conjugate()):
        want = _bits(_formula_complex(v))
        assert _bits(complex(v)) == want
        assert _bits(complex(v)) == want  # the cached value, on a repeated call
        assert _bits(v + 0.5j) == _bits(_formula_complex(v) + 0.5j)


# ---------------------------------------------------------------------------
# Phi_n checked without the library's _cyclotomic_poly, and Cyc beyond the
# conductors the hypothesis tests draw
# ---------------------------------------------------------------------------


def _pmul_local(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n1, n2", itertools.product((1, 2), repeat=2))
def test_rational_fast_path_gives_the_general_sum_and_product(n1, n2):
    # at conductors 1 and 2 a value is one rational coefficient: the root
    # of unity -1 is Cyc(2, [-1])
    values = [F(0), F(1), F(-1), F(3, 7), F(-5, 2), F(2**70, 3)]
    for p, q in itertools.product(values, repeat=2):
        a, b = Cyc(n1, [p]), Cyc(n2, [q])
        assert _as_ref(a + b) == _ref_sum(a, b) == (max(n1, n2), (p + q,))
        assert _as_ref(a - b) == _ref_sum(a, b, -1)
        assert _as_ref(a * b) == _ref_product(a, b) == (max(n1, n2), (p * q,))
    assert _as_ref(Cyc.root_of_unity(F(1, 2))) == (2, (F(-1),))


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_polys_of_the_divisors_multiply_to_x_n_minus_1(n):
    p = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            p = _pmul_local(p, _cyclotomic_poly(d))
    assert p == [-1] + [0] * (n - 1) + [1]
    assert all(type(c) is F for c in _cyclotomic_poly(n))


def test_cyclotomic_poly_pins():
    assert _cyclotomic_poly(12) == tuple(map(F, (1, 0, -1, 0, 1)))
    assert _cyclotomic_poly(15) == tuple(map(F, (1, -1, 0, 1, -1, 1, 0, -1, 1)))
    assert _cyclotomic_poly(30) == tuple(map(F, (1, 1, 0, -1, -1, -1, 0, 1, 1)))


@pytest.mark.parametrize("n", [0, -3, True, 3.0, "3", None])
def test_cyc_conductor_must_be_a_positive_int(n):
    with pytest.raises(ValueError, match="conductor must be an int >= 1"):
        Cyc(n, [1])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([15, 20, 60]).flatmap(
    lambda n: st.lists(_small, min_size=len(_cyclotomic_poly(n)) - 1,
                       max_size=len(_cyclotomic_poly(n)) - 1).map(lambda c: Cyc(n, c))
))
def test_cyc_inverse_and_conjugate_at_larger_conductors(v):
    assert _as_ref(v.conjugate()) == _ref_conjugate(v)
    if v.is_zero():
        with pytest.raises(ZeroDivisionError, match="inverse of zero cyclotomic"):
            v.inverse()
        return
    inv = v.inverse()
    assert _as_ref(inv)[0] == v.n
    assert v * inv == 1
    assert _ref_product(v, inv) == (v.n, _ref_reduce([F(1)], v.n))


def test_rational_complex_collapses_to_the_narrowest_exact_type():
    one = rational_complex(F(1), F(0))
    assert one == 1 and type(one) is int
    half = rational_complex(F(1, 2), F(0))
    assert half == F(1, 2) and type(half) is F
    z = rational_complex(F(1, 2), F(-3))
    assert isinstance(z, Cyc) and _as_ref(z) == (4, (F(1, 2), F(-3)))


def test_exppoly_ring():
    e3, em3 = ExpPoly.exp(3), ExpPoly.exp(-3)
    assert (e3 * em3) == 1
    assert (e3 - e3).is_zero()
    assert ((e3 + 1) * (e3 - 1)) == (ExpPoly.exp(6) - 1)
    assert (e3 / 2) == ExpPoly({3: F(1, 2)})
    assert e3.conjugate() == e3  # real-valued
    assert abs(float(e3) - cmath.exp(3).real) < 1e-9


_rationals = st.one_of(
    st.integers(-40, 40), st.fractions(max_denominator=12), st.sampled_from([0, F(0)])
)


@given(st.dictionaries(st.integers(-5, 5), _rationals, max_size=4).map(ExpPoly), _rationals)
def test_exppoly_scalar_multiply_matches_const_product(p, c):
    # multiplying by an int or Fraction must give what ExpPoly.const(c) * p gives:
    # the same keys in the same order, coefficients of the same value and type
    want = list((ExpPoly.const(c) * p).terms.items())
    for got in (p * c, c * p):
        assert isinstance(got, ExpPoly)
        assert [(k, v, type(v)) for k, v in got.terms.items()] == [
            (k, v, type(v)) for k, v in want
        ]
    if c == 0:
        assert (p * c).is_zero()


def test_values_equal_exact_vs_float():
    assert values_equal(F(1, 2) + F(1, 2), 1)
    assert values_equal(0.1 + 0.2, 0.3, 1e-12)
    assert not values_equal(F(1, 3), F(1, 4))


# ---------------------------------------------------------------------------
# Kronecker packing of a residual scan
# ---------------------------------------------------------------------------


def packed_defect(l1, l2, a, b, c, d, extra_window=(), extra_linear=()):
    """l1 - l2 - a*b + c*d evaluated on the packed ints of one scan: l1 and
    l2 are the two bases' values at the first product, with coefficients
    1 and -1; the extra linear values are both bases' at more products."""
    columns = [[l1, *extra_linear], [l2, *extra_linear]]
    pw, lin = pack_scan([a, b, c, d, *extra_window], columns, [1, -1])
    return lin[0] - pw[0] * pw[1] + pw[2] * pw[3]


_coefficients = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
).filter(bool)
_laurent = st.one_of(
    st.dictionaries(st.integers(-6, 6), _coefficients, max_size=4).map(ExpPoly),
    _coefficients,
    st.sampled_from([0, F(0), ExpPoly()]),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(_laurent, min_size=5, max_size=5),
    st.lists(_laurent, max_size=3),
    st.lists(_laurent, max_size=3),
    st.integers(-6, 6),
    _coefficients,
)
def test_packed_defect_is_zero_exactly_when_the_laurent_defect_is(vals, xw, xl, k, bump):
    a, b, c, d, q = vals
    # l1 - q - a*b + c*d == 0 by construction ...
    l1 = a * b - c * d + q
    assert packed_defect(l1, q, a, b, c, d, xw, xl) == 0
    # ... and one coefficient bumped makes it non-zero
    assert packed_defect(l1 + ExpPoly({k: bump}), q, a, b, c, d, xw, xl) != 0
    assert packed_defect(l1, q + ExpPoly({k: bump}), a, b, c, d, xw, xl) != 0


def test_packed_defect_does_not_carry_into_the_next_digit():
    # the defect 1024 - e would vanish at B = 1024; this scan's bound is
    # |(1, -1)|_1 * |l2|_1 + 2 * 0**2 = 1026, so B = 2048 and the defect
    # packs to 1024 - 2048
    l1, l2 = 512, ExpPoly({0: -512, 1: 1})
    assert l1 - l2 == ExpPoly({0: 1024, 1: -1})
    assert packed_defect(l1, l2, 0, 0, 0, 0) == 1024 - 2048


def test_packed_pairs_vanish_tests_every_cell():
    index = np.array([[0, 1, 2], [3, 4, 1]], dtype=np.uint8)  # p = 1 twice
    a, c = [3, 2], [2**70, -3]  # beyond any fixed-width integer
    b, d = [1, 2, 0], [2**65, 0, 2]
    lin = [3 - 2**135, 6, -(2**71), 2 + 3 * 2**65, 4]
    assert lin[1] == a[0] * b[1] - c[0] * d[1] == a[1] * b[2] - c[1] * d[2]
    assert packed_pairs_vanish(index, lin, a, b, c, d)
    for p in range(5):  # each packed value off by one fails some cell
        bumped = lin[:p] + [lin[p] + 1] + lin[p + 1:]
        assert not packed_pairs_vanish(index, bumped, a, b, c, d)
    assert packed_pairs_vanish(np.zeros((0, 0), np.uint8), [], [], [], [], [])


_TOP = 2**31 - 1  # 31 bits: every product is below 2**62, every difference below 2**63

# (a, b, c, d, the dtype the kernel must test in); lin is a*b - c*d, exact
_WIDTH_EDGES = {
    # the widest int64 scan: 31-bit window ints and 62-bit packed values
    "31/62": ([_TOP, -_TOP], [_TOP, -_TOP], [0, 1], [0, 1], np.int64),
    # one 32-bit window int: (2**32 - 1)**2 wraps in int64
    "32/64": ([2**32 - 1], [2**32 - 1], [0], [0], object),
    # 31-bit window ints whose difference 2 * _TOP**2 has 63 bits
    "31/63": ([_TOP], [_TOP], [-_TOP], [_TOP], object),
}


@pytest.mark.parametrize("edge", _WIDTH_EDGES)
def test_int64_and_object_kernels_agree_at_the_width_edges(edge):
    a, b, c, d, dtype = _WIDTH_EDGES[edge]
    index = np.arange(len(a) * len(b), dtype=np.uint8).reshape(len(a), len(b))
    lin = [ai * bj - ci * dj for ai, ci in zip(a, c) for bj, dj in zip(b, d)]
    assert edge.endswith(str(max(map(abs, lin)).bit_length()))
    for bump in (0, 1):  # both verdicts
        bumped = [lin[0] + bump] + lin[1:]
        with mock.patch.object(exactnum, "_pairs_vanish", wraps=exactnum._pairs_vanish) as spy:
            verdict = packed_pairs_vanish(index, bumped, a, b, c, d)
        assert spy.call_args.args[-1] is dtype
        assert verdict == (bump == 0) == exactnum._pairs_vanish(index, bumped, a, b, c, d, object)
    if edge == "32/64":  # what the width test guards against: int64 wraps
        wrapped = [lin[0] - 2**64]
        assert exactnum._pairs_vanish(index, wrapped, a, b, c, d, np.int64)
        assert not packed_pairs_vanish(index, wrapped, a, b, c, d)


def _pairs_vanish_oracle(index, lin, a, b, c, d):
    return all(
        lin[index[i, j]] == a[i] * b[j] - c[i] * d[j]
        for i in range(len(a)) for j in range(len(b))
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 40), st.data())
def test_int64_kernel_blocks_rows_and_finds_every_failing_cell(rows, cols, block, data):
    # at 30 bits every cell packs to int64; the 31-bit ends widen some
    ints = st.one_of(st.integers(-2**30, 2**30), st.sampled_from([_TOP, -_TOP]))
    a, c = (data.draw(st.lists(ints, min_size=rows, max_size=rows)) for _ in "ac")
    b, d = (data.draw(st.lists(ints, min_size=cols, max_size=cols)) for _ in "bd")
    index = np.arange(rows * cols, dtype=np.uint8).reshape(rows, cols)
    lin = [ai * bj - ci * dj for ai, ci in zip(a, c) for bj, dj in zip(b, d)]
    lin = [v if abs(v) < 2**62 else 0 for v in lin]  # keep the scan int64
    want = _pairs_vanish_oracle(index, lin, a, b, c, d)
    with mock.patch.object(exactnum, "ROW_BLOCK_CELLS", block):
        assert exactnum._pairs_vanish(index, lin, a, b, c, d, np.int64) == want
        assert packed_pairs_vanish(index, lin, a, b, c, d) == want
        cell = data.draw(st.integers(0, rows * cols - 1))
        bumped = lin[:cell] + [lin[cell] + 1] + lin[cell + 1:]
        assert not exactnum._pairs_vanish(index, bumped, a, b, c, d, np.int64)


def test_pack_scan_mixes_rational_and_laurent_values():
    half = F(1, 2)
    pw, pl = pack_scan([3, half, ExpPoly({-1: half, 2: 1})], [[F(1, 4), ExpPoly.exp(-2)]], [1])
    # D = 4 and s = 2: window values are 4 * B**2 * v(B), base values
    # 4 * B**4 * v(B) of weight 4; bound = 4 * 4 + 2 * 12**2 = 304, so B = 2**9
    B = 512
    assert pw == [12 * B**2, 2 * B**2, 2 * B + 4 * B**4]
    assert pl == [4 * B**4, 16 * B**2]


def test_pack_scan_packs_a_constant_to_d_times_its_value():
    # ints, Fractions and a bool, no ExpPoly: D = lcm(2, 4, 2, 3) = 12, no
    # shift, and base 0 weighs 12 * 2/3 = 8
    pw, pl = pack_scan([3, F(1, 2), -2, True], [[F(1, 4), 0, F(-3, 2)]], [F(2, 3)])
    assert pw == [36, 6, -24, 12] and pl == [24, 0, -144]
    assert all(type(v) is int for v in pw + pl)
    # too wide to pack: one constant of 20,000 bits
    assert pack_scan([2**20000], [[0]], [1]) is None


def test_pack_scan_of_an_empty_scan_and_of_values_it_cannot_pack():
    pw, pl = pack_scan([], [], [])
    assert pw == [] and pl == []
    for bad in (0.5, 1j, Cyc.rational(1, 1), float("nan")):
        assert pack_scan([1, bad], [[0]], [1]) is None
        assert pack_scan([1], [[bad]], [1]) is None
    # too wide to pack densely: e**(10**6)
    assert pack_scan([ExpPoly.exp(10**6)], [[0]], [1]) is None
