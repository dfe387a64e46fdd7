"""The vectorised float scan of `analysis.residual` against the Python loop.

The scan forms each defect in float64 ufuncs, with Python's complex product
written out in real and imaginary parts.  It is only right while those
formulas give Python's bits, so the formulas are tested directly too: a
platform whose CPython or numpy scalar math fuses a multiply and an add
fails here instead of changing verdicts.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coslaw import analysis, semigroups
from coslaw.analysis import residual
from coslaw.functions import ScalarFunction
from coslaw.semigroups import FiniteSemigroup, InvolutiveAutomorphism, ProceduralSemigroup

BIG = 1.7976931348623157e308
TINY = 5e-324  # the least subnormal
EDGES = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 1e-300, 1.0, -1.0, 1e154, 1e200, BIG, -BIG]


def _same_bits(x, y) -> np.ndarray:
    """Elementwise: equal float64 bit patterns, or both NaN."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    return (x.view(np.uint64) == y.view(np.uint64)) | (np.isnan(x) & np.isnan(y))


def _operands():
    """Real and imaginary parts of two operand lists: 10**5 random values
    over a wide range of exponents, then every combination of the edges."""
    rng = np.random.default_rng(0)
    n = 100_000
    parts = rng.standard_normal((4, n)) * 2.0 ** rng.integers(-60, 60, (4, n))
    grid = np.array(np.meshgrid(EDGES, EDGES, EDGES, EDGES)).reshape(4, -1)
    return np.concatenate([parts, grid], axis=1)


def test_complex_product_and_abs_as_float_ufuncs_are_pythons():
    ar, ai, br, bi = _operands()
    n = len(ar)
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    with np.errstate(all="ignore"):
        re, im = ar * br - ai * bi, ar * bi + ai * br
        for got in (
            [x * y for x, y in zip(a, b)],  # Python
            [np.complex128(x) * np.complex128(y) for x, y in zip(a, b)],  # numpy scalars
            [np.complex128(x) * y for x, y in zip(a, b)],
        ):
            got = np.array(got)
            assert _same_bits(got.real, re).all() and _same_bits(got.imag, im).all()
        # a float times a complex, with the float as the scan takes it, (v, +0.0):
        # Python up to 3.13 promotes it so; Python from 3.14 and numpy's float64
        # scalar multiply without promoting, which moves only the sign of a
        # zero part (and turns no finite part into another), and no sum makes
        # that a different magnitude
        zero = np.zeros_like(ar)
        re, im = ar * br - zero * bi, ar * bi + zero * br
        finite = np.isfinite(re) & np.isfinite(im)
        assert finite.sum() > n // 2
        for got in (
            [x * y for x, y in zip(ar.tolist(), b)],
            [np.float64(x) * y for x, y in zip(ar.tolist(), b)],
        ):
            got = np.array(got)
            assert (got.real == re)[finite].all() and (got.imag == im)[finite].all()
        hyp = np.hypot(ar, ai)
    mags = []
    for z in a:
        try:
            mags.append(abs(z))
        except OverflowError:  # finite parts, |z| beyond the float range
            mags.append(math.inf)
    assert _same_bits(mags, hyp).all()


# ---------------------------------------------------------------------------
# the scan against the loop
# ---------------------------------------------------------------------------

KINDS = (float, complex, np.float64, np.complex128)
NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)]


def _value(kind, re, im):
    return kind(re) if kind in (float, np.float64) else kind(re, im)


@st.composite
def _values(draw, size, wild):
    reals = st.floats(allow_nan=False, allow_infinity=False) if wild else st.floats(-3, 3)
    reals = st.one_of(reals, st.sampled_from(EDGES if wild else [0.0, -0.0, TINY, -TINY]))
    out = [_value(draw(st.sampled_from(KINDS)), draw(reals), draw(reals)) for _ in range(size)]
    if draw(st.integers(0, 7)) == 0:  # now and then one NaN or inf
        out[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NON_FINITE))
    return out


@st.composite
def _cases(draw):
    """A scan: ("table", n, Cayley rows, sigma perm) or ("window", n), the
    values of g and f (one per element of a table, one per sum 0..2n-2 of a
    window), alpha, the product at which g raises (or None) and the scan's
    block size."""
    n = draw(st.integers(8, 11))
    wild = draw(st.integers(0, 2)) == 0  # any finite float, edges included
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
        carrier, size = ("table", n, rows, draw(st.permutations(range(n)))), n
    else:
        carrier, size = ("window", n), 2 * n - 1
    alpha = draw(st.sampled_from([0, 1, -2.5, 0.5 - 1.5j, np.complex128(1, 1), Fraction(1, 3)]))
    raise_at = draw(st.integers(0, size - 1)) if draw(st.integers(0, 5)) == 0 else None
    return {
        "carrier": carrier, "g": draw(_values(size, wild)), "f": draw(_values(size, wild)),
        "alpha": alpha, "raise_at": raise_at, "block": draw(st.integers(1, n * n)),
    }


def _build(case):
    """Fresh residual arguments for a case: no memo or pair table is shared."""
    kind, n, *rest = case["carrier"]
    if kind == "table":
        s = FiniteSemigroup(cayley=rest[0])
        sigma = InvolutiveAutomorphism("perm", perm=tuple(rest[1]))
    else:
        s = ProceduralSemigroup(
            name="sums", window=tuple(range(n)), compose_rule=lambda x, y: x + y,
            contains_rule=lambda x: isinstance(x, int) and x >= 0,
        )
        sigma = InvolutiveAutomorphism("id", rule=lambda x: x)
    gv, fv, raise_at = case["g"], case["f"], case["raise_at"]

    def g_rule(x):
        if x == raise_at:
            raise ArithmeticError(f"g undefined at {x}")
        return gv[x]

    dense = kind == "table" and raise_at is None
    g = ScalarFunction(s, values=gv) if dense else ScalarFunction(s, rule=g_rule)
    f = ScalarFunction(s, values=fv) if kind == "table" else ScalarFunction(s, rule=fv.__getitem__)
    return s, sigma, case["alpha"], g, f


def _outcome(case, vectorised: bool):
    """(what residual returned or raised, the float scan's own result)."""
    scans = []

    def scan(*args):
        scans.append(real_scan(*args) if vectorised else None)
        return scans[-1]

    real_scan = analysis._float_scan
    with mock.patch.object(analysis, "_float_scan", scan), \
            mock.patch.object(semigroups, "PAIR_BLOCK_CELLS", case["block"]):
        try:
            rep = residual(*_build(case))
        except Exception as e:  # noqa: BLE001 - the exception is the outcome
            return ("raised", type(e), str(e)), None
    got = ("report", float.hex(rep.max_residual), rep.worst_pair, rep.pair_count, rep.mode,
           type(rep.max_residual))
    return got, scans[0] if scans else None


def _check(case):
    loop, _ = _outcome(case, vectorised=False)
    got, scanned = _outcome(case, vectorised=True)
    assert got == loop
    # the scan gives the report whenever the loop's is finite, and only then
    n = case["carrier"][1]
    finite = loop[0] == "report" and math.isfinite(float.fromhex(loop[1]))
    assert (scanned is not None) == (finite and n * n >= analysis._FLOAT_SCAN_MIN_CELLS)
    return got


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_cases())
def test_float_scan_gives_the_loops_report_bit_for_bit(case):
    with np.errstate(all="ignore"):  # the loop's numpy scalars may overflow
        _check(case)


def _window_case(n, g, f, alpha=1, raise_at=None, block=1 << 14):
    return {"carrier": ("window", n), "g": g, "f": f, "alpha": alpha, "raise_at": raise_at, "block": block}


def _defect_at_last(v, n=8):
    """g = v at the largest sum only: the one product of (n-1, n-1)."""
    return _window_case(n, [0.0] * (2 * n - 2) + [v], [0.0] * (2 * n - 1))


@pytest.mark.parametrize("case, want", [
    # an overflowing |defect| of finite parts: the loop's OverflowError
    (_defect_at_last(complex(BIG, BIG)), ("raised", OverflowError)),
    # a NaN defect sticks where the loop first meets it
    (_defect_at_last(math.nan), ("report", "nan")),
    (_defect_at_last(math.inf), ("report", "inf")),
    # subnormal and signed-zero defects stay exact
    (_defect_at_last(TINY), ("report", float.hex(TINY))),
    (_defect_at_last(complex(-0.0, -TINY)), ("report", float.hex(TINY))),
    # products that overflow: g(x)g(y) and f(x)f(y) are inf, their sum NaN
    (_window_case(8, [1e200] * 15, [1e200] * 15), ("report", "nan")),
    # g raises at a product: the loop's exception, message and all
    (_window_case(8, [0.5] * 15, [0.25j] * 15, raise_at=11), ("raised", ArithmeticError)),
    # ... unless the loop's abs overflows at an earlier pair: (1, 7) has the
    # product 8, first seen before 14, and the loop never reaches g(14)
    (_window_case(8, [0.0] * 8 + [complex(BIG, BIG)] + [0.0] * 6, [0.0] * 15, raise_at=14),
     ("raised", OverflowError)),
    # an empty window is an exact zero with no pair
    (_window_case(0, [], []), ("report", float.hex(0.0))),
])
def test_float_scan_edges_match_the_loop(case, want):
    with np.errstate(all="ignore"):
        got = _check(case)
    assert got[:2] == want


def test_float_scan_reports_the_first_worst_pair_across_blocks():
    n = 9
    g = [0.0] * (2 * n - 1)
    g[12] = g[16] = 2.0  # beyond the window: the defect is 2 where x + y is 12 or 16
    case = _window_case(n, g, [0.0] * (2 * n - 1))
    for block in (1, n, n + 1, 5 * n, n * n):
        case["block"] = block
        got = _check(case)
        assert got[1:3] == (float.hex(2.0), (4, 8))
