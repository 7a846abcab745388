"""Bound predicates: fixed cases recomputed here plus suite-wide properties."""

from __future__ import annotations

import math

import pytest

from stabforge.bounds import (
    aqc_singleton,
    aqmds_feasible,
    gv_exists,
    hamming,
    report_line,
    report_text,
    singleton,
)
from stabforge.code import EXACT, LOWER_BOUND, DistanceResult
from stabforge.errors import BadInput, HypothesisViolated
from stabforge.stabilizer import (
    PURE,
    UNKNOWN,
    CodeParams,
    certify_additive,
    certify_stabilizer,
    css,
)


def params(n, k, d, q=2, pure=UNKNOWN, status=EXACT):
    return CodeParams(q=q, n=n, k=k, d=DistanceResult(d, status), pure=pure, provenance="t")


def aparams(n, k, dz, dx, q=2, status=EXACT):
    return CodeParams(
        q=q, n=n, k=k,
        dz=DistanceResult(dz, status), dx=DistanceResult(dx, status),
        pure=UNKNOWN, provenance="t",
    )


# -- Singleton ------------------------------------------------------------------


def test_singleton_513_is_qmds():
    r = singleton(params(5, 1, 3))
    assert r.holds and r.qmds and (r.lhs, r.rhs) == (1, 1)


def test_singleton_422_is_qmds():
    r = singleton(params(4, 2, 2))
    assert r.holds and r.qmds and r.slack == 0


def test_singleton_713_not_qmds():
    r = singleton(params(7, 1, 3))
    assert r.holds and not r.qmds and (r.lhs, r.rhs) == (1, 3)


def test_singleton_refuses_bound_only():
    r = singleton(params(5, 1, 3, status=LOWER_BOUND))
    assert r.holds is None
    assert any("bound-only" in n for n in r.notes)
    assert "not-certifiable" in report_line(r)


def test_singleton_requires_positive_k():
    assert singleton(params(6, 0, 4)).holds is None


# -- Hamming --------------------------------------------------------------------


def test_hamming_513_is_perfect():
    r = hamming(params(5, 1, 3, pure=PURE))
    assert r.holds and r.perfect
    assert (r.lhs, r.rhs) == (16, 16)
    line = report_line(r)
    for token in ("holds=true", "lhs=16", "rhs=16", "perfect=true"):
        assert token in line


def test_hamming_713():
    r = hamming(params(7, 1, 3, pure=PURE))
    assert r.holds and not r.perfect
    assert (r.lhs, r.rhs) == (1 + 3 * 7, 64)


def test_hamming_inapplicable_without_purity():
    assert hamming(params(5, 1, 3)).holds is None
    assert hamming(params(5, 1, 3, pure="impure")).holds is None


# -- Gilbert-Varshamov ------------------------------------------------------------


def test_gv_existence_case():
    r = gv_exists(2, 6, 2, 2)
    assert r.holds and r.exists
    assert (r.lhs, r.rhs) == (21, 6)


def test_gv_negative_case():
    # oracle: sum_{j=1}^{3} 3^(j-1) C(6,j) = 6 + 45 + 180 = 231
    assert sum(3 ** (j - 1) * math.comb(6, j) for j in range(1, 4)) == 231
    r = gv_exists(2, 6, 2, 4)
    assert not r.holds and (r.lhs, r.rhs) == (21, 231)


def test_gv_monotone_in_d():
    for d in range(2, 5):
        if gv_exists(3, 8, 2, d).holds:
            for smaller in range(2, d + 1):
                assert gv_exists(3, 8, 2, smaller).holds


def test_bounds_exact_at_large_parameters():
    # unbounded integers: no overflow up to n = 64, q = 256
    r = gv_exists(256, 64, 2, 20)
    assert r.lhs == (256**64 - 1) // (256**2 - 1)
    assert r.rhs == sum((256**2 - 1) ** (j - 1) * math.comb(64, j) for j in range(1, 20))
    big = params(64, 2, 8, q=256, pure=PURE)
    h = hamming(big)
    assert h.rhs == 256**62 and h.holds


def test_gv_hypothesis_violations():
    with pytest.raises(HypothesisViolated, match="mod 2"):
        gv_exists(2, 5, 2, 2)
    with pytest.raises(HypothesisViolated, match="k >= 2"):
        gv_exists(2, 6, 1, 2)
    with pytest.raises(HypothesisViolated, match="d >= 2"):
        gv_exists(2, 6, 2, 1)
    with pytest.raises(HypothesisViolated, match="n > k"):
        gv_exists(2, 2, 4, 2)
    with pytest.raises(HypothesisViolated, match="prime power"):
        gv_exists(6, 8, 2, 2)


# -- asymmetric Singleton -----------------------------------------------------------


def test_aqc_singleton_7332():
    r = aqc_singleton(aparams(7, 3, 3, 2))
    assert r.holds and (r.lhs, r.rhs) == (3, 4) and r.slack == 1
    assert any("d_z + d_x" in n for n in r.notes)


def test_aqc_singleton_symmetric_reduction():
    r = aqc_singleton(aparams(5, 1, 3, 3))
    assert r.holds and (r.lhs, r.rhs) == (1, 1)


def test_aqc_singleton_violation():
    r = aqc_singleton(aparams(5, 3, 3, 3))
    assert r.holds is False and r.slack < 0


def test_aqc_singleton_refuses_bound_only_and_symmetric():
    assert aqc_singleton(aparams(7, 3, 3, 2, status=LOWER_BOUND)).holds is None
    assert aqc_singleton(params(5, 1, 3)).holds is None


# -- AQMDS feasibility ---------------------------------------------------------------


def test_aqmds_case_1():
    assert aqmds_feasible(2, 5, 0, 1) == (True, 1)
    assert aqmds_feasible(7, 9, 8, 1) == (True, 1)


def test_aqmds_case_1_sweep():
    # k = 1 with j in {0, n-1} is feasible for every field and length
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(2, 9):
            assert aqmds_feasible(q, n, 0, 1) == (True, 1)
            assert aqmds_feasible(q, n, n - 1, 1) == (True, 1)


def test_aqmds_case_2():
    assert aqmds_feasible(2, 6, 4, 1) == (True, 2)


def test_aqmds_case_4():
    assert aqmds_feasible(5, 4, 1, 2) == (True, 4)


def test_aqmds_case_6():
    # q = 2^m means n = q + 1 = 5 when q = 4
    assert aqmds_feasible(4, 5, 1, 2) == (True, 6)


def test_aqmds_rejects_odd_length_weight_one_tuple():
    feasible, case = aqmds_feasible(2, 7, 5, 1)
    assert not feasible and case is None
    # exhaustive scan of the seven cases for (q=2, n=7, j=5, k=1)
    q, n, j, k = 2, 7, 5, 1
    assert not (k in (1, n - 1) and j in (0, n - k))            # case 1
    assert not (q == 2 and n % 2 == 0)                          # case 2: n odd
    assert not q >= 3                                           # cases 3, 4, 5
    assert not n == q + 1                                       # case 6
    assert not n == q + 2                                       # case 7


def test_aqmds_case_7():
    assert aqmds_feasible(4, 6, 2, 1) == (True, 7)
    assert aqmds_feasible(4, 6, 0, 3) == (True, 7)
    assert aqmds_feasible(4, 6, 3, 3) == (True, 7)


def test_aqmds_bad_inputs():
    with pytest.raises(BadInput):
        aqmds_feasible(6, 4, 0, 1)
    with pytest.raises(BadInput):
        aqmds_feasible(2, 1, 0, 1)
    with pytest.raises(BadInput):
        aqmds_feasible(2, 4, -1, 1)
    with pytest.raises(BadInput):
        aqmds_feasible(2, 4, 0, 4)


# -- suite-wide properties -------------------------------------------------------------


def test_certified_codes_pass_their_bounds(ex512, hamming74, even432, hexacode):
    outputs = [
        certify_stabilizer(ex512).params,
        css(hamming74, hamming74).params,
        css(even432, even432).params,
        certify_additive(hexacode).params,
    ]
    for p in outputs:
        if p.k > 0 and p.d.status == EXACT:
            assert singleton(p).holds
        if p.k > 0 and p.pure == PURE and p.d.status == EXACT:
            assert hamming(p).holds


def test_report_text_renders():
    assert "holds" in report_text(singleton(params(5, 1, 3)))
    assert "inapplicable" in report_text(singleton(params(6, 0, 4)))
