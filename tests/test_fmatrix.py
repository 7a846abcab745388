"""Linear algebra tests; expected values from rank-nullity and enumeration."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from stabforge.errors import DimensionMismatch
from stabforge.fmatrix import (
    FqMatrix,
    identity,
    in_span,
    intersect,
    kernel,
    matmul,
    matrix,
    rank,
    reduce_against,
    rref,
    transpose,
    zeros,
)
from stabforge.gf import field_make, field_of_order

F2 = field_make(2, 1)
F4 = field_make(2, 2)

EX512_ROWS = (
    (1, 1, 0, 0, 0, 0, 0, 1, 0, 1),
    (0, 1, 1, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 1, 1, 0, 1, 0, 0),
)

HAMMING74_ROWS = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)


def random_matrix(field, r, c, rng):
    return matrix(field, [[rng.randrange(field.q) for _ in range(c)] for _ in range(r)])


def span_vectors(field, M):
    """All vectors in the row span, by brute-force message enumeration."""
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=M.nrows):
        v = [0] * M.ncols
        for ci, row in zip(coeffs, M.rows):
            for j, x in enumerate(row):
                v[j] = field.add(v[j], field.mul(ci, x))
        out.add(tuple(v))
    return out


def test_rref_identity_and_zero():
    I = identity(F2, 4)
    R, rk, piv = rref(I)
    assert R.rows == I.rows and rk == 4 and piv == (0, 1, 2, 3)
    Z = zeros(F2, 3, 5)
    R, rk, piv = rref(Z)
    assert rk == 0 and piv == ()


def test_rref_ex512_rank_4():
    M = matrix(F2, EX512_ROWS)
    _, rk, _ = rref(M)
    assert rk == 4


def test_rref_idempotent_and_canonical():
    rng = random.Random(7)
    for field in (F2, F4, field_make(3, 1)):
        for _ in range(20):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 7), rng)
            R, rk, piv = rref(M)
            R2, rk2, piv2 = rref(R)
            assert R2.rows == R.rows and rk2 == rk and piv2 == piv
            assert list(piv) == sorted(piv)
            for row, c in zip(R.rows, piv):
                assert row[c] == 1


def test_kernel_identity_empty():
    assert kernel(identity(F2, 3)).nrows == 0


def test_kernel_zero_row_full():
    K = kernel(zeros(F2, 1, 5))
    assert K.nrows == 5
    # a matrix with no rows at all constrains nothing either
    for q in (2, 3, 4, 9, 256):
        field = field_of_order(q)
        assert kernel(zeros(field, 0, 5)) == identity(field, 5)


def test_kernel_hamming_dim_3():
    M = matrix(F2, HAMMING74_ROWS)
    K = kernel(M)
    assert K.nrows == 7 - 4
    for v in K.rows:
        for row in M.rows:
            assert F2.dot(row, v) == 0


def test_rank_nullity_random():
    rng = random.Random(11)
    for field in (F2, F4, field_make(3, 2)):
        for _ in range(15):
            M = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 7), rng)
            assert rank(M) + kernel(M).nrows == M.ncols


def test_intersect_with_self_and_zero():
    M = matrix(F2, HAMMING74_ROWS)
    R = rref(M)[0]
    assert intersect(M, M).rows == R.rows
    Z = zeros(F2, 0, 7)
    assert intersect(M, Z).nrows == 0


def test_intersect_two_disjoint_lines_gf2():
    A = matrix(F2, [(1, 0, 0)])
    B = matrix(F2, [(0, 1, 0)])
    # enumeration of all 8 vectors in GF(2)^3 shows the spans share only 0
    shared = span_vectors(F2, A) & span_vectors(F2, B)
    assert shared == {(0, 0, 0)}
    assert intersect(A, B).nrows == 0


def test_intersect_matches_enumeration_oracle():
    rng = random.Random(3)
    for field in (F2, field_make(3, 1), F4):
        for _ in range(12):
            A = random_matrix(field, 2, 4, rng)
            B = random_matrix(field, 2, 4, rng)
            got = intersect(A, B)
            expected = span_vectors(field, A) & span_vectors(field, B)
            assert span_vectors(field, got) == expected


def test_intersect_commutative_and_monotone():
    rng = random.Random(5)
    for _ in range(10):
        A = random_matrix(F2, 2, 5, rng)
        B = random_matrix(F2, 3, 5, rng)
        C = random_matrix(F2, 2, 5, rng)
        ab = intersect(A, B)
        ba = intersect(B, A)
        assert ab.rows == ba.rows
        # A subset of stack(A,B) implies intersect(A,C) subset of intersect(stack,C)
        big = intersect(matrix(F2, A.rows + B.rows), C)
        small = intersect(A, C)
        R, _, piv = rref(big)
        for v in small.rows:
            assert in_span(R, piv, v)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(matrix(F2, [(1, 0)]), matrix(F2, [(1, 0, 0)]))


def test_matmul_and_transpose():
    A = matrix(F4, [(1, 2), (3, 1)])
    I = identity(F4, 2)
    assert matmul(A, I).rows == A.rows
    assert transpose(transpose(A)).rows == A.rows


# sha256 of every output of `golden_outputs(q)`, pinned before the GF(q)
# elimination moved from per-entry Field calls to reading table rows
GOLDEN = {
    2: "80961c222ed3f978f85224bf2324026a72728d7f16d0899bd9c8b7e87c257bcc",
    3: "84dfe4d44cfed25c8d0ca402717360c0e879f52d84ad3a5406c821b47f7c37a1",
    4: "11aa2add1158fbc7b8f4d8e0b4e4347f5877962f8c573a693b91949301104c7f",
    5: "bfe3bfe419d5c59298d8dc7ed5576edac43e8a8db30f1c1772c973c51b5014e5",
    7: "03541226a1cd1915dfe3db17b4424a283f7aef9a4ca603a2623772565c2fbe60",
    8: "b7b33c55e62b4943334afa2dc7b585547215ef1066759e51bf58e44ae2628159",
    9: "71e93678e514da63c1fb3c880f794614c18533156c132ad62135068a7c6fdb9f",
    16: "495fe74255fedd13d6d3b84f2df78841ef4e097aa2572da26fc704aa503ab4e6",
    25: "a3933875024e094606f0f41723de712843d334664d6a1b7a5f881dca1f8d2c7b",
    27: "b3970e5075cac6a3d521ebc89e13ebaf89a5ef2babf0af7edf51925d6c6c25b6",
    243: "9ca0482fc4dae54c6883b00bf4872a61f2df5b54c3b44677d89b78215cd0e37d",
    256: "a85117958bdb33ad5f0ca19f26e10917f360d8aacf120b9956bad4f8dfe3a88d",
}
GOLDEN_SHAPES = ((1, 1), (1, 6), (3, 3), (4, 9), (9, 4), (8, 16), (16, 32), (32, 64))


def golden_outputs(q):
    """rref, kernel, reduce_against, in_span, matmul and intersect on seeded
    random matrices over GF(q): full-rank and rank-deficient ones (a random
    r x k times k x c product, k < min(r, c)), with zero rows and columns."""
    field = field_of_order(q)
    rng = random.Random(q)
    out = []
    for r, c in GOLDEN_SHAPES:
        k = max(1, min(r, c) // 2)
        mats = [random_matrix(field, r, c, rng),
                matmul(random_matrix(field, r, k, rng), random_matrix(field, k, c, rng)),
                matrix(field, [[0] * c] + [[rng.randrange(q) if j % 3 else 0 for j in range(c)]
                                           for _ in range(r - 1)], c)]
        for M in mats:
            R, rk, piv = rref(M)
            out.append((R.rows, rk, piv, kernel(M).rows))
            for v in (random_matrix(field, 1, c, rng).rows[0], M.rows[-1]):
                out.append((reduce_against(R, piv, v), in_span(R, piv, v)))
            out.append(matmul(M, random_matrix(field, c, max(1, c // 3), rng)).rows)
            shared = random_matrix(field, max(1, r // 4), c, rng).rows
            A = matrix(field, random_matrix(field, max(1, r // 2), c, rng).rows + shared, c)
            B = matrix(field, M.rows[: r // 2] + shared, c)
            out.append(intersect(A, B).rows)
    return out


@pytest.mark.parametrize("q", sorted(GOLDEN))
def test_gfq_linear_algebra_golden(q):
    got = hashlib.sha256(repr(golden_outputs(q)).encode()).hexdigest()
    assert got == GOLDEN[q]
