"""Linear algebra tests; expected values from rank-nullity and enumeration."""

from __future__ import annotations

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
