"""Linear algebra tests; expected values from rank-nullity and enumeration."""

from __future__ import annotations

import hashlib
import random

import pytest

from stabforge import fmatrix
from stabforge.code import additive_code, is_subcode, linear_code, symplectic_code
from stabforge.errors import BadRange, DimensionMismatch
from stabforge.fmatrix import (
    FqMatrix,
    identity,
    in_span,
    kernel,
    matmul,
    matrix,
    rank,
    reduce_against,
    rows_in_span,
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
            R2, rk2, piv2 = rref(matrix(field, R.rows, R.ncols))  # a fresh copy is reduced again
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


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 256])
def test_kernel_is_canonical_on_rank_deficient_matrices(q):
    """kernel reduces once, so its rows must come out as the reference
    rref of themselves, orthogonal to every row of M and ncols - rank(M)
    of them."""
    field = field_of_order(q)
    rng = random.Random(q)
    for _ in range(25):
        ncols = rng.randrange(2, 10)
        r = rng.randrange(1, ncols)  # rank at most r < ncols
        M = matmul(random_matrix(field, rng.randrange(r, r + 4), r, rng), random_matrix(field, r, ncols, rng))
        K = kernel(M)
        assert K == _rref_by_tables(K)[0]
        assert K.nrows == ncols - rank(M) > 0
        assert all(field.dot(row, v) == 0 for row in M.rows for v in K.rows)


# packed GF(2) rows end just before, at and after a 64-bit boundary
PACKED_WIDTHS = (0, 1, 63, 64, 65, 130)


def _rref_by_tables(M):
    """`rref` through the add and mul tables, row by row, as for any q: the
    reference for the packed GF(2) and the column-by-column GF(q)
    eliminations.  Each row, reduced by the basis so far, is scaled to
    lead with 1 and clears its leading column from the earlier rows."""
    add, mul, neg, inv = M.field.tables()
    basis = {}  # leading column -> row, zero at every other leading column
    for v in M.rows:
        for c, row in basis.items():
            if v[c]:
                m = mul[neg[v[c]]]
                v = [add[x][m[y]] for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        s = mul[inv[v[lead]]]
        v = [s[x] for x in v]
        for c, row in basis.items():
            if row[lead]:
                m = mul[neg[row[lead]]]
                basis[c] = [add[x][m[y]] for x, y in zip(row, v)]
        basis[lead] = v
    pivots = tuple(sorted(basis))
    return FqMatrix(M.field, tuple(tuple(basis[c]) for c in pivots), M.ncols), len(pivots), pivots


@pytest.mark.parametrize("width", PACKED_WIDTHS)
def test_gf2_rref_and_kernel_match_the_table_reduction(monkeypatch, width):
    """Packed rows reduce to what the table elimination gives, on matrices
    with no rows, with zero rows, rank-deficient and wider than tall."""
    rng = random.Random(width)
    mats = [matrix(F2, [], width)]
    for r in (1, 3, width // 2, width + 2):
        rows = [[int(rng.random() < 0.3) for _ in range(width)] for _ in range(r)]
        mats.append(matrix(F2, rows, width))
        mats.append(matrix(F2, [[0] * width] + rows[: r // 2] * 2, width))
    got = [(rref(M), kernel(M).rows) for M in mats]
    monkeypatch.setattr(fmatrix, "rref", _rref_by_tables)
    assert got == [(_rref_by_tables(M), kernel(M).rows) for M in mats]


def _kernel_by_tables(M):
    """`kernel` from `_rref_by_tables`, as for any q: free column f's null
    vector is 1 at f and minus each pivot row's entry at f on its pivot,
    and the vectors are reduced again."""
    neg = M.field.tables()[2]
    R, _, pivots = _rref_by_tables(M)
    null = []
    for f in sorted(set(range(M.ncols)) - set(pivots)):
        v = [0] * M.ncols
        v[f] = 1
        for row, p in zip(R.rows, pivots):
            v[p] = neg[row[f]]
        null.append(v)
    return _rref_by_tables(matrix(M.field, null, M.ncols))


def _packed_cases(field, width, rng):
    """Matrices of `width` columns: no rows, a zero row, full rank (an
    upper unitriangular matrix, shuffled) and rank deficient (a product
    through width // 3 dimensions)."""
    full = [[1 if j == i else rng.randrange(field.q) if j > i and rng.random() < 0.3 else 0
             for j in range(width)] for i in range(width)]
    rng.shuffle(full)
    k = max(1, width // 3)
    deficient = matmul(random_matrix(field, k + 3, k, rng), random_matrix(field, k, width, rng)) if width else None
    return [matrix(field, [], width), matrix(field, [[0] * width], width), matrix(field, full, width),
            deficient if width else matrix(field, [()], 0)]


@pytest.mark.parametrize("width", PACKED_WIDTHS)
def test_gf2_kernel_of_packed_rows_matches_the_table_kernel(width):
    """The GF(2) kernel, built from R's packed rows and reduced by
    `_rref_gf2`, gives the table kernel's rows and records their ints and
    pivots, on matrices with no rows, a zero row, full rank and rank
    deficient, alone and with their rows repeated."""
    rng = random.Random(width)
    for M in _packed_cases(F2, width, rng):
        for X in (M, matrix(F2, M.rows * 2 + M.rows[:1], width)):
            K = kernel(X)
            ref, rk, piv = _kernel_by_tables(X)
            assert K.rows == ref.rows and (K.nrows, K._pivots) == (rk, piv)
            assert K.__dict__["packed"] == tuple(int("".join(map(str, r)) or "0", 2) for r in ref.rows)
            assert rank(X) + K.nrows == width


def test_from_packed_makes_the_matrix_of_its_ints():
    """`from_packed` spells each int as a row, column 0 the top bit, and
    refuses ints wider than the matrix and fields other than GF(2)."""
    M = fmatrix.from_packed(F2, (0b101, 0b010, 0), 3)
    assert M.rows == ((1, 0, 1), (0, 1, 0), (0, 0, 0)) and M.packed == (5, 2, 0)
    assert rref(M)[0].rows == ((1, 0, 1), (0, 1, 0))
    assert fmatrix.from_packed(F2, (), 0).rows == ()
    for bad in ((0b1000,), (-1,)):
        with pytest.raises(BadRange, match="not a row of 3 bits"):
            fmatrix.from_packed(F2, bad, 3)
    with pytest.raises(BadRange, match="GF\\(4\\)"):
        fmatrix.from_packed(F4, (1,), 3)


def test_matrix_passes_a_matrix_over_its_field_through():
    """matrix() returns an FqMatrix over the same field, of the asked width
    or with none asked, as it is; any other is converted and checked."""
    M = FqMatrix(F2, ((1, 0, 1),), 3)
    assert matrix(F2, M) is M and matrix(F2, M, 3) is M
    assert matrix(F4, M, 3) == FqMatrix(F4, M.rows, 3)
    with pytest.raises(DimensionMismatch, match="ragged"):
        matrix(F2, M, 4)
    with pytest.raises(BadRange, match="entry 2"):
        matrix(F2, FqMatrix(F4, ((2, 0),), 2))


@pytest.mark.parametrize("width", PACKED_WIDTHS)
def test_gf2_matrix_derives_its_other_form_on_first_read(width):
    """A GF(2) matrix made from ints spells its rows only when they are
    read, one made from rows packs them only when `packed` is read; `nrows`
    reads neither, and both forms make equal, equally hashed matrices."""
    rng = random.Random(width)
    rows = tuple(tuple(rng.randrange(2) for _ in range(width)) for _ in range(5))
    packed = tuple(map(fmatrix._pack, rows))
    P, M = fmatrix.from_packed(F2, packed, width), FqMatrix(F2, rows, width)
    assert P.nrows == M.nrows == 5 and "rows" not in vars(P) and "packed" not in vars(M)
    assert P.rows == rows and M.packed == packed
    assert P == M and hash(P) == hash(M)
    R = rref(M)[0]
    assert "rows" not in vars(R) and R.nrows == len(R.packed) and R == _rref_by_tables(M)[0]


@pytest.mark.parametrize("width", PACKED_WIDTHS)
def test_pack_round_trips_with_column_0_as_the_top_bit(width):
    rng = random.Random(width)
    rows = [(0,) * width, (1,) * width] + [tuple(rng.randrange(2) for _ in range(width)) for _ in range(50)]
    for row in rows:
        assert fmatrix._unpack(fmatrix._pack(row), width) == row
    # ints compare as their rows do
    assert sorted(rows, key=fmatrix._pack) == sorted(rows)
    if width:
        assert fmatrix._pack((1,) + (0,) * (width - 1)) == 1 << (width - 1)


def _reduce_by_tables(R, pivots, v):
    """`reduce_against` through the add and mul tables, as for any q: the
    reference for the packed GF(2) reduction."""
    add, mul, neg, _ = R.field.tables()
    v = list(v)
    for row, c in zip(R.rows, pivots):
        if v[c]:
            m = mul[neg[v[c]]]
            v = [add[x][m[y]] for x, y in zip(v, row)]
    return tuple(v)


@pytest.mark.parametrize("width", PACKED_WIDTHS)
def test_gf2_packed_membership_matches_the_table_reduction(width):
    """in_span, reduce_against and is_subcode XOR packed rows; they must
    agree with the table reduction and with ranks, for members (sums of
    basis rows) and non-members alike.  in_span takes a row's packed int
    as well."""
    rng = random.Random(width)
    for r in (0, 1, width // 3, width):
        A = linear_code(F2, [[int(rng.random() < 0.4) for _ in range(width)] for _ in range(r)], n=width)
        R, _, piv = rref(A.basis)
        assert R.packed == tuple(map(fmatrix._pack, R.rows))  # kept from the elimination
        members = [tuple(sum(col) % 2 for col in zip((0,) * width, *rng.sample(R.rows, rng.randrange(R.nrows + 1))))
                   for _ in range(8)]
        others = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(20)]
        for v in members + others:
            residue = _reduce_by_tables(R, piv, v)
            assert reduce_against(R, v) == residue
            assert in_span(R, v) == in_span(R, fmatrix._pack(v)) == (not any(residue))
        assert all(in_span(R, v) for v in members)
        assert A.k_dim == width or not all(in_span(R, v) for v in others)
        for k in (1, 2, 3):
            B = linear_code(F2, rng.sample(members + others, k), n=width)
            assert is_subcode(B, A) == (_rref_by_tables(matrix(F2, R.rows + B.basis.rows, width))[1] == A.k_dim)
        assert is_subcode(linear_code(F2, members, n=width), A)


# the fields with a golden digest, and GF(49)
RREF_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 243, 256)


@pytest.mark.parametrize("q", RREF_FIELDS)
def test_rref_of_canonical_input_is_that_input(q):
    """rref's output and a kernel record their pivots: rref returns each
    as it is, with the same pivots.  An identity comes back equal."""
    field = field_of_order(q)
    rng = random.Random(q)
    for r, c in ((1, 1), (3, 7), (6, 4), (8, 16)):
        M = random_matrix(field, r, c, rng)
        R, rk, piv = rref(M)
        assert rref(R) == (R, rk, piv) == _rref_by_tables(R)
        assert rref(R)[0] is R
        K = kernel(M)
        assert rref(K)[0] is K and rref(K) == _rref_by_tables(K)
    I = identity(field, 5)
    assert rref(I) == (I, 5, (0, 1, 2, 3, 4))


@pytest.mark.parametrize("q", RREF_FIELDS)
def test_rref_reduces_near_canonical_input(q):
    """Inputs one defect away from rref take the full reduction and come
    out as the table elimination gives; no rows and no columns are their
    own rref."""
    field = field_of_order(q)
    near = [
        ((1, 0, 1), (0, 1, 1), (0, 0, 0)),  # a zero row
        ((1, 1, 0), (0, 1, 0)),  # a second nonzero in pivot column 1
        ((1, 0, 0), (1, 0, 1)),  # ... in pivot column 0, below its pivot
        ((0, 1, 0), (1, 0, 0)),  # falling pivots
        ((0, 0, 1), (0, 0, 1)),  # a repeated pivot
        ((0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ]
    if q > 2:
        near.append(((q - 1, 0, 1), (0, 1, 1)))  # a leading entry other than 1
        near.append(((1, q - 1, 0), (0, 1, 0)))
    for rows in near:
        M = matrix(field, rows)
        assert rref(M) == _rref_by_tables(M)
    for M in (matrix(field, [], 3), matrix(field, [(), ()], 0), matrix(field, [()], 0)):
        assert rref(M)[1:] == _rref_by_tables(M)[1:] == (0, ())
        assert rref(M)[0].rows == ()


def _assert_rref_with(X, pivots):
    """X is in rref with these pivots: each row leads with 1 at its pivot,
    the pivots rise, and each pivot column is zero in every other row."""
    assert len(pivots) == X.nrows and list(pivots) == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(X.rows, pivots)):
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for j, other in enumerate(X.rows) if j != i)


@pytest.mark.parametrize("q", RREF_FIELDS)
def test_rref_and_kernel_results_record_their_pivots(q):
    """Every matrix rref and kernel return is in rref with the pivots rref
    reads back from it, and rref returns it as the same object: full-rank,
    rank-deficient and zero inputs, so some kernels are empty or full."""
    field = field_of_order(q)
    rng = random.Random(q)
    for r, c in ((1, 1), (2, 5), (4, 4), (6, 3), (5, 9), (8, 16)):
        k = rng.randrange(1, min(r, c) + 1)
        for M in (random_matrix(field, r, c, rng),
                  matmul(random_matrix(field, r, k, rng), random_matrix(field, k, c, rng)),
                  zeros(field, r, c)):
            for X in (rref(M)[0], kernel(M)):
                R, rk, piv = rref(X)
                assert R is X and rk == X.nrows
                _assert_rref_with(X, piv)


@pytest.mark.parametrize("q", RREF_FIELDS)
def test_rref_reduces_a_hand_built_canonical_matrix(q):
    """A matrix that rref and kernel did not make is reduced even when it
    is canonical: an identity, or a code's basis written out row by row,
    comes back equal as a new matrix that records its pivots."""
    field = field_of_order(q)
    C = linear_code(field, random_matrix(field, 3, 6, random.Random(q)))
    for M in (identity(field, 5), matrix(field, C.basis.rows, 6)):
        R, rk, piv = rref(M)
        assert R == M and R is not M and (rk, piv) == _rref_by_tables(M)[1:]
        assert rref(R)[0] is R


@pytest.mark.parametrize("q", RREF_FIELDS)
def test_membership_reduces_a_basis_not_in_rref(q):
    """in_span, reduce_against and rows_in_span on a matrix not in rref (a
    zero row on top of a product's rows) answer as on its rref, for members
    and non-members alike."""
    field = field_of_order(q)
    rng = random.Random(q)
    for r, c in ((1, 3), (3, 7), (5, 6)):
        M = matmul(random_matrix(field, r, r, rng), random_matrix(field, r, c, rng))
        M = matrix(field, ((0,) * c,) + M.rows, c)
        R, rk, piv = rref(M)
        members = [matmul(random_matrix(field, 1, M.nrows, rng), M).rows[0] for _ in range(5)]
        others = [random_matrix(field, 1, c, rng).rows[0] for _ in range(10)]
        for v in members + others:
            residue = _reduce_by_tables(R, piv, v)
            assert reduce_against(M, v) == reduce_against(R, v) == residue
            assert in_span(M, v) == in_span(R, v) == (not any(residue))
        assert all(in_span(M, v) for v in members)
        for B in (matrix(field, members, c), matrix(field, members + others[:1], c)):
            spanned = _rref_by_tables(matrix(field, R.rows + B.rows, c))[1] == rk
            assert rows_in_span(M, B) == rows_in_span(R, B) == spanned
        assert rows_in_span(M, matrix(field, members, c))


def test_hand_built_matrix_is_checked_where_it_is_made():
    """LinearCode takes an FqMatrix over its base field as it is, so the
    range check lives in FqMatrix itself, with matrix()'s wording."""
    with pytest.raises(BadRange, match=r"entry 5 is not an element of GF\(4\) \(expected 0..3\)"):
        linear_code(F4, FqMatrix(F4, ((1, 0), (5, 7)), 2))
    with pytest.raises(BadRange, match="entry -1 "):
        linear_code(F2, FqMatrix(F2, ((1, -1),), 2))
    with pytest.raises(BadRange, match="entry 2 "):
        symplectic_code(F2, FqMatrix(F2, ((0, 1, 2, 0),), 4))
    M = FqMatrix(F4, ((0, 1), (1, 0)), 2)
    C = linear_code(F4, M)
    assert C.basis.rows == ((1, 0), (0, 1)) and rref(C.basis)[2] == (0, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="matmul"):
        matmul(matrix(F2, [(1, 0)]), matrix(F2, [(1, 0, 0)]))
    with pytest.raises(DimensionMismatch, match="ragged"):
        FqMatrix(F2, ((1, 0), (1, 0, 0)), 2)
    with pytest.raises(DimensionMismatch, match="length required"):
        symplectic_code(F2, [])
    with pytest.raises(DimensionMismatch, match="ambient"):
        is_subcode(linear_code(F2, [(1, 0)]), linear_code(F2, [(1, 0, 0)]))
    # packed, (0, 1, 0, 0) would carry the bit of row (1, 0, 0)'s pivot
    for field in (F2, F4):
        R = rref(matrix(field, [(1, 0, 0)]))[0]
        with pytest.raises(DimensionMismatch, match="length 2 against a basis of 3 columns"):
            rows_in_span(R, matrix(field, [(1, 0)]))
        for v in ((0, 1, 0, 0), (1, 0)):
            with pytest.raises(DimensionMismatch, match=f"length {len(v)} against a basis of 3 columns"):
                in_span(R, v)
            with pytest.raises(DimensionMismatch, match=f"length {len(v)} against"):
                reduce_against(R, v)


def test_matrix_rejects_entry_above_field():
    # 5 and 7 are not elements of GF(4); reducing them mod 4 would turn
    # the rows into (1, 0), (0, 3) of a different code
    with pytest.raises(BadRange, match="entry 5"):
        linear_code(F4, [(5, 0), (0, 7)])
    with pytest.raises(BadRange, match="entry 5"):
        additive_code(F4, [(5, 0, 1)])
    with pytest.raises(BadRange, match="entry 2"):
        matrix(F2, [(1, 0), (0, 2)])
    assert matrix(F4, [(3, 0), (0, 1)]).rows == ((3, 0), (0, 1))


def test_matrix_rejects_negative_entry():
    with pytest.raises(BadRange, match="entry -1"):
        matrix(F2, [(1, -1)])
    with pytest.raises(BadRange, match="entry -3"):
        linear_code(field_of_order(9), [(1, 0, -3)])


def test_matmul_and_transpose():
    A = matrix(F4, [(1, 2), (3, 1)])
    I = identity(F4, 2)
    assert matmul(A, I).rows == A.rows
    assert transpose(transpose(A)).rows == A.rows


# sha256 of every output of `golden_outputs(q)`.  The outputs were first
# pinned before the GF(q) elimination moved from per-entry Field calls to
# reading table rows; these digests were recomputed, without the outputs
# of the since-removed span intersection, by code that still met that pin
GOLDEN = {
    2: "06827bd6a94801381b54d1d2cb9a19400f7a498705d39a9a6779dbddaf92e0d7",
    3: "bda0a3ae54eab69292fd5f0dc8a5a3a4678e464a0eec338d24384657bae4d54a",
    4: "97e0e64e9c40f4d7710345512feb9c638ef0d5796c81518c4f8bfb5158a92a6d",
    5: "8cd8bed74b8bc4a4d34eeca0d7a843dd60d427a8733bb4cf2f5b897ae64eaead",
    7: "7bf7afe8592660eb9fcefb2ec9c5da04d254f963b57a205d30df83cb2b627cdc",
    8: "50c1b7f6e67307370faf33a8a9eff43aed96654720b43581e99238b6e9667537",
    9: "60089f68324a44dcbd02f8d564f511a5bc232cb37f7646a3c1c4308b6408d2bf",
    16: "c1baf6fb860dc76940a2a5a9036b353e4f95a282f58528719210fdd3fccb02e8",
    25: "2df524784c796c137d10a7f45ed841b8cedb5e226395ca6e8ce2197e683def58",
    27: "f97ccac58505f8743f301f54f32f7424c2037d81bfad62bc5454e58c402ef1ff",
    243: "12bcb4c86c88c38e97847d3139a8f4b24ce1588a90149b62bfc7ba02f2564997",
    256: "4d6e65d5dd5a616372ea9602f3d709713b1ac26f8da0d5230d9edf6df9cb954e",
}
GOLDEN_SHAPES = ((1, 1), (1, 6), (3, 3), (4, 9), (9, 4), (8, 16), (16, 32), (32, 64))


def golden_outputs(q):
    """rref, kernel, reduce_against, in_span and matmul on seeded
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
                out.append((reduce_against(R, v), in_span(R, v)))
            out.append(matmul(M, random_matrix(field, c, max(1, c // 3), rng)).rows)
    return out


@pytest.mark.parametrize("q", sorted(GOLDEN))
def test_gfq_linear_algebra_golden(q):
    got = hashlib.sha256(repr(golden_outputs(q)).encode()).hexdigest()
    assert got == GOLDEN[q]
