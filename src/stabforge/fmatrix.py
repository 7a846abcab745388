"""Row-reduction, kernels, span membership and products over GF(q).

Matrices are immutable row tuples of integer residues.  GF(2) elimination
runs on machine-word bitsets, one int per row.  This module owns the one
bit order of a packed GF(2) row: column 0 is the top bit, so ints compare
as their rows do.  `_pack` and `_unpack` convert, and the minimum-weight
walk in `code` and the dense oracle in `statevec` read the same order.
Other fields read rows of the field's add and mul tables, so scaling a row
or subtracting a multiple of one is one list comprehension of lookups.
Sizes here are small; the heavy enumeration loops live in `code`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadRange, DimensionMismatch
from .gf import Field


@dataclass(frozen=True)
class FqMatrix:
    field: Field
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def matrix(field: Field, rows, ncols: int | None = None) -> FqMatrix:
    rows = tuple(tuple(map(int, r)) for r in rows)
    bad = next((x for r in rows for x in r if not 0 <= x < field.q), None)
    if bad is not None:
        raise BadRange(f"matrix entry {bad} is not an element of GF({field.q}) (expected 0..{field.q - 1})")
    if ncols is None:
        if not rows:
            raise DimensionMismatch("cannot infer column count of an empty matrix")
        ncols = len(rows[0])
    return FqMatrix(field, rows, ncols)


def identity(field: Field, n: int) -> FqMatrix:
    return FqMatrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def zeros(field: Field, r: int, c: int) -> FqMatrix:
    return FqMatrix(field, tuple((0,) * c for _ in range(r)), c)


# the bytes 0 and 1 to the characters "0" and "1", and back
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pack(row) -> int:
    """The int of a 0/1 row, column 0 as its top bit."""
    return int(bytes(row).translate(_BIT_CHARS) or b"0", 2)


def _unpack(v: int, ncols: int) -> tuple[int, ...]:
    """The `ncols` bits of v as a 0/1 row, its top bit first."""
    return tuple(format(v, f"0{ncols}b").encode().translate(_BIT_BYTES)) if ncols else ()


def _rref_gf2(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    mat = rows[:]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        bit = 1 << (ncols - 1 - c)
        pivot = next((i for i in range(r, len(mat)) if mat[i] & bit), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i] & bit:
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _rref_gfq(field: Field, mat: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    add, mul, neg, inv = field.tables()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if mat[r][c] != 1:
            s = mul[inv[mat[r][c]]]
            mat[r] = [s[x] for x in mat[r]]
        row = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                m = mul[neg[mat[i][c]]]
                mat[i] = [add[x][m[y]] for x, y in zip(mat[i], row)]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rref(M: FqMatrix) -> tuple[FqMatrix, int, tuple[int, ...]]:
    """Canonical reduced row echelon form: (R, rank, pivot columns)."""
    if M.field.q == 2:
        packed, pivots = _rref_gf2([_pack(r) for r in M.rows], M.ncols)
        rows = tuple(_unpack(v, M.ncols) for v in packed)
    else:
        reduced, pivots = _rref_gfq(M.field, [list(r) for r in M.rows], M.ncols)
        rows = tuple(tuple(r) for r in reduced)
    return FqMatrix(M.field, rows, M.ncols), len(pivots), tuple(pivots)


def rank(M: FqMatrix) -> int:
    return rref(M)[1]


def reduce_against(R: FqMatrix, pivots: tuple[int, ...], v) -> tuple[int, ...]:
    """Residual of v after elimination by an rref basis; zero iff in span."""
    add, mul, neg, _ = R.field.tables()
    v = list(v)
    for row, c in zip(R.rows, pivots):
        if v[c]:
            m = mul[neg[v[c]]]
            v = [add[x][m[y]] for x, y in zip(v, row)]
    return tuple(v)


def in_span(R: FqMatrix, pivots: tuple[int, ...], v) -> bool:
    return not any(reduce_against(R, pivots, v))


def kernel(M: FqMatrix) -> FqMatrix:
    """Basis rows of the right null space, in canonical rref, from one
    reduction: M is reduced with its columns reversed, so a pivot row
    vanishes left of its pivot.  Free column f's null vector, 1 at f and
    minus the pivot rows' entries at f on their pivots, is then zero left
    of f and at every other free column: listed by f, already the rref."""
    neg = M.field.tables()[2]
    n = M.ncols
    R, _, pivots = rref(FqMatrix(M.field, tuple(r[::-1] for r in M.rows), n))
    pivot_set = set(pivots)
    basis = []
    for fc in reversed(range(n)):  # reversed columns: original order ascending
        if fc in pivot_set:
            continue
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(R.rows, pivots):
            v[pc] = neg[row[fc]]
        basis.append(tuple(v[::-1]))
    return FqMatrix(M.field, tuple(basis), n)


def transpose(M: FqMatrix) -> FqMatrix:
    if not M.rows:
        return zeros(M.field, M.ncols, 0)
    return FqMatrix(M.field, tuple(zip(*M.rows)), M.nrows)


def matmul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    if A.field is not B.field or A.ncols != B.nrows:
        raise DimensionMismatch("matmul shape/field mismatch")
    f = A.field
    cols = list(zip(*B.rows)) if B.rows else [()] * B.ncols
    rows = tuple(tuple(f.dot(r, c) for c in cols) for r in A.rows)
    return FqMatrix(f, rows, B.ncols)


def entrywise_frob(M: FqMatrix, k: int = 1) -> FqMatrix:
    f = M.field
    image = [f.frob(x, k) for x in f.elements()]
    return FqMatrix(f, tuple(tuple(image[x] for x in r) for r in M.rows), M.ncols)
