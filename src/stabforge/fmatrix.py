"""Row-reduction, kernels and span intersection over GF(q).

Matrices are immutable row tuples of integer residues.  GF(2) elimination
runs on machine-word bitsets (one int per row, bit j = column j); other
fields read rows of the field's add and mul tables, so scaling a row or
subtracting a multiple of one is one list comprehension of lookups.  Sizes
here are small; the heavy enumeration loops live in `code`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
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
    rows = tuple(tuple(int(x) % field.q for x in r) for r in rows)
    if ncols is None:
        if not rows:
            raise DimensionMismatch("cannot infer column count of an empty matrix")
        ncols = len(rows[0])
    return FqMatrix(field, rows, ncols)


def identity(field: Field, n: int) -> FqMatrix:
    return FqMatrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def zeros(field: Field, r: int, c: int) -> FqMatrix:
    return FqMatrix(field, tuple((0,) * c for _ in range(r)), c)


def _pack(row: tuple[int, ...]) -> int:
    v = 0
    for j, x in enumerate(row):
        if x:
            v |= 1 << j
    return v


def _unpack(v: int, ncols: int) -> tuple[int, ...]:
    return tuple((v >> j) & 1 for j in range(ncols))


def _rref_gf2(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    mat = rows[:]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        bit = 1 << c
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
    """Basis rows of the right null space, in canonical rref."""
    neg = M.field.tables()[2]
    R, rk, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * M.ncols
        v[fc] = 1
        for row, pc in zip(R.rows, pivots):
            v[pc] = neg[row[fc]]
        basis.append(tuple(v))
    K = FqMatrix(M.field, tuple(basis), M.ncols)
    return rref(K)[0]


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


def stack(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    if A.field is not B.field or A.ncols != B.ncols:
        raise DimensionMismatch("stack shape/field mismatch")
    return FqMatrix(A.field, A.rows + B.rows, A.ncols)


def intersect(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    """Basis of the intersection of two row spans."""
    if A.field is not B.field:
        raise DimensionMismatch("spans over different fields")
    if A.ncols != B.ncols:
        raise DimensionMismatch(f"ambient dimensions differ: {A.ncols} vs {B.ncols}")
    f = A.field
    C = stack(A, B)
    # left null space of C: coefficient rows (x | y) with x.A + y.B = 0,
    # so each x.A lies in both spans
    coeffs = kernel(transpose(C))
    ka = A.nrows
    vecs = []
    for cr in coeffs.rows:
        x = cr[:ka]
        vec = tuple(f.dot(x, col) for col in zip(*A.rows)) if A.rows else (0,) * A.ncols
        if any(vec):
            vecs.append(vec)
    if not vecs:
        return zeros(f, 0, A.ncols)
    return rref(FqMatrix(f, tuple(vecs), A.ncols))[0]
