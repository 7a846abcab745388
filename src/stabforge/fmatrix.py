"""Row-reduction, kernels, span membership and products over GF(q).

Matrices are immutable row tuples of integer residues.  An `FqMatrix`
checks the range of its entries where it is made, so `code` takes one over
the right field as it is; a reduction's result, in range by construction,
skips the check.  `rref` and `kernel` record the pivots of what they
return; `rref` returns such a matrix as it is and reduces any other one.
GF(2) elimination runs on machine-word bitsets, one int per row.  This
module owns the one bit order of a packed GF(2) row: column 0 is the top
bit, so ints compare as their rows do.  `_pack` and `_unpack` convert, and
the minimum-weight walk in `code` and the dense oracle in `statevec` read
the same order.  A GF(2) matrix has two forms, its symbol `rows` and its
packed rows, `packed`; it keeps the form it was made in and derives the
other from it on first read.  A matrix made from rows packs them when
`packed` is first read; one made from ints (`from_packed`, and the
results of GF(2) `rref` and `kernel`, which keep the ints of their
elimination) spells its rows only when `rows` is first read, and `nrows`
counts either form.  Membership XORs the packed ints, one basis row per
pivot bit the word sets.  A GF(2) kernel is built on R = rref(M)'s packed
rows: free column f's null vector is bit f plus the pivot bit of each row
of R that sets bit f, and the vectors are reduced as ints.
Other fields read rows of the field's add and mul tables, so scaling a row
or subtracting a multiple of one is one list comprehension of lookups.
Sizes here are small; the heavy enumeration loops live in `code`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import BadRange, DimensionMismatch
from .gf import Field


@dataclass(frozen=True)
class FqMatrix:
    field: Field
    rows: tuple[tuple[int, ...], ...]
    ncols: int
    _pivots = None  # a reduction's result records its pivot columns here

    def __post_init__(self):
        values = set(chain.from_iterable(self.rows))
        q = self.field.q
        if values and (min(values) < 0 or max(values) >= q):
            bad = next(x for x in chain.from_iterable(self.rows) if not 0 <= x < q)
            raise BadRange(f"matrix entry {bad} is not an element of GF({q}) (expected 0..{q - 1})")
        if not set(map(len, self.rows)) <= {self.ncols}:
            raise DimensionMismatch("ragged rows")

    def __getattr__(self, name):
        """`rows` of a GF(2) matrix made from packed ints: spelled from them
        on first read, and kept."""
        if name != "rows" or "packed" not in self.__dict__:
            raise AttributeError(name)
        rows = self.__dict__["rows"] = tuple(_unpack(v, self.ncols) for v in self.packed)
        return rows

    @property
    def nrows(self) -> int:
        """The number of rows, counted in whichever form the matrix has."""
        return len(self.__dict__["rows" if "rows" in self.__dict__ else "packed"])

    def __iter__(self):
        return iter(self.rows)

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The GF(2) rows as ints in `_pack`'s order, packed on first read
        unless the matrix was made from them."""
        return tuple(map(_pack, self.rows))

    @cached_property
    def _pivot_rows(self) -> tuple[int, dict[int, int]]:
        """For a GF(2) matrix in rref: the mask of its pivot bits, and each
        packed row by its pivot bit, the row's top bit."""
        rows = {1 << (r.bit_length() - 1): r for r in self.packed}
        return sum(rows), rows


def _trusted(field: Field, ncols: int, **known) -> FqMatrix:
    """A reduction's result, made without `FqMatrix`'s check: its rows are
    in range and of length ncols by construction.  `known` sets what the
    reduction knows of it: its `rows` or, over GF(2), its `packed` rows
    (the other form is derived on first read), and `_pivots`, its pivot
    columns if it is in rref."""
    M = object.__new__(FqMatrix)
    M.__dict__.update(field=field, ncols=ncols, **known)
    return M


def matrix(field: Field, rows, ncols: int | None = None) -> FqMatrix:
    """The rows as an `FqMatrix` over `field`; one already over `field`, and
    `ncols` wide if that is given, is returned as it is."""
    if isinstance(rows, FqMatrix) and rows.field is field and ncols in (None, rows.ncols):
        return rows
    rows = tuple(tuple(map(int, r)) for r in rows)
    if ncols is None:
        if not rows:
            raise DimensionMismatch("length required for a matrix with no rows")
        ncols = len(rows[0])
    return FqMatrix(field, rows, ncols)


def identity(field: Field, n: int) -> FqMatrix:
    return FqMatrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def zeros(field: Field, r: int, c: int) -> FqMatrix:
    return FqMatrix(field, tuple((0,) * c for _ in range(r)), c)


# the bytes 0 and 1 to the characters "0" and "1", and back
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def from_packed(field: Field, packed, ncols: int) -> FqMatrix:
    """The GF(2) matrix of rows packed as ints in `_pack`'s order."""
    packed = tuple(packed)
    if field.q != 2:
        raise BadRange(f"packed rows are GF(2) rows, not GF({field.q}) rows")
    if packed and (min(packed) < 0 or max(packed) >> ncols):
        raise BadRange(f"a packed row is not a row of {ncols} bits")
    return _trusted(field, ncols, packed=packed)


def _pack(row) -> int:
    """The int of a 0/1 row, column 0 as its top bit."""
    return int(bytes(row).translate(_BIT_CHARS) or b"0", 2)


def _unpack(v: int, ncols: int) -> tuple[int, ...]:
    """The `ncols` bits of v as a 0/1 row, its top bit first."""
    return tuple(format(v, f"0{ncols}b").encode().translate(_BIT_BYTES)) if ncols else ()


def _reduce_gf2(x: int, mask: int, rows: dict[int, int]) -> int:
    """Packed x less the row of each pivot bit it sets.  `rows` maps each
    bit of `mask` to a row whose only bit in `mask` it is, so the bits to
    clear are read off x once; the result is zero iff x is in their span."""
    y = x & mask
    while y:
        low = y & -y
        x ^= rows[low]
        y ^= low
    return x


def _rref_gf2(rows: tuple[int, ...], ncols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each row, reduced by the basis so far, adds its top bit as a pivot
    and clears that bit from the earlier rows.  Sorted, the rows are in
    rref: column 0 is the top bit, so each row sorts by its pivot."""
    basis: dict[int, int] = {}
    mask = 0
    for x in rows:
        x = _reduce_gf2(x, mask, basis)
        if x:
            top = 1 << (x.bit_length() - 1)
            for b, r in basis.items():
                if r & top:
                    basis[b] = r ^ x
            basis[top] = x
            mask |= top
    packed = tuple(sorted(basis.values(), reverse=True))
    return packed, tuple(ncols - r.bit_length() for r in packed)


def _rref_gfq(field: Field, mat: list[list[int]], ncols: int) -> tuple[list[list[int]], tuple[int, ...]]:
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
    return mat[:r], tuple(pivots)


def rref(M: FqMatrix) -> tuple[FqMatrix, int, tuple[int, ...]]:
    """Canonical reduced row echelon form: (R, rank, pivot columns).
    The result of `rref` or `kernel` records its pivots and is returned as
    it is; any other matrix is reduced, canonical or not."""
    pivots = M._pivots
    if pivots is not None:
        return M, len(pivots), pivots
    if M.field.q == 2:
        packed, pivots = _rref_gf2(M.packed, M.ncols)
        return _trusted(M.field, M.ncols, packed=packed, _pivots=pivots), len(pivots), pivots
    reduced, pivots = _rref_gfq(M.field, [list(r) for r in M.rows], M.ncols)
    return _trusted(M.field, M.ncols, rows=tuple(map(tuple, reduced)), _pivots=pivots), len(pivots), pivots


def rank(M: FqMatrix) -> int:
    return rref(M)[1]


def _check_width(R: FqMatrix, width: int):
    if width != R.ncols:
        raise DimensionMismatch(f"word of length {width} against a basis of {R.ncols} columns")


def reduce_against(R: FqMatrix, v) -> tuple[int, ...]:
    """Residual of v after elimination by the rref of R; zero iff in span."""
    R, _, pivots = rref(R)
    _check_width(R, len(v))
    if R.field.q == 2:
        return _unpack(_reduce_gf2(_pack(v), *R._pivot_rows), R.ncols)
    add, mul, neg, _ = R.field.tables()
    v = list(v)
    for row, c in zip(R.rows, pivots):
        if v[c]:
            m = mul[neg[v[c]]]
            v = [add[x][m[y]] for x, y in zip(v, row)]
    return tuple(v)


def in_span(R: FqMatrix, v) -> bool:
    """Whether v lies in the row space of R.  Over GF(2) v may be a row or
    its packed int, which is reduced as it is."""
    if R.field.q == 2:
        R = rref(R)[0]
        if not isinstance(v, int):
            _check_width(R, len(v))
            v = _pack(v)
        return not _reduce_gf2(v, *R._pivot_rows)
    return not any(reduce_against(R, v))


def rows_in_span(R: FqMatrix, B: FqMatrix) -> bool:
    """Whether every row of B lies in the row space of R (over GF(2), by B's packed rows)."""
    R = rref(R)[0]
    _check_width(R, B.ncols)
    if R.field.q == 2:
        mask, rows = R._pivot_rows
        return not any(_reduce_gf2(x, mask, rows) for x in B.packed)
    return all(in_span(R, r) for r in B.rows)


def kernel(M: FqMatrix) -> FqMatrix:
    """Basis rows of the right null space, in canonical rref, with the
    pivots it records.

    Over GF(2) it reads the packed rows of R = rref(M): the null vector of
    free column f is bit f plus the pivot bit of each row of R that sets
    bit f, and `_rref_gf2` reduces those vectors.  Over other fields M is
    reduced with its columns reversed, so a pivot row vanishes left of its
    pivot.  Free column f's null vector, 1 at f and minus the pivot rows'
    entries at f on their pivots, is then zero left of f and at every other
    free column: listed by f, already the rref, with the free columns as
    its pivots."""
    n = M.ncols
    if M.field.q == 2:
        pivot_mask, rows = rref(M)[0]._pivot_rows
        free = [f for f in (1 << c for c in range(n)) if not f & pivot_mask]
        packed, pivots = _rref_gf2(tuple(f | sum(b for b, r in rows.items() if r & f) for f in free), n)
        return _trusted(M.field, n, packed=packed, _pivots=pivots)
    neg = M.field.tables()[2]
    R, _, pivots = rref(_trusted(M.field, n, rows=tuple(r[::-1] for r in M.rows)))
    free = sorted(set(range(n)) - set(pivots), reverse=True)  # original order ascending
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(R.rows, pivots):
            v[pc] = neg[row[fc]]
        basis.append(tuple(v[::-1]))
    return _trusted(M.field, n, rows=tuple(basis), _pivots=tuple(n - 1 - fc for fc in free))


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
