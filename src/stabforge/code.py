"""Classical linear and additive codes over GF(q).

Covers duals and hulls under the Euclidean, Hermitian, trace-Hermitian,
trace-alternating and symplectic pairings, exact minimum-weight search
with an enumeration budget, the coordinate bridge Phi between symplectic
vectors in F_q^{2n} and additive codes in F_{q^2}^n, and the line-oriented
code file format.

A code is one canonical basis over its linearity field, reduced once when
the code is built: rows of F_q^n for a linear code, and Phi-preimage rows
(a|b) in F_q^{2n} for an additive code in F_{q^2}^n, which is F_q-linear
there.  Membership, sums, hulls and minimum weights all read that basis;
a linear code meets an additive one by being viewed as additive.  Under
Phi the trace-alternating form is the symplectic form, and the symplectic
and both trace pairings are one 2 x 2 matrix per qudit on (a|b)
coordinates, so their duals are one kernel.

Minimum weights come from one search over every field (`_search`).  It
walks a code's span in numpy blocks of at most _BLOCK codewords, stored in
the one word layout of each field that `_layout` describes.  A GF(2) code
is packed from the first byte: `parse_code` reads a row of single 0 and 1
tokens straight as its int and packs a row spelled otherwise once it is
checked; reductions, duals, sums and the CSS block (`_stack`) keep the
ints, and a basis spells its symbol rows only when they are read.
The span is walked whole, or by layers of the messages on t groups of
rows, which prove a floor and stop the walk once it is reached; the one
statement of that policy (layers, floors, decided ties, the budget and
target rules, `visited` and the witness) is `_search`'s docstring.
"""

from __future__ import annotations

import codecs
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import fmatrix
from .errors import (
    CodeFileError,
    DimensionMismatch,
    EmptyDifference,
    NotNested,
    OddLength,
    StabforgeError,
    WrongFieldOrder,
    ZeroCode,
)
from .fmatrix import FqMatrix
from .gf import Field, field_make, field_of_order

DEFAULT_BUDGET = 1 << 26
# codewords per numpy block of the minimum-weight search; bounds its memory
_BLOCK = 4096
# spans of at most this many words are walked exhaustively, without layers:
# on a shared 2 vCPU Xeon a whole GF(2) walk of 2^10-2^14 words took 0.1-0.3
# ms, and layers first, which rarely prove such a span, 2-2.5x as long
_SMALL_SPAN = 1 << 14
# what a layered visit is taken to cost, in exhaustive visits; layers take at
# most 1/_LAYERED_COST of a span within the budget before it is walked whole.
# On that Xeon the layers within 1/16 of GF(2) spans of 2^20-2^22 words ran
# 49-114 M visits/s against 229-409 M whole (GF(4) 30 against 197-235), so
# layers that prove nothing add 7-27% to the whole walk; walking every layer
# instead took up to 19x the whole walk (a random [128,20] code)
_LAYERED_COST = 16


def _swar_popcount(x):
    """The set bits of each uint64 of x, by SWAR.  Every shift and mask is a
    uint64: numpy 1.x promotes uint64 mixed with signed integers to float64."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


# numpy >= 2 counts bits natively; the SWAR fallback runs on numpy 1.x
_popcount = getattr(np, "bitwise_count", _swar_popcount)


EXACT = "exact"
LOWER_BOUND = "lower_bound"

LINEAR = "linear"
ADDITIVE = "additive"
SYMPLECTIC = "symplectic"

INNER_PRODUCTS = (
    "euclidean",
    "trace_euclidean",
    "hermitian",
    "trace_hermitian",
    "trace_alternating",
    "symplectic",
)


# ---------------------------------------------------------------------------
# quadratic extensions and the Phi bridge


class QuadExt:
    """GF(q^2) over GF(q) with the fixed basis {1, gamma}, gamma = x.

    Provides the coordinate maps behind Phi: (a|b) in F_q^{2n} maps to
    a + gamma*b in F_{q^2}^n, an isometry from quantum weight to Hamming
    weight.
    """

    def __init__(self, big: Field):
        if big.m % 2:
            raise WrongFieldOrder(f"GF({big.q}) is not of square order")
        self.big = big
        self.sub = field_make(big.p, big.m // 2)
        self.fwd, self.back = big.embedding(self.sub)
        self.gamma = big.p  # the residue of x, as a quadratic extension has m >= 2
        conj_gamma = big.conj(self.gamma)
        if big.sub(self.gamma, conj_gamma) == 0:
            raise WrongFieldOrder("gamma is fixed by conjugation; not a basis generator")
        self._split: dict[int, tuple[int, int]] = {}
        for a in self.sub.elements():
            for b in self.sub.elements():
                v = big.add(self.fwd[a], big.mul(self.gamma, self.fwd[b]))
                self._split[v] = (a, b)
        if len(self._split) != big.q:
            raise RuntimeError("{1, gamma} is not a basis")

    def compose(self, a: int, b: int) -> int:
        """Subfield pair (a, b) -> a + gamma*b in the big field."""
        return self.big.add(self.fwd[a], self.big.mul(self.gamma, self.fwd[b]))

    def split(self, v: int) -> tuple[int, int]:
        """Big-field residue -> its (a, b) coordinates over the subfield."""
        return self._split[v]

    def phi(self, w) -> tuple[int, ...]:
        """(a_1..a_n | b_1..b_n) over F_q  ->  (a_i + gamma b_i) over F_q^2."""
        n = len(w) // 2
        return tuple(self.compose(w[i], w[n + i]) for i in range(n))

    def phi_inv(self, u) -> tuple[int, ...]:
        pairs = [self.split(x) for x in u]
        return tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)


@lru_cache(maxsize=None)
def quad_ext(big: Field) -> QuadExt:
    return QuadExt(big)


# ---------------------------------------------------------------------------
# pairings


def hermitian_pair(f: Field, u, v) -> int:
    """sum u_i v_i^s with s = sqrt(q); requires square order."""
    half = quad_ext(f).sub.m
    acc = 0
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, f.frob(y, half)))
    return acc


def trace_hermitian_pair(f: Field, u, v) -> int:
    """Trace of the Hermitian pairing down to GF(sqrt(q)), as a subfield residue."""
    ext = quad_ext(f)
    return f.trace_to(hermitian_pair(f, u, v), ext.sub)


def trace_alternating_pair(f: Field, u, v) -> int:
    """(u.v^s - u^s.v) / (gamma - gamma^s), a subfield residue.

    The quotient is fixed by conjugation, hence lands in GF(sqrt(q)).
    """
    ext = quad_ext(f)
    half = f.m // 2
    num = 0
    for x, y in zip(u, v):
        num = f.add(num, f.sub(f.mul(x, f.frob(y, half)), f.mul(f.frob(x, half), y)))
    denom = f.sub(ext.gamma, f.frob(ext.gamma, half))
    val = f.div(num, denom)
    return ext.back[val]


def symplectic_pair(f: Field, u, v) -> int:
    """b.a' - b'.a for u = (a|b), v = (a'|b'); zero iff the lifted error
    operators commute."""
    if len(u) % 2 or len(u) != len(v):
        raise OddLength("symplectic pairing needs two vectors of equal even length")
    n = len(u) // 2
    acc = 0
    for i in range(n):
        acc = f.add(acc, f.sub(f.mul(u[n + i], v[i]), f.mul(v[n + i], u[i])))
    return acc


# ---------------------------------------------------------------------------
# code objects


class LinearCode:
    """A linear or additive code, held as one canonical basis.

    `basis` is the rref of the spanning rows over the linearity field:
    F_q^n rows for a linear code, Phi-preimage rows (a|b) in F_r^{2n} for
    an additive code over F_q, r = sqrt(q).  `k_dim` is its rank, the
    dimension over that field.  The constructor is the only place a code
    is reduced, and `basis` is the only matrix a code stores.
    """

    def __init__(self, field: Field, n: int, rows, linearity: str = LINEAR):
        self.field = field
        self.n = n
        self.linearity = linearity
        base, width = (field, n) if linearity == LINEAR else (quad_ext(field).sub, 2 * n)
        # a matrix over the base field was checked where it was made
        self.basis, self.k_dim, _ = fmatrix.rref(fmatrix.matrix(base, rows, width))

    @property
    def gen(self) -> FqMatrix:
        """The basis, or for an additive code its Phi image in F_q^n."""
        if not self.is_additive:
            return self.basis
        ext = quad_ext(self.field)
        return FqMatrix(self.field, tuple(ext.phi(r) for r in self.basis.rows), self.n)

    @property
    def is_additive(self) -> bool:
        return self.linearity == ADDITIVE

    def coords(self, v) -> tuple[int, ...]:
        """A word of the code's ambient space in the columns of `basis`."""
        return quad_ext(self.field).phi_inv(v) if self.is_additive else tuple(v)

    def contains(self, v) -> bool:
        """Whether the word v of F_q^n lies in the code."""
        (v,) = fmatrix.matrix(self.field, [v]).rows  # BadRange unless each entry is in F_q
        if len(v) != self.n:
            raise DimensionMismatch(f"word of length {len(v)} for a code of length {self.n}")
        return fmatrix.in_span(self.basis, self.coords(v))

    @property
    def _key(self) -> tuple:
        """The ambient space and the basis, read as packed ints over GF(2)."""
        B = self.basis
        return id(self.field), self.n, self.linearity, B.packed if B.field.q == 2 else B.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCode) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        f = self.field.q
        if self.is_additive:
            return f"AdditiveCode(GF({f}), n={self.n}, log_size={self.k_dim})"
        return f"LinearCode(GF({f}), [{self.n},{self.k_dim}])"


class SymplecticCode(LinearCode):
    """A linear code in F_q^{2n} whose columns split as (a|b)."""

    def __init__(self, field: Field, n: int, rows):
        if n % 2:
            raise OddLength("symplectic codes need an even number of columns")
        super().__init__(field, n, rows, LINEAR)

    @property
    def half(self) -> int:
        """Number of qudit positions."""
        return self.n // 2

    def is_self_orthogonal(self) -> bool:
        return is_subcode(self, dual(self, "symplectic"))

    def __repr__(self) -> str:
        return f"SymplecticCode(GF({self.field.q}), n={self.half}, dim={self.k_dim})"


def linear_code(field: Field, rows, n: int | None = None) -> LinearCode:
    """Linear code from spanning rows (need not be independent)."""
    M = fmatrix.matrix(field, rows, n)
    return LinearCode(field, M.ncols, M, LINEAR)


def symplectic_code(field: Field, rows, half: int | None = None) -> SymplecticCode:
    """Symplectic code from rows of length 2n over F_q."""
    M = fmatrix.matrix(field, rows, None if half is None else 2 * half)
    return SymplecticCode(field, M.ncols, M)


def additive_code(field: Field, rows, n: int | None = None) -> LinearCode:
    """Additive code over a square-order field from subfield-spanning rows."""
    ext = quad_ext(field)
    M = fmatrix.matrix(field, rows, n)  # entries in range before they are split
    return LinearCode(field, M.ncols, FqMatrix(ext.sub, tuple(map(ext.phi_inv, M.rows)), 2 * M.ncols), ADDITIVE)


def as_additive(C: LinearCode) -> LinearCode:
    """View a linear code over GF(q^2) as an additive code."""
    if C.is_additive:
        return C
    ext = quad_ext(C.field)
    rows = []
    for r in C.basis.rows:
        rows.append(r)
        rows.append(tuple(C.field.mul(ext.gamma, x) for x in r))
    return additive_code(C.field, rows, C.n)


def phi_code(C: SymplecticCode) -> LinearCode:
    """Phi image of a symplectic code: an additive code over GF(q^2)."""
    return LinearCode(field_make(C.field.p, 2 * C.field.m), C.half, C.basis, ADDITIVE)


def phi_inv_code(C: LinearCode) -> SymplecticCode:
    """Phi preimage of an additive (or linear, viewed additively) code."""
    A = as_additive(C)
    return SymplecticCode(A.basis.field, 2 * A.n, A.basis)


def _same_kind(A: LinearCode, B: LinearCode) -> tuple[LinearCode, LinearCode]:
    """Two codes of one ambient space with bases in the same columns: both
    viewed as additive codes when either one is."""
    if A.field is not B.field or A.n != B.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    if A.linearity != B.linearity:
        return as_additive(A), as_additive(B)
    return A, B


def is_subcode(B: LinearCode, A: LinearCode) -> bool:
    """Whether every generator of B lies in the span of A."""
    A, B = _same_kind(A, B)
    return fmatrix.rows_in_span(A.basis, B.basis)


# ---------------------------------------------------------------------------
# duals and hulls


def dual(C: LinearCode, ip: str) -> LinearCode:
    """Dual code under the named pairing.

    The classical pairings take linear input and kernel its generator
    matrix (entrywise conjugated for Hermitian).  The symplectic pairing on
    F_q^{2n} and the trace pairings on GF(q^2)^n, whose input is viewed as
    additive and whose dual is additive, are one F_q-bilinear form on (a|b)
    coordinates: the sum over qudits of x_i^T P y_i for x_i = (a_i, b_i),
    where P is the 2 x 2 matrix of the scalar pairing at one qudit.  The
    dual is the kernel of the basis rows transformed by P.
    """
    f = C.field
    if ip not in INNER_PRODUCTS:
        raise StabforgeError(f"unknown inner product {ip!r}")
    if ip in ("euclidean", "trace_euclidean", "hermitian"):
        if C.is_additive:
            raise StabforgeError(f"{ip} dual is defined here for linear codes only")
        M = C.basis
        if ip == "hermitian":
            M = fmatrix.entrywise_frob(C.basis, quad_ext(f).sub.m)
        return LinearCode(f, C.n, fmatrix.kernel(M), LINEAR)
    units = ((1, 0), (0, 1))  # 1 and gamma at one qudit, as (a|b)
    if ip == "symplectic":
        if C.is_additive:
            raise StabforgeError("symplectic dual applies to F_q^{2n} codes")
        if C.n % 2:
            raise OddLength(f"symplectic dual needs even length, got {C.n}")
        half, base, B = C.n // 2, f, C.basis
        P = [[symplectic_pair(f, x, y) for y in units] for x in units]
    else:
        ext = quad_ext(f)
        half, base, B = C.n, ext.sub, as_additive(C).basis
        pair = trace_hermitian_pair if ip == "trace_hermitian" else trace_alternating_pair
        P = [[pair(f, ext.phi(x), ext.phi(y)) for y in units] for x in units]
    (p_aa, p_ab), (p_ba, p_bb) = P
    if base.q == 2:
        # packed halves a and b of each row give (a p_aa + b p_ba | a p_ab + b p_bb),
        # (b | a) for the symplectic form
        low = (1 << half) - 1
        halves = ((v >> half, v & low) for v in B.packed)
        constraint = [(a * p_aa ^ b * p_ba) << half | a * p_ab ^ b * p_bb for a, b in halves]
        K = fmatrix.kernel(fmatrix.from_packed(base, constraint, 2 * half))
    else:
        add, mul = base.tables()[:2]
        constraint = []
        for r in B.rows:
            a, b = r[:half], r[half:]
            constraint.append(
                tuple(add[mul[x][p_aa]][mul[y][p_ba]] for x, y in zip(a, b))
                + tuple(add[mul[x][p_ab]][mul[y][p_bb]] for x, y in zip(a, b))
            )
        K = fmatrix.kernel(FqMatrix(base, tuple(constraint), 2 * half))
    if ip == "symplectic":
        return SymplecticCode(f, C.n, K)
    return LinearCode(f, half, K, ADDITIVE)


def hull(C: LinearCode, ip: str) -> LinearCode:
    """C intersected with its dual under the named pairing: every pairing
    here is nondegenerate and reflexive, so C cap C^perp = (C + C^perp)^perp."""
    return dual(sum_code(C, dual(C, ip)), ip)


def sum_code(A: LinearCode, B: LinearCode) -> LinearCode:
    """Span of the union of two codes, additive if either one is."""
    A, B = _same_kind(A, B)
    return LinearCode(A.field, A.n, _stack(A.basis, B.basis), A.linearity)


def _stack(A: FqMatrix, B: FqMatrix, shift: int = 0) -> FqMatrix:
    """The rows of two code bases, A's over B's, shift + B.ncols wide: A's in
    the leading columns, B's moved `shift` columns right, packed over GF(2).
    With B wholly right of A the stack of the two rref bases is in rref, and
    it records its pivots, so it is not reduced again."""
    base, width = A.field, shift + B.ncols
    known = {}
    if shift >= A.ncols:
        known["_pivots"] = A._pivots + tuple(shift + c for c in B._pivots)
    if base.q == 2:  # A's ints move past the columns right of A
        known["packed"] = tuple(v << width - A.ncols for v in A.packed) + B.packed
    else:
        right, left = (0,) * (width - A.ncols), (0,) * shift
        known["rows"] = tuple(r + right for r in A.rows) + tuple(left + r for r in B.rows)
    return fmatrix._trusted(base, width, **known)


# ---------------------------------------------------------------------------
# minimum-weight enumeration


@dataclass(frozen=True)
class DistanceResult:
    """Minimum-weight verdict: exact value or a certified lower bound."""

    value: int
    status: str
    witness: tuple[int, ...] | None = None
    # nonzero words weighed, a layered attempt and the whole-span walk after it both included
    visited: int = 0

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _layout(field: Field, basis: FqMatrix, quantum_half: int):
    """How `_search` stores the words of the span of the rref `basis` over
    `field`: the one part of the walk that depends on the field.  A word is
    a column W of a numpy block, with halves W[:split] and W[split:] (a and
    b for quantum weight; split is 0 for Hamming weight).

    Over GF(2) the column is uint64 limbs, each half packed on its own in
    `fmatrix`'s bit order, its column 0 the top bit of its first limb.  A
    basis row's limbs come from its int in `basis.packed`: each half is
    shifted to end its last limb, and the bytes of all rows are read as
    big-endian uint64 at once.  Words add by XOR and weigh by popcount.  A
    half's padding bits are zero in every word, so the limbs, compared in
    order, compare the symbols in order.  Over any other field the column
    is one uint8 per symbol, added by XOR in characteristic 2 and through
    the add table otherwise, and weighed by its nonzero symbols.

    Returns (mults, split, plus, ones, word, lead, unpack): mults[:, i, c]
    is c times row i; plus adds words as numpy broadcasts; ones(X), X =
    W[:split] | W[split:] (W for split 0), sums over a column to its weight.
    A key, a word's column as a tuple, sorts as its symbols do.  word(key)
    is the word as `fmatrix` reads it, over GF(2) its limbs read back as
    one int with its halves joined; lead(key) is its first nonzero column
    and unpack(key) its symbols.
    """
    k, n = basis.nrows, basis.ncols
    if field.q != 2:
        add_t, mul_t = field.np_tables()
        add_flat, q = add_t.ravel(), field.q
        rows = np.frombuffer(bytes(chain.from_iterable(basis.rows)), dtype=np.uint8).reshape(k, n)

        def plus(a, b):  # a * q + b < q^2 <= 251^2 < 2^16, as no larger odd q is supported
            return add_flat.take(a.astype(np.uint16) * q + b)

        def lead(key):
            return next(c for c, y in enumerate(key) if y)

        # a uint8 symbol's sign is 1 when it is nonzero; a key is its symbols
        return mul_t[rows.T], quantum_half, np.bitwise_xor if field.p == 2 else plus, np.sign, tuple, lead, tuple
    width = quantum_half or n
    per_half = -(-width // 64)
    pad, mask = 64 * per_half - width, (1 << width) - 1
    ints = basis.packed
    if quantum_half:  # the b half starts a limb of its own
        ints = [v >> width << 64 * per_half | v & mask for v in ints]
    nbytes = 8 * per_half * (2 if quantum_half else 1)
    data = b"".join((v << pad).to_bytes(nbytes, "big") for v in ints)
    limbs = np.frombuffer(data, ">u8").reshape(k, -1)
    mults = np.zeros((limbs.shape[1], k, 2), dtype=np.uint64)
    mults[:, :, 1] = limbs.T

    def word(key):
        x = int.from_bytes(np.array(key, ">u8").tobytes(), "big") >> pad
        return x >> 64 * per_half << width | x & mask if quantum_half else x

    def lead(key):
        return n - word(key).bit_length()  # column 0 is an int's top bit

    def unpack(key):
        return fmatrix._unpack(word(key), n)

    return mults, per_half if quantum_half else 0, np.bitwise_xor, _popcount, word, lead, unpack


def _search(C: LinearCode, wfn: str, budget: int, exclude: LinearCode | None, target=None) -> DistanceResult:
    """Minimum `wfn` weight over the nonzero words of C outside B = `exclude`.

    The walk runs over C's enumeration domain (`_weight_domain`): the span
    of its basis rows, B given in the same columns.  `visited` counts the
    nonzero words weighed: a layered attempt and then the exhaustive walk
    both count.  The witness is mapped back to a codeword of C.

    A word is a column of a block of at most _BLOCK words, laid out as
    `_layout` describes; nothing else here depends on the field.  The
    exhaustive walk's blocks add each message of the first rows to every
    word of the span of the last rows, which fills at most a block.

    The layered walk groups the rows by the qudit of their pivot column
    (by the pivot column itself for plain Hamming weight), read from the
    pivots `fmatrix.rref` records, so a group has one or two rows.  The
    other rows vanish on a group's pivot columns, which read the group's
    coefficients, so a message nonzero on t groups touches at least t
    qudits.  Only when a pair's q^2 words would exceed a block (q > 64)
    is every row its own group: a qudit may then hold two, and the bound
    drops to max(ceil(t/2), t - such qudits).  Either way a group's rows
    span at most a block, so its words are one span table less its zero
    word.
    Layer t holds the messages nonzero on exactly t groups,
    e_t(q^|g_1| - 1, q^|g_2| - 1, ...) words.  Table j holds layer j
    ordered by last group.  Layer t is table ceil(t/2) joined with table
    floor(t/2), and table j + 1 is table j joined with table 1: a join adds
    each word of its second table to each word of its first whose last
    group precedes the word's first group, so it makes each message once,
    split into its first ceil(t/2) groups and the rest.  A table holds a
    layer the walk has passed, so tables stay within `visited`.  Once
    layers 1, ..., t - 1 are finished every unvisited word weighs at least
    that bound, the floor: a lightest word found below it is the exact
    distance, and no unvisited word can tie it.  Layers are counted only
    up to the first t with C(g, t) beyond what the layers may take, as
    layer t holds at least C(g, t) words.

    A layer t whose floor equals the best weight so far can only change
    the witness, to a word of that weight with a smaller key.  The key's
    first nonzero column is the pivot of the best word's leading row; a
    word that uses a row before it is nonzero at that row's pivot, where
    the best word is still zero, so its key is larger.  So if fewer than t
    groups hold a row at or after the leading row, every word of layer t
    uses an earlier row: the layer is decided, and it ends the walk with
    the exact distance and the full walk's witness.  That count does not
    depend on t, so every later layer whose floor ties the best word is
    decided too, and a later layer with a higher floor holds no lighter
    word.  A decided layer is not walked, and `visited` does not count it.

    The walk is chosen from counts alone.  A span beyond the budget walks
    layers while they fit it, and stops early once proven; its result is
    the floor of the first unfinished layer as a lower bound, with no
    witness, unless a word below it was found or that layer is decided.
    A span within the budget is walked exhaustively when it has at most
    _SMALL_SPAN words.  A larger one walks layer t while _LAYERED_COST
    times the words walked with layer t is at most the span, and finishes
    with the exhaustive walk if that stops holding first (and the next
    layer is not decided), so layers take at most 1/_LAYERED_COST of the
    span before it.

    A `target` ends the walk before layer t, or before the whole span,
    once floors[t] reaches it, and returns that floor as a lower bound
    (the best word, if layer t is decided): no word lighter than the
    target is left.  A span walked whole from the start ignores it.

    The witness is the lexicographically smallest minimum-weight word
    outside B, whatever order the words are visited in: each block's
    lightest words are lexsorted and tested for exclusion in that order.
    Only words of the best weight or lighter are read, a tie only if its
    first limb or symbol is at most the best word's.  A word is compared
    with the best so far by its key, its column of W; an exclusion test
    reads the key's `word`, and only the witness is spelled (`unpack`).
    """
    field, gen, quantum_half, to_public = _weight_domain(C, wfn)
    q = field.q
    basis, k, pivots = fmatrix.rref(gen)
    n = basis.ncols
    mults, split, plus, ones, word, lead, unpack = _layout(field, basis, quantum_half)
    height = mults.shape[0]
    count = np.uint8 if n < 255 else np.uint16
    best_w, best_v = n + 1, None  # best_v: the witness's key, its column of W as a tuple

    def consider(W):
        nonlocal best_w, best_v
        X = W[:split] | W[split:] if split else W
        wts = ones(X).sum(axis=0, dtype=count)
        live = np.nonzero(wts - 1 < best_w)[0]  # nonzero: 0 - 1 wraps around in the unsigned count
        if best_v is not None and len(live):  # a tie replaces the best word only with a smaller key
            live = live[(wts[live] < best_w) | (W[0, live] <= best_v[0])]
        while len(live):
            lw = wts[live]
            v = lw.min()
            level = W[:, live[lw == v]]
            for i in np.lexsort(level[::-1]):
                key = tuple(level[:, i].tolist())
                if v == best_w and key >= best_v:
                    break
                if exclude is None or not fmatrix.in_span(exclude.basis, word(key)):
                    best_w, best_v = int(v), key
                    return
            live = live[lw > v]

    def blocks(prefixes, table):
        """Every prefix word plus every table word, in blocks."""
        per = max(1, _BLOCK // table.shape[1])
        for P in prefixes:
            for a in range(0, P.shape[1], per):
                yield plus(P[:, a : a + per, None], table[:, None, :]).reshape(height, -1)

    low = 1  # the span of `low` rows fills at most a block
    while q ** (low + 1) <= _BLOCK:
        low += 1

    def span(idx):
        """Every word of the span of the rows idx, in blocks: one table, its
        word 0 the zero word, for at most `low` rows."""
        table = mults[:, idx[-1], :]
        for i in idx[-low:-1]:
            table = plus(mults[:, i, :, None], table[:, None, :]).reshape(height, -1)
        return blocks(span(idx[:-low]), table) if len(idx) > low else [table]

    def result(status, visited):
        witness = None if best_v is None else to_public(unpack(best_v))
        return DistanceResult(best_w, status, witness, visited)

    total = q**k - 1
    if total <= min(budget, _SMALL_SPAN):
        for W in span(range(k)):
            consider(W)
        return result(EXACT, total)

    # rows grouped by the qudit of their pivot, if a pair's q^2 words fit a
    # block; sym[j] holds group j's nonzero words, from its one span table
    qudit = [c % quantum_half for c in pivots] if quantum_half else pivots
    by_group: dict[int, list[int]] = {}
    for i, c in enumerate(qudit):
        by_group.setdefault(c if low > 1 else i, []).append(i)
    groups = list(by_group.values())
    sym = [span(idx)[0][:, 1:] for idx in groups]
    g = len(sym)
    size = np.array([z.shape[1] for z in sym])
    # words the layers may take: the budget, or a share of a span within it
    cap = budget if total > budget else total // _LAYERED_COST
    # layers[t] = e_t(size), the messages on exactly t groups, for t up to the
    # first depth with C(g, t) > cap: layers[t] >= C(g, t), so the walk stops there
    depth = next((t for t in range(1, g + 1) if math.comb(g, t) > cap), g)
    layers = [1] + [0] * depth
    for j, z in enumerate(size.tolist()):
        for t in range(min(j + 1, depth), 0, -1):
            layers[t] += z * layers[t - 1]
    # a message on t groups touches >= floors[t] qudits: t, less the qudits
    # holding two single-row groups, and at least ceil(t/2)
    shared = g - len(set(qudit))
    floors = [max(-(-t // 2), t - shared) for t in range(g + 2)]

    # tables[j]: the words on j groups ordered by last group, with their
    # first and last groups; the empty message starts after every group
    group = np.repeat(np.arange(g), size)
    zero = np.zeros((height, 1), dtype=mults.dtype)
    tables = [(zero, np.array([g]), np.array([-1])), (np.concatenate(sym, axis=1), group, group)]
    by_first = {j: tables[j][:2] for j in (0, 1)}  # j: table j's words and first groups, by first group

    def join(a, b):
        """Each word of table a plus each word of table b whose first group
        follows its last group.  Read in first-group order, table-b word i
        takes a prefix of table a, m[i] words long.  Returns m and the sums
        in that order, in blocks of at most _BLOCK words: the whole table-b
        words from c on that fit a block.  Those that share c's prefix are
        one broadcast add if they fill half the block or all of it, and a
        block of mixed prefixes is one repeat, one take and one add."""
        if b not in by_first:
            T, first, _ = tables[b]
            order = np.argsort(first, kind="stable")
            by_first[b] = T[:, order], first[order]
        H, first = by_first[b]
        L, _, last = tables[a]
        m = np.searchsorted(last, first)
        start = m.cumsum() - m
        ms, ends = m.tolist(), (start + m).tolist()

        def runs():
            c = bisect_right(ms, 0)  # the first table-b word that takes any
            while c < len(ms):
                s = ends[c] - ms[c]
                e = bisect_right(ends, s + _BLOCK, c)  # the table-b words from c that fit a block
                f = max(c + 1, min(e, bisect_right(ms, ms[c], c)))  # those sharing c's prefix, or c
                if f == e or 2 * (ends[f - 1] - s) >= _BLOCK:  # a prefix beyond a block, in parts
                    for j in range(0, ms[c], _BLOCK):
                        yield plus(H[:, c:f, None], L[:, None, j : min(j + _BLOCK, ms[c])]).reshape(height, -1)
                    c = f
                else:
                    at = np.arange(ends[e - 1] - s) - np.repeat(start[c:e] - s, m[c:e])  # in table a
                    yield plus(L.take(at, axis=1), np.repeat(H[:, c:e], m[c:e], axis=1))
                    c = e

        return m, runs()

    def grow():
        """Append the next table: the last one joined with table 1, whose
        words are ordered by their one group, so the sums come by last group."""
        m, runs = join(len(tables) - 1, 1)
        first, group = tables[-1][1], tables[1][1]
        within = np.arange(m.sum()) - np.repeat(m.cumsum() - m, m)  # each sum's table-a word
        tables.append((np.concatenate(list(runs), axis=1), first[within], np.repeat(group, m)))

    def decided(t):
        """Whether layer t holds no word that can replace the best one: it
        ties the floor, and fewer than t groups hold a row at or after the
        best word's leading row, whose pivot is its first nonzero column."""
        if best_w != floors[t]:
            return False
        row = pivots.index(lead(best_v))
        return sum(idx[-1] >= row for idx in groups) < t

    stop = n + 2 if target is None else target  # no floor exceeds g + 1 <= n + 1
    visited, t = 0, 1
    while t <= g and best_w >= floors[t] and floors[t] < stop and visited + layers[t] <= cap and not decided(t):
        while len(tables) <= -(-t // 2):
            grow()
        for W in join(-(-t // 2), t // 2)[1]:
            consider(W)
        visited += layers[t]
        t += 1
    if t > g or best_w < floors[t] or decided(t):
        return result(EXACT, visited)
    if total <= budget and floors[t] < stop:
        for W in span(range(k)):
            consider(W)
        return result(EXACT, visited + total)
    return DistanceResult(floors[t], LOWER_BOUND, None, visited)


def _weight_domain(C: LinearCode, wfn: str):
    """Map a (code, weight) request onto an enumeration domain.

    Returns (field, gen, quantum_half, to_public) where to_public maps a
    domain witness back to a codeword of C.
    """
    if wfn == "quantum":
        if not isinstance(C, SymplecticCode):
            raise StabforgeError("quantum weight needs a symplectic column layout")
        return C.field, C.basis, C.half, lambda v: v
    if wfn != "hamming":
        raise StabforgeError(f"unknown weight function {wfn!r}")
    if C.is_additive:
        ext = quad_ext(C.field)
        return ext.sub, C.basis, C.n, ext.phi
    return C.field, C.basis, 0, lambda v: v


def min_weight(
    C: LinearCode, wfn: str = "hamming", budget: int = DEFAULT_BUDGET, target: int | None = None
) -> DistanceResult:
    """Minimum weight over the nonzero codewords of C.

    With a `target`, the walk also stops once its floor reaches the target,
    and returns that floor as a lower bound: the caller only asks whether
    some word is lighter than the target."""
    if C.k_dim == 0:
        raise ZeroCode("the zero code has no nonzero codeword")
    return _search(C, wfn, budget, None, target)


def min_weight_diff(
    A: LinearCode, B: LinearCode, wfn: str = "hamming", budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """Minimum weight over A minus B, enumerating A and skipping members
    of B (membership tested against the basis of B)."""
    A, B = _same_kind(A, B)
    if not is_subcode(B, A):
        raise NotNested("second code is not a subcode of the first")
    if B.k_dim >= A.k_dim:
        raise EmptyDifference("codes are equal; the difference is empty")
    return _search(A, wfn, budget, B)


def quantum_weight(vec) -> int:
    """Number of qudit positions touched by a symplectic vector (a|b)."""
    n = len(vec) // 2
    return sum(1 for i in range(n) if vec[i] or vec[n + i])


def hamming_weight(vec) -> int:
    return sum(1 for x in vec if x)


# ---------------------------------------------------------------------------
# file format


def code_kind(C: LinearCode) -> tuple[str, int]:
    """The file-format kind of C and its `length` header value."""
    if isinstance(C, SymplecticCode):
        return SYMPLECTIC, C.half
    return C.linearity, C.n


def dump_code(C: LinearCode) -> str:
    kind, length = code_kind(C)
    lines = [f"field GF({C.field.q})", f"length {length}", f"kind {kind}"]
    if kind == ADDITIVE:
        # gamma is pinned by the fixed modulus; recorded for reproducibility
        lines.append(f"# gamma residue {quad_ext(C.field).gamma}")
    lines.append("rows")
    if C.field.q == 2:  # a GF(2) code is linear, and its rows are spelled from their ints
        lines += [" ".join(format(v, f"0{C.n}b")) for v in C.basis.packed]
    else:
        lines += [" ".join(map(str, r)) for r in C.gen.rows]
    return "\n".join(lines) + "\n"


def parse_code(text: str, name: str = "<string>") -> LinearCode:
    field = None
    length = None
    kind = None
    numbered_rows = []
    in_rows = False
    bits = None  # the width of a GF(2) row, once the headers before `rows` give one
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_rows:
            tokens = line.split()
            # a full GF(2) row of single '0' and '1' tokens is read straight as
            # its packed int; any other spelling takes the symbol path, checked below
            if len(tokens) == bits:
                word = "".join(tokens)
                if len(word) == bits and not word.strip("01"):
                    numbered_rows.append((lineno, int(word, 2)))
                    continue
            try:
                numbered_rows.append((lineno, tuple(map(int, tokens))))
            except ValueError:
                raise CodeFileError(f"{name}:{lineno}: row entries must be integers")
            continue
        if line == "rows":
            in_rows = True
            if field is not None and field.q == 2 and length is not None and kind is not None:
                bits = 2 * length if kind == SYMPLECTIC else length
            continue
        key, *values = line.split()
        if key not in ("field", "length", "kind"):
            raise CodeFileError(f"{name}:{lineno}: unrecognized header line {line!r}")
        if key in seen:
            raise CodeFileError(f"{name}:{lineno}: repeated {key!r} header")
        seen.add(key)
        # each header takes exactly one value; a missing or extra one fails its check
        tok = values[0] if len(values) == 1 else ""
        if key == "field":
            if not (tok.startswith("GF(") and tok.endswith(")")):
                raise CodeFileError(f"{name}:{lineno}: expected 'field GF(q)'")
            try:
                field = field_of_order(int(tok[3:-1]))
            except (ValueError, StabforgeError) as e:
                raise CodeFileError(f"{name}:{lineno}: bad field order ({e})")
        elif key == "length":
            try:
                length = int(tok)
            except ValueError:
                length = 0
            if length < 1:
                raise CodeFileError(f"{name}:{lineno}: expected 'length n' with n >= 1")
        else:
            kind, kind_line = tok, lineno
            if kind not in (LINEAR, ADDITIVE, SYMPLECTIC):
                raise CodeFileError(f"{name}:{lineno}: kind must be linear|additive|symplectic")
    if field is None or length is None or kind is None:
        raise CodeFileError(f"{name}: missing field/length/kind header")
    expected = 2 * length if kind == SYMPLECTIC else length
    for i, (lineno, r) in enumerate(numbered_rows, start=1):
        if isinstance(r, int):  # a packed GF(2) row, of `expected` bits as read
            continue
        if len(r) != expected:
            raise CodeFileError(f"{name}:{lineno}: row {i} has {len(r)} entries, expected {expected}")
        if min(r) < 0 or max(r) >= field.q:
            raise CodeFileError(f"{name}:{lineno}: row {i} has entries outside [0, {field.q})")
    if field.q == 2:  # rows of other spellings are packed once checked
        packed = [r if isinstance(r, int) else fmatrix._pack(r) for _, r in numbered_rows]
        rows = fmatrix.from_packed(field, packed, expected)
    else:
        # the rows were checked above; FqMatrix checks them once more, as it is made
        rows = FqMatrix(field, tuple(r for _, r in numbered_rows), expected)
    if kind == SYMPLECTIC:
        return symplectic_code(field, rows, half=length)
    if kind == ADDITIVE:
        if field.m % 2:
            raise CodeFileError(f"{name}:{kind_line}: additive codes need a square-order field")
        return additive_code(field, rows, n=length)
    return linear_code(field, rows, n=length)


def load_code(path) -> LinearCode:
    with open(path, "rb") as fh:
        data = fh.read()
    # a byte-order mark is dropped as bytes, so error offsets below (unlike
    # utf-8-sig's) index `data`; it holds no newline, so lines keep their numbers
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bytes before the bad one decode; the bad byte sits on the last
        # of their lines, counted as parse_code counts them
        lineno = len((data[: e.start].decode("utf-8") + "?").splitlines())
        raise CodeFileError(f"{path}:{lineno}: byte 0x{data[e.start]:02x} is not UTF-8")
    return parse_code(text, name=str(path))


def save_code(C: LinearCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_code(C))


def code_digest(C: LinearCode) -> str:
    """Short content digest of the canonical generator matrix."""
    return hashlib.sha256(dump_code(C).encode()).hexdigest()[:8]
