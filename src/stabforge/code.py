"""Classical linear and additive codes over GF(q).

Covers duals and hulls under the Euclidean, Hermitian, trace-Hermitian,
trace-alternating and symplectic pairings, exact minimum-weight search
with an enumeration budget, the coordinate bridge Phi between symplectic
vectors in F_q^{2n} and additive codes in F_{q^2}^n, and the line-oriented
code file format.

Additive codes (F_q-linear subsets of F_{q^2}^n) are canonicalized and
row-reduced in their Phi-preimage, where they are plain F_q-linear; one
kernel routine then serves every dual.

Minimum weights come from one search over every field (`_search`).  It
walks a code's span in numpy blocks of at most _BLOCK codewords: the whole
span when its q^k - 1 nonzero words fit the budget, otherwise message-
weight layers t = 1, 2, ... for as long as each fits.  Words of unfinished
layers touch at least t pivot columns, so t (ceil(t/2) for quantum weight)
is a proven floor.  A lightest word found below that floor is the exact
distance; otherwise the result is the floor, as a lower bound.  An exact
result's witness is the lexicographically smallest minimum-weight word
(outside the excluded subcode, for a difference), independent of the
order in which the words are visited.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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
        self.gamma = big.x.rep
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


def quad_ext_of(sub: Field) -> QuadExt:
    """The quadratic extension sitting above a base field."""
    return quad_ext(field_make(sub.p, 2 * sub.m))


# ---------------------------------------------------------------------------
# pairings


def hermitian_pair(f: Field, u, v) -> int:
    """sum u_i v_i^s with s = sqrt(q); requires square order."""
    if f.m % 2:
        raise WrongFieldOrder(f"Hermitian pairing needs square order, got GF({f.q})")
    half = f.m // 2
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
    """A linear (or additive-over-the-index-2-subfield) code, held as a
    canonical rref generator matrix.

    For additive codes the canonical form is computed in the Phi-preimage;
    `k_dim` counts dimension over the linearity field (the field itself
    for linear codes, GF(sqrt(q)) for additive ones).
    """

    def __init__(self, field: Field, n: int, gen: FqMatrix, linearity: str = LINEAR):
        self.field = field
        self.n = n
        self.linearity = linearity
        self.gen = gen
        self.k_dim = gen.nrows
        if linearity == LINEAR:
            _, _, self._pivots = fmatrix.rref(gen)
            self._pre = None
        else:
            ext = quad_ext(field)
            pre = fmatrix.matrix(ext.sub, [ext.phi_inv(r) for r in gen.rows], 2 * n)
            self._pre, _, self._pivots = fmatrix.rref(pre)

    @property
    def is_additive(self) -> bool:
        return self.linearity == ADDITIVE

    def contains(self, v) -> bool:
        if self.is_additive:
            ext = quad_ext(self.field)
            return fmatrix.in_span(self._pre, self._pivots, ext.phi_inv(v))
        return fmatrix.in_span(self.gen, self._pivots, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field is other.field
            and self.n == other.n
            and self.linearity == other.linearity
            and self.gen.rows == other.gen.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.n, self.linearity, self.gen.rows))

    def __repr__(self) -> str:
        f = self.field.q
        if self.is_additive:
            return f"AdditiveCode(GF({f}), n={self.n}, log_size={self.k_dim})"
        return f"LinearCode(GF({f}), [{self.n},{self.k_dim}])"


class SymplecticCode(LinearCode):
    """A linear code in F_q^{2n} whose columns split as (a|b)."""

    def __init__(self, field: Field, n: int, gen: FqMatrix):
        if n % 2:
            raise OddLength("symplectic codes need an even number of columns")
        super().__init__(field, n, gen, LINEAR)

    @property
    def half(self) -> int:
        """Number of qudit positions."""
        return self.n // 2

    def self_orthogonality_witness(self) -> tuple[int, int, int] | None:
        """First generator pair with nonzero pairing, or None."""
        rows = self.gen.rows
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                v = symplectic_pair(self.field, rows[i], rows[j])
                if v:
                    return (i, j, v)
        return None

    def is_self_orthogonal(self) -> bool:
        return self.self_orthogonality_witness() is None

    def __repr__(self) -> str:
        return f"SymplecticCode(GF({self.field.q}), n={self.half}, dim={self.k_dim})"


def linear_code(field: Field, rows, n: int | None = None) -> LinearCode:
    """Linear code from spanning rows (need not be independent)."""
    if n is None:
        rows = list(rows)
        if not rows:
            raise DimensionMismatch("length required for a code with no generators")
        n = len(rows[0])
    M = fmatrix.matrix(field, rows, n)
    R, _, _ = fmatrix.rref(M)
    return LinearCode(field, n, R, LINEAR)


def symplectic_code(field: Field, rows, half: int | None = None) -> SymplecticCode:
    """Symplectic code from rows of length 2n over F_q."""
    rows = list(rows)
    if half is None:
        if not rows:
            raise DimensionMismatch("qudit count required for an empty symplectic code")
        if len(rows[0]) % 2:
            raise OddLength("symplectic rows must have even length")
        half = len(rows[0]) // 2
    M = fmatrix.matrix(field, rows, 2 * half)
    R, _, _ = fmatrix.rref(M)
    return SymplecticCode(field, 2 * half, R)


def additive_code(field: Field, rows, n: int | None = None) -> LinearCode:
    """Additive code over a square-order field from subfield-spanning rows."""
    ext = quad_ext(field)
    rows = list(rows)
    if n is None:
        if not rows:
            raise DimensionMismatch("length required for a code with no generators")
        n = len(rows[0])
    pre = fmatrix.matrix(ext.sub, [ext.phi_inv(tuple(int(x) for x in r)) for r in rows], 2 * n)
    R, _, _ = fmatrix.rref(pre)
    fwd = fmatrix.matrix(field, [ext.phi(r) for r in R.rows], n) if R.rows else fmatrix.zeros(field, 0, n)
    return LinearCode(field, n, fwd, ADDITIVE)


def as_additive(C: LinearCode) -> LinearCode:
    """View a linear code over GF(q^2) as an additive code."""
    if C.is_additive:
        return C
    ext = quad_ext(C.field)
    rows = []
    for r in C.gen.rows:
        rows.append(r)
        rows.append(tuple(C.field.mul(ext.gamma, x) for x in r))
    return additive_code(C.field, rows, C.n)


def phi_code(C: SymplecticCode) -> LinearCode:
    """Phi image of a symplectic code: an additive code over GF(q^2)."""
    ext = quad_ext_of(C.field)
    rows = [ext.phi(r) for r in C.gen.rows]
    return additive_code(ext.big, rows, C.half)


def phi_inv_code(C: LinearCode) -> SymplecticCode:
    """Phi preimage of an additive (or linear, viewed additively) code."""
    A = as_additive(C)
    return SymplecticCode(quad_ext(A.field).sub, 2 * A.n, A._pre)


def phi_map(x, field: Field | None = None):
    """Phi on a symplectic code, or on an (a|b) vector given the target
    square-order field."""
    if isinstance(x, SymplecticCode):
        return phi_code(x)
    if field is None:
        raise WrongFieldOrder("vector form needs the target GF(q^2)")
    return quad_ext(field).phi(tuple(int(v) for v in x))


def phi_inv_map(x, field: Field | None = None):
    """Inverse of phi_map; `field` is the GF(q^2) the vector lives in."""
    if isinstance(x, LinearCode):
        return phi_inv_code(x)
    if field is None:
        raise WrongFieldOrder("vector form needs its GF(q^2)")
    return quad_ext(field).phi_inv(tuple(int(v) for v in x))


def is_subcode(B: LinearCode, A: LinearCode) -> bool:
    """Whether every generator of B lies in the span of A."""
    if A.field is not B.field or A.n != B.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    if A.is_additive or B.is_additive:
        A2, B2 = as_additive(A), as_additive(B)
        return all(A2.contains(r) for r in B2.gen.rows)
    return all(A.contains(r) for r in B.gen.rows)


# ---------------------------------------------------------------------------
# duals and hulls


def dual(C: LinearCode, ip: str) -> LinearCode:
    """Dual code under the named pairing.

    Trace pairings on additive input (and trace_alternating generally)
    return additive codes; the classical pairings require linear input.
    """
    f = C.field
    if ip not in INNER_PRODUCTS:
        raise StabforgeError(f"unknown inner product {ip!r}")
    if ip == "symplectic":
        if C.is_additive:
            raise StabforgeError("symplectic dual applies to F_q^{2n} codes")
        if C.n % 2:
            raise OddLength(f"symplectic dual needs even length, got {C.n}")
        half = C.n // 2
        constraint = []
        for r in C.gen.rows:
            a, b = r[:half], r[half:]
            constraint.append(tuple(b) + tuple(f.neg(x) for x in a))
        K = fmatrix.kernel(fmatrix.matrix(f, constraint, C.n))
        return SymplecticCode(f, C.n, K)
    if ip in ("euclidean", "trace_euclidean"):
        if C.is_additive:
            raise StabforgeError(f"{ip} dual is defined here for linear codes only")
        K = fmatrix.kernel(C.gen)
        return LinearCode(f, C.n, K, LINEAR)
    if ip == "hermitian":
        if C.is_additive:
            raise StabforgeError("hermitian dual is defined here for linear codes only")
        if f.m % 2:
            raise WrongFieldOrder(f"hermitian dual needs square order, got GF({f.q})")
        K = fmatrix.kernel(fmatrix.entrywise_frob(C.gen, f.m // 2))
        return LinearCode(f, C.n, K, LINEAR)
    # trace_hermitian / trace_alternating: compute over the subfield
    if f.m % 2:
        raise WrongFieldOrder(f"{ip} dual needs square order, got GF({f.q})")
    ext = quad_ext(f)
    pair = trace_hermitian_pair if ip == "trace_hermitian" else trace_alternating_pair
    A = as_additive(C)
    # one subfield-linear constraint per generator; unknowns are the
    # Phi-preimage coordinates of the dual vector
    units = [tuple(ext.phi(tuple(1 if i == j else 0 for j in range(2 * C.n)))) for i in range(2 * C.n)]
    constraint = []
    for g in A.gen.rows:
        constraint.append(tuple(pair(f, g, u) for u in units))
    K = fmatrix.kernel(fmatrix.matrix(ext.sub, constraint, 2 * C.n))
    return additive_code(f, [ext.phi(r) for r in K.rows], C.n)


def hull(C: LinearCode, ip: str) -> LinearCode:
    """C intersected with its dual under the named pairing."""
    D = dual(C, ip)
    if C.is_additive or D.is_additive:
        A, B = as_additive(C), as_additive(D)
        inter = fmatrix.intersect(A._pre, B._pre)
        ext = quad_ext(C.field)
        return additive_code(C.field, [ext.phi(r) for r in inter.rows], C.n)
    inter = fmatrix.intersect(C.gen, D.gen)
    if isinstance(C, SymplecticCode) and isinstance(D, SymplecticCode):
        return SymplecticCode(C.field, C.n, inter)
    return LinearCode(C.field, C.n, inter, LINEAR)


def sum_code(A: LinearCode, B: LinearCode) -> LinearCode:
    """Span of the union of two codes of the same kind."""
    if A.field is not B.field or A.n != B.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    if A.is_additive or B.is_additive:
        return additive_code(A.field, list(as_additive(A).gen.rows) + list(as_additive(B).gen.rows), A.n)
    return linear_code(A.field, list(A.gen.rows) + list(B.gen.rows), A.n)


# ---------------------------------------------------------------------------
# minimum-weight enumeration


@dataclass(frozen=True)
class DistanceResult:
    """Minimum-weight verdict: exact value or a certified lower bound."""

    value: int
    status: str
    witness: tuple[int, ...] | None = None
    visited: int = 0

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _messages(combos, r: int, q: int):
    """Every message supported exactly on one of `combos` (r-tuples of
    positions), as (positions, coefficients) chunks of at most _BLOCK rows."""
    patterns = (q - 1) ** r
    step = min(patterns, _BLOCK)
    combos = iter(combos)
    while batch := list(itertools.islice(combos, max(1, _BLOCK // patterns))):
        pos = np.array(batch, dtype=np.intp).reshape(len(batch), r)
        for a in range(0, patterns, step):
            # pattern index -> its r base-(q-1) digits, shifted onto 1..q-1
            coef = np.arange(a, min(a + step, patterns))[:, None] // (q - 1) ** np.arange(r) % (q - 1) + 1
            yield np.repeat(pos, len(coef), axis=0), np.tile(coef, (len(pos), 1))


def _search(field, gen: FqMatrix, quantum_half: int, budget: int, exclude):
    """Minimum weight over the nonzero span of `gen` outside span(B).

    `gen` must be in reduced echelon form; `exclude` is None or B's (rref,
    pivots).  Returns (value, status, witness, visited).

    Words are held as columns of uint8 blocks of at most _BLOCK words.  A
    block is a run of prefix words, each added to every word of a table:
    by XOR in characteristic 2, through the add table otherwise.  If the
    q^k - 1 nonzero words fit the budget, the table is the span of the
    last rows and the prefixes stream over every message of the others.
    Otherwise message-weight layers t = 1, 2, ... are finished while they
    fit: the table holds the messages supported on s positions (the
    largest s <= t that fits a block), ordered by first position, and each
    weight-(t - s) prefix meets the table words that start after its last
    position.  An unvisited word has message weight >= t, so it is nonzero
    on >= t pivot columns: its weight is at least the floor t, or ceil(t/2)
    for quantum weight.  A lightest word found below that floor is the
    exact distance; otherwise the floor is a lower bound, with no witness.

    The witness is the lexicographically smallest minimum-weight word
    outside B, whatever order the words are visited in: each block's
    lightest words are lexsorted and tested for exclusion in that order.
    """
    q = field.q
    add_t, mul_t = field.np_tables()
    rows = np.array(gen.rows, dtype=np.uint8)
    k, n = rows.shape
    mults = mul_t[rows.T]  # mults[:, i, c] = c * row i
    if field.p == 2:
        plus = np.bitwise_xor
    else:
        add_flat = add_t.ravel()

        def plus(a, b):  # a + b = add_flat[a * q + b], below 2^16 for odd q <= 243
            return add_flat.take(a.astype(np.uint16) * q + b)

    count = np.uint8 if n < 255 else np.uint16
    best_w, best_v = n + 1, None

    def words(pos, coef):
        """Words of the given messages, one per column."""
        W = np.zeros((n, len(pos)), dtype=np.uint8)
        for j in range(pos.shape[1]):
            W = plus(W, mults[:, pos[:, j], coef[:, j]])
        return W

    def consider(W):
        nonlocal best_w, best_v
        X = W[:quantum_half] | W[quantum_half:] if quantum_half else W
        wts = (X != 0).sum(axis=0, dtype=count)
        live = np.nonzero((wts > 0) & (wts <= best_w))[0]
        while len(live):
            lw = wts[live]
            v = lw.min()
            level = W[:, live[lw == v]]
            for i in np.lexsort(level[::-1]):
                vec = tuple(level[:, i].tolist())
                if v == best_w and vec >= best_v:
                    break
                if exclude is None or not fmatrix.in_span(*exclude, vec):
                    best_w, best_v = int(v), vec
                    return
            live = live[lw > v]

    def blocks(prefixes, table):
        """Every prefix word plus every table word, in blocks."""
        per = max(1, _BLOCK // table.shape[1])
        for P in prefixes:
            for a in range(0, P.shape[1], per):
                yield plus(P[:, a : a + per, None], table[:, None, :]).reshape(n, -1)

    low = 1  # the span of `low` rows fills at most a block
    while q ** (low + 1) <= _BLOCK:
        low += 1

    def span(idx):
        """Every word of the span of the rows idx, in blocks."""
        table = np.zeros((n, 1), dtype=np.uint8)
        for i in idx[-low:]:
            table = plus(mults[:, i, :, None], table[:, None, :]).reshape(n, -1)
        return blocks(span(idx[:-low]), table) if len(idx) > low else [table]

    if q**k - 1 <= budget:
        for W in span(range(k)):
            consider(W)
        return best_w, EXACT, best_v, q**k - 1

    def layer(t):
        """Number of messages of weight t."""
        return math.comb(k, t) * (q - 1) ** t

    # layers t = 1, 2, ... while they fit; all q^k - 1 words do not, so t <= k
    visited, t = 0, 1
    while visited + layer(t) <= budget:
        s = next(s for s in range(t, -1, -1) if layer(s) <= _BLOCK)
        pos, coef = next(_messages(itertools.combinations(range(k), s), s, q))
        table = words(pos, coef)
        first = pos[:, 0] if s else np.array([k])  # k: the empty message starts after every c
        r = t - s
        for c in range(r - 1, int(first[-1])) if r else (-1,):
            combos = ((*head, c) for head in itertools.combinations(range(c), r - 1)) if r else [()]
            for W in blocks((words(*m) for m in _messages(combos, r, q)), table[:, np.searchsorted(first, c + 1) :]):
                consider(W)
        visited += layer(t)
        t += 1
    floor = -(-t // 2) if quantum_half else t
    if best_w < floor:
        return best_w, EXACT, best_v, visited
    return floor, LOWER_BOUND, None, visited


def _weight_domain(C: LinearCode, wfn: str):
    """Map a (code, weight) request onto an enumeration domain.

    Returns (field, gen, quantum_half, to_public) where to_public maps a
    domain witness back to a codeword of C.
    """
    if wfn == "quantum":
        if not isinstance(C, SymplecticCode):
            raise StabforgeError("quantum weight needs a symplectic column layout")
        return C.field, C.gen, C.half, lambda v: v
    if wfn != "hamming":
        raise StabforgeError(f"unknown weight function {wfn!r}")
    if C.is_additive:
        ext = quad_ext(C.field)
        return ext.sub, C._pre, C.n, ext.phi
    return C.field, C.gen, 0, lambda v: v


def min_weight(C: LinearCode, wfn: str = "hamming", budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Minimum weight over the nonzero codewords of C."""
    if C.k_dim == 0:
        raise ZeroCode("the zero code has no nonzero codeword")
    field, gen, half, to_public = _weight_domain(C, wfn)
    w, status, wit, visited = _search(field, gen, half, budget, None)
    witness = to_public(wit) if wit is not None else None
    return DistanceResult(w, status, witness, visited)


def min_weight_diff(
    A: LinearCode, B: LinearCode, wfn: str = "hamming", budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """Minimum weight over A minus B, enumerating A and skipping members
    of B (membership tested against the row-reduced basis of B)."""
    if not is_subcode(B, A):
        raise NotNested("second code is not a subcode of the first")
    if wfn == "hamming" and (A.is_additive or B.is_additive):
        A, B = as_additive(A), as_additive(B)
        genB = B._pre
    else:
        genB = B.gen
    field, gen, half, to_public = _weight_domain(A, wfn)
    if genB.nrows >= gen.nrows:
        raise EmptyDifference("codes are equal; the difference is empty")
    exB, _, pivB = fmatrix.rref(genB)
    w, status, wit, visited = _search(field, gen, half, budget, (exB, pivB))
    witness = to_public(wit) if wit is not None else None
    return DistanceResult(w, status, witness, visited)


def quantum_weight(vec) -> int:
    """Number of qudit positions touched by a symplectic vector (a|b)."""
    n = len(vec) // 2
    return sum(1 for i in range(n) if vec[i] or vec[n + i])


def hamming_weight(vec) -> int:
    return sum(1 for x in vec if x)


# ---------------------------------------------------------------------------
# file format


def dump_code(C: LinearCode) -> str:
    if isinstance(C, SymplecticCode):
        kind, length = SYMPLECTIC, C.half
    elif C.is_additive:
        kind, length = ADDITIVE, C.n
    else:
        kind, length = LINEAR, C.n
    lines = [f"field GF({C.field.q})", f"length {length}", f"kind {kind}"]
    if kind == ADDITIVE:
        # gamma is pinned by the fixed modulus; recorded for reproducibility
        lines.append(f"# gamma residue {quad_ext(C.field).gamma}")
    lines.append("rows")
    for r in C.gen.rows:
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def parse_code(text: str, name: str = "<string>") -> LinearCode:
    field = None
    length = None
    kind = None
    numbered_rows = []
    in_rows = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_rows:
            try:
                numbered_rows.append((lineno, tuple(int(tok) for tok in line.split())))
            except ValueError:
                raise CodeFileError(f"{name}:{lineno}: row entries must be integers")
            continue
        if line.startswith("field"):
            tok = line.split(None, 1)[1].strip() if " " in line else ""
            if not (tok.startswith("GF(") and tok.endswith(")")):
                raise CodeFileError(f"{name}:{lineno}: expected 'field GF(q)'")
            try:
                field = field_of_order(int(tok[3:-1]))
            except (ValueError, StabforgeError) as e:
                raise CodeFileError(f"{name}:{lineno}: bad field order ({e})")
        elif line.startswith("length"):
            try:
                length = int(line.split()[1])
            except (IndexError, ValueError):
                length = 0
            if length < 1:
                raise CodeFileError(f"{name}:{lineno}: expected 'length n' with n >= 1")
        elif line.startswith("kind"):
            kind = line.split()[1] if len(line.split()) > 1 else ""
            if kind not in (LINEAR, ADDITIVE, SYMPLECTIC):
                raise CodeFileError(f"{name}:{lineno}: kind must be linear|additive|symplectic")
        elif line == "rows":
            in_rows = True
        else:
            raise CodeFileError(f"{name}:{lineno}: unrecognized header line {line!r}")
    if field is None or length is None or kind is None:
        raise CodeFileError(f"{name}: missing field/length/kind header")
    expected = 2 * length if kind == SYMPLECTIC else length
    for i, (lineno, r) in enumerate(numbered_rows, start=1):
        if len(r) != expected:
            raise CodeFileError(f"{name}:{lineno}: row {i} has {len(r)} entries, expected {expected}")
        if any(x < 0 or x >= field.q for x in r):
            raise CodeFileError(f"{name}:{lineno}: row {i} has entries outside [0, {field.q})")
    rows = [r for _, r in numbered_rows]
    if kind == SYMPLECTIC:
        return symplectic_code(field, rows, half=length)
    if kind == ADDITIVE:
        if field.m % 2:
            raise CodeFileError(f"{name}: additive codes need a square-order field")
        return additive_code(field, rows, n=length)
    return linear_code(field, rows, n=length)


def load_code(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read(), name=str(path))


def save_code(C: LinearCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_code(C))


def code_digest(C: LinearCode) -> str:
    """Short content digest of the canonical generator matrix."""
    return hashlib.sha256(dump_code(C).encode()).hexdigest()[:8]
