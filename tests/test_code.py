"""Code operations against brute-force oracles and fixed small cases."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from stabforge import code, fmatrix
from stabforge.code import (
    _BLOCK,
    _weight_domain,
    DEFAULT_BUDGET,
    EXACT,
    INNER_PRODUCTS,
    LOWER_BOUND,
    LinearCode,
    additive_code,
    as_additive,
    code_digest,
    dual,
    dump_code,
    hamming_weight,
    hull,
    is_subcode,
    linear_code,
    load_code,
    min_weight,
    min_weight_diff,
    parse_code,
    phi_code,
    phi_inv_code,
    quad_ext,
    quantum_weight,
    sum_code,
    SymplecticCode,
    symplectic_code,
    symplectic_pair,
    trace_alternating_pair,
    trace_hermitian_pair,
    hermitian_pair,
)
from stabforge.errors import (
    BadRange,
    CodeFileError,
    DimensionMismatch,
    EmptyDifference,
    NotNested,
    OddLength,
    StabforgeError,
    WrongFieldOrder,
    ZeroCode,
)
from stabforge.gf import field_make, field_of_order

from conftest import EX512_ROWS, HAMMING74_ROWS, reed_muller_rows
from test_fmatrix import PACKED_WIDTHS, _kernel_by_tables, _packed_cases


def all_codewords(C):
    """Brute-force span enumeration in the code's own alphabet."""
    f = C.field
    if C.is_additive:
        ext = quad_ext(f)
        scalars = [ext.fwd[s] for s in ext.sub.elements()]
    else:
        scalars = list(f.elements())
    out = set()
    for coeffs in itertools.product(scalars, repeat=C.gen.nrows):
        v = [0] * C.n
        for c, row in zip(coeffs, C.gen.rows):
            for j, x in enumerate(row):
                v[j] = f.add(v[j], f.mul(c, x))
        out.add(tuple(v))
    return out


def naive_min_weight(C, wfn="hamming"):
    weigh = quantum_weight if wfn == "quantum" else hamming_weight
    return min(weigh(v) for v in all_codewords(C) if any(v))


def random_linear(field, k, n, rng):
    return linear_code(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)], n)


# -- duals -------------------------------------------------------------------


def test_symplectic_dual_of_ex512_has_dimension_6(ex512):
    D = dual(ex512, "symplectic")
    assert D.k_dim == 6
    # dual really annihilates the code
    for u in D.gen.rows:
        for c in ex512.gen.rows:
            assert symplectic_pair(ex512.field, u, c) == 0


def test_dual_of_full_space_is_zero(f2):
    full = linear_code(f2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual(full, "euclidean").k_dim == 0


def test_dual_of_zero_code_is_full_space(f2, f4):
    n = 3
    for ip in ("euclidean", "trace_euclidean"):
        assert dual(linear_code(f2, [], n=n), ip).k_dim == n
    assert dual(linear_code(f4, [], n=n), "hermitian").k_dim == n
    for ip in ("trace_hermitian", "trace_alternating"):
        D = dual(additive_code(f4, [], n=n), ip)
        assert D.is_additive and D.k_dim == 2 * n
    assert dual(symplectic_code(f2, [], half=n), "symplectic").k_dim == 2 * n


def test_euclidean_dual_of_hamming_is_7_3(hamming74):
    D = dual(hamming74, "euclidean")
    assert D.k_dim == 3
    assert hamming74.k_dim + D.k_dim == 7


@pytest.mark.parametrize("ip,q", [("euclidean", 2), ("euclidean", 3), ("hermitian", 4), ("symplectic", 2), ("symplectic", 3)])
def test_dual_is_involutive(ip, q):
    rng = random.Random(q * 17)
    field = field_make(2, 2) if q == 4 else field_make(q, 1)
    for _ in range(10):
        n = 6 if ip == "symplectic" else 5
        C = (
            symplectic_code(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(2)])
            if ip == "symplectic"
            else random_linear(field, 2, n, rng)
        )
        D = dual(dual(C, ip), ip)
        assert D.gen.rows == C.gen.rows


def test_trace_alternating_dual_is_involutive(f4):
    rng = random.Random(23)
    for _ in range(8):
        C = additive_code(
            f4, [[rng.randrange(4) for _ in range(5)] for _ in range(3)], n=5
        )
        D = dual(dual(C, "trace_alternating"), "trace_alternating")
        assert D.gen.rows == C.gen.rows
        assert C.k_dim + dual(C, "trace_alternating").k_dim == 2 * C.n


def test_trace_alternating_equals_hermitian_dual_for_linear_codes():
    # equality of the dual sets when the input is field-linear
    for field in (field_make(2, 2), field_make(3, 2)):
        rng = random.Random(field.q)
        for _ in range(8):
            C = random_linear(field, 2, 4, rng)
            alt = dual(C, "trace_alternating")
            herm = as_additive(dual(C, "hermitian"))
            assert alt.gen.rows == herm.gen.rows


def test_trace_hermitian_dual_matches_hermitian_for_linear(f4):
    rng = random.Random(4)
    for _ in range(6):
        C = random_linear(f4, 2, 4, rng)
        th = dual(C, "trace_hermitian")
        herm = as_additive(dual(C, "hermitian"))
        assert th.gen.rows == herm.gen.rows


def test_trace_hermitian_dual_involutive_for_additive(f4):
    rng = random.Random(29)
    for _ in range(6):
        C = additive_code(f4, [[rng.randrange(4) for _ in range(4)] for _ in range(3)], n=4)
        D = dual(dual(C, "trace_hermitian"), "trace_hermitian")
        assert D.gen.rows == C.gen.rows


def test_trace_hermitian_coincides_with_alternating_over_gf4(f4):
    # with q = 2 the two pairings agree pointwise, hence so do the duals
    rng = random.Random(33)
    for _ in range(40):
        u = tuple(rng.randrange(4) for _ in range(5))
        v = tuple(rng.randrange(4) for _ in range(5))
        assert trace_hermitian_pair(f4, u, v) == trace_alternating_pair(f4, u, v)
    for _ in range(5):
        C = additive_code(f4, [[rng.randrange(4) for _ in range(4)] for _ in range(2)], n=4)
        assert (
            dual(C, "trace_hermitian").gen.rows == dual(C, "trace_alternating").gen.rows
        )


def test_trace_euclidean_dual_equals_euclidean_for_linear(f4):
    rng = random.Random(5)
    for _ in range(6):
        C = random_linear(f4, 2, 5, rng)
        assert dual(C, "trace_euclidean").gen.rows == dual(C, "euclidean").gen.rows


def test_symplectic_dual_matches_full_space_filter_gf3():
    # independent oracle: filter all of F_3^6 by the pairing definition
    f3 = field_make(3, 1)
    C = symplectic_code(f3, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)])
    D = dual(C, "symplectic")
    expected = {
        v
        for v in itertools.product(range(3), repeat=6)
        if all(symplectic_pair(f3, v, c) == 0 for c in C.gen.rows)
    }
    assert all_codewords(D) == expected


def test_hermitian_dual_matches_full_space_filter(f4):
    rng = random.Random(61)
    for _ in range(5):
        C = random_linear(f4, 2, 3, rng)
        D = dual(C, "hermitian")
        expected = {
            v
            for v in itertools.product(range(4), repeat=3)
            if all(hermitian_pair(f4, u, v) == 0 for u in C.gen.rows)
        }
        assert all_codewords(D) == expected


def test_trace_alternating_dual_matches_full_space_filter(f4):
    rng = random.Random(67)
    for _ in range(5):
        C = additive_code(f4, [[rng.randrange(4) for _ in range(3)] for _ in range(2)], n=3)
        D = dual(C, "trace_alternating")
        expected = {
            v
            for v in itertools.product(range(4), repeat=3)
            if all(trace_alternating_pair(f4, u, v) == 0 for u in C.gen.rows)
        }
        assert all_codewords(D) == expected


def test_additive_canonical_form_is_generator_independent(f4):
    rng = random.Random(71)
    ext = quad_ext(f4)
    for _ in range(10):
        gens = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(3)]
        C = additive_code(f4, gens, n=4)
        # rebuild from random subfield-linear combinations spanning the same set
        scalars = [ext.fwd[s] for s in ext.sub.elements()]
        mixed = []
        for _ in range(6):
            v = [0] * 4
            for g in gens:
                c = scalars[rng.randrange(len(scalars))]
                v = [f4.add(x, f4.mul(c, y)) for x, y in zip(v, g)]
            mixed.append(tuple(v))
        C2 = additive_code(f4, mixed, n=4)
        if all_codewords(C2) == all_codewords(C):
            assert C2.gen.rows == C.gen.rows


def test_dual_requires_square_order_for_hermitian(f2):
    C = linear_code(f2, [(1, 0)])
    with pytest.raises(WrongFieldOrder):
        dual(C, "hermitian")


def test_symplectic_dual_requires_even_length(f2):
    C = linear_code(f2, [(1, 0, 0)])
    with pytest.raises(OddLength):
        dual(C, "symplectic")


def test_symplectic_code_rejects_odd_length(f2):
    with pytest.raises(OddLength):
        symplectic_code(f2, [(1, 0, 1)])


def _reference_dual(C, ip):
    """Reference model of `dual`: one constraint per generator, the scalar
    pairing of each unit vector of the unknowns with that generator (the
    Hermitian pairing is linear in its first argument only), then a kernel.
    For a linear code the trace-Euclidean dual is the Euclidean one; the
    trace pairings solve for the Phi-preimage coordinates of an additive
    dual, so their unit vectors are those of F_r^{2n} mapped through Phi."""
    f, n = C.field, C.n
    if ip in ("euclidean", "trace_euclidean", "hermitian", "symplectic"):
        pair = {"hermitian": hermitian_pair, "symplectic": symplectic_pair}.get(ip, lambda f, u, v: f.dot(u, v))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        K = fmatrix.kernel(fmatrix.matrix(f, [[pair(f, u, g) for u in units] for g in C.gen.rows], n))
        if ip == "symplectic":
            return symplectic_code(f, K.rows, half=n // 2)
        return linear_code(f, K.rows, n)
    ext = quad_ext(f)
    pair = trace_hermitian_pair if ip == "trace_hermitian" else trace_alternating_pair
    units = [ext.phi(tuple(int(i == j) for j in range(2 * n))) for i in range(2 * n)]
    gens = as_additive(C).gen.rows
    K = fmatrix.kernel(fmatrix.matrix(ext.sub, [[pair(f, u, g) for u in units] for g in gens], 2 * n))
    return additive_code(f, [ext.phi(r) for r in K.rows], n)


def _constraint_dual(C, ip):
    """The symplectic and trace duals by the per-entry constraint path, as
    for any base field: each basis row (a|b) gives the constraint
    (a p_aa + b p_ba | a p_ab + b p_bb) through the add and mul tables, for
    P the pairing's 2 x 2 matrix at one qudit, and the dual is the table
    kernel of the constraints."""
    f, units = C.field, ((1, 0), (0, 1))
    if ip == "symplectic":
        half, base, rows = C.n // 2, f, C.basis.rows
        P = [[symplectic_pair(f, x, y) for y in units] for x in units]
    else:
        ext = quad_ext(f)
        half, base, rows = C.n, ext.sub, as_additive(C).basis.rows
        pair = trace_hermitian_pair if ip == "trace_hermitian" else trace_alternating_pair
        P = [[pair(f, ext.phi(x), ext.phi(y)) for y in units] for x in units]
    (p_aa, p_ab), (p_ba, p_bb) = P
    add, mul = base.tables()[:2]
    constraint = [tuple(add[mul[x][p_aa]][mul[y][p_ba]] for x, y in zip(r[:half], r[half:]))
                  + tuple(add[mul[x][p_ab]][mul[y][p_bb]] for x, y in zip(r[:half], r[half:])) for r in rows]
    return _kernel_by_tables(fmatrix.matrix(base, constraint, 2 * half))[0]


@pytest.mark.parametrize("half", PACKED_WIDTHS)
def test_pairing_duals_over_gf2_match_the_constraint_path(half):
    """Over GF(2) the symplectic dual, and the trace duals of additive codes
    over GF(4), build their constraints from the packed halves of each
    basis row; they must give the per-entry path's duals, on codes with no
    rows, a zero row, full rank and rank deficient.  Symplectic codes over
    GF(4), whose constraints take the per-entry path, are checked too."""
    rng = random.Random(half)
    f2, f4 = field_of_order(2), field_of_order(4)
    for M in _packed_cases(f2, 2 * half, rng):
        S = symplectic_code(f2, M, half=half)
        A = phi_code(S)
        for C, ip in ((S, "symplectic"), (A, "trace_hermitian"), (A, "trace_alternating")):
            assert dual(C, ip).basis.rows == _constraint_dual(C, ip).rows, (half, ip, C)
    if half <= 65:
        for M in _packed_cases(f4, 2 * half, rng):
            S = symplectic_code(f4, M, half=half)
            assert dual(S, "symplectic").basis.rows == _constraint_dual(S, "symplectic").rows, (half, S)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81])
def test_dual_matches_unit_vector_reference(q):
    f = field_of_order(q)
    rng = random.Random(1009 * q)
    for _ in range(10):
        n = rng.randrange(1, 6)

        def rows(count, length):
            return [[rng.randrange(q) for _ in range(length)] for _ in range(count)]

        cases = [(random_linear(f, rng.randrange(n + 1), n, rng), ("euclidean", "trace_euclidean"))]
        cases.append((symplectic_code(f, rows(rng.randrange(2 * n + 1), 2 * n), half=n), ("symplectic",)))
        if f.m % 2 == 0:
            trace = ("trace_hermitian", "trace_alternating")
            cases.append((cases[0][0], ("hermitian",) + trace))
            cases.append((additive_code(f, rows(rng.randrange(2 * n + 1), n), n), trace))
        for C, ips in cases:
            for ip in ips:
                assert dump_code(dual(C, ip)) == dump_code(_reference_dual(C, ip)), (q, n, ip)


# -- subcodes and hulls --------------------------------------------------------


def test_is_subcode_reflexive(hamming74):
    assert is_subcode(hamming74, hamming74)


def test_hamming_contains_its_dual(hamming74, simplex73):
    assert is_subcode(simplex73, hamming74)
    assert dual(hamming74, "euclidean").gen.rows == simplex73.gen.rows


@pytest.mark.parametrize("q", [2, 4])
def test_contains_refuses_a_word_of_the_wrong_length_or_field(q):
    """zip would truncate (1, 1) to a member of a length-3 code, an entry
    of q would index past the tables, and -1 would read from their end."""
    f = field_of_order(q)
    codes = [linear_code(f, [(1, 1, 0)])]
    if q == 4:
        codes.append(additive_code(f, [(1, 1, 0), (2, 2, 0)]))
    for C in codes:
        assert C.contains((1, 1, 0)) and C.contains([0, 0, 0]) and not C.contains((1, 0, 0))
        for v in ((1, 1), (1, 1, 0, 0), ()):
            with pytest.raises(DimensionMismatch, match=f"length {len(v)} for a code of length 3"):
                C.contains(v)
        for v, bad in (((q, 0, 0), q), ((0, 0, 255), 255), ((-1, 0, 0), -1)):
            with pytest.raises(BadRange, match=rf"entry {bad} is not an element of GF\({q}\) \(expected 0..{q - 1}\)"):
                C.contains(v)


def test_constructors_need_a_length_for_no_rows(f2, f4):
    """With no rows there is no row to read the length from."""
    for make, field in ((linear_code, f2), (symplectic_code, f2), (additive_code, f4)):
        with pytest.raises(DimensionMismatch, match="length required"):
            make(field, [])


def test_repetition_not_in_simplex(f2, simplex73):
    rep = linear_code(f2, [(1,) * 7])
    # all-ones has weight 7 while simplex words weigh 0 or 4
    assert {hamming_weight(v) for v in all_codewords(simplex73)} == {0, 4}
    assert not is_subcode(rep, simplex73)


def test_hull_of_hermitian_self_orthogonal_is_itself(hexacode):
    H = hull(hexacode, "hermitian")
    assert H.gen.rows == hexacode.gen.rows


def test_hull_of_single_vector_gf4_is_zero(f4):
    C = linear_code(f4, [(1, 0)])
    assert hermitian_pair(f4, (1, 0), (1, 0)) == 1
    assert hull(C, "hermitian").k_dim == 0


def test_hull_feeds_construction_x_exponent(f4):
    rng = random.Random(9)
    for _ in range(6):
        C = random_linear(f4, 2, 5, rng)
        e = C.k_dim - hull(C, "hermitian").k_dim
        assert 0 <= e <= C.k_dim


# the scalar pairings, written out: trace-Euclidean traces the dot product
# down to the prime field
_PAIRINGS = {
    "euclidean": lambda f, u, v: f.dot(u, v),
    "trace_euclidean": lambda f, u, v: f.trace_to(f.dot(u, v), field_make(f.p, 1)),
    "hermitian": hermitian_pair,
    "trace_hermitian": trace_hermitian_pair,
    "trace_alternating": trace_alternating_pair,
    "symplectic": symplectic_pair,
}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_hull_matches_brute_force_intersection(q):
    """hull(C, ip) holds exactly the words of C that pair to zero with every
    word of C, for every pairing and each kind of code (at most 32 words);
    a symplectic hull is a SymplecticCode and a trace hull is additive.
    Where the dual is undefined, the hull raises the dual's error."""
    f = field_of_order(q)
    rng = random.Random(31 * q)
    most = max(k for k in range(1, 6) if q**k <= 32)  # rows, so that |C| <= 32
    for _ in range(5):
        n = rng.randrange(1, 4)

        def rows(length):
            return [[rng.randrange(q) for _ in range(length)] for _ in range(rng.randrange(most + 1))]

        codes = [linear_code(f, rows(n), n), symplectic_code(f, rows(2 * n), half=n)]
        if f.m % 2 == 0:
            codes.append(additive_code(f, rows(n), n))
        for C in codes:
            words = all_codewords(C)
            for ip in INNER_PRODUCTS:
                try:
                    dual(C, ip)
                except StabforgeError as e:
                    with pytest.raises(type(e)):
                        hull(C, ip)
                    continue
                H = hull(C, ip)
                assert type(H) is (SymplecticCode if ip == "symplectic" else LinearCode), (q, ip, C)
                assert H.is_additive == (ip in ("trace_hermitian", "trace_alternating")), (q, ip, C)
                pair = _PAIRINGS[ip]
                want = {w for w in words if all(pair(f, w, c) == 0 for c in words)}
                assert all_codewords(H) == want, (q, ip, C)


# -- additive codes -------------------------------------------------------------

# (code_digest, k_dim) of additive codes of lengths 3, 5 and 7 from the rows of
# random.Random(q); pinned when the Phi image was stored with the code
_ADDITIVE_DIGESTS = {
    4: [("0ecd8534", 2), ("b04a2f02", 1), ("daaa2002", 6)],
    9: [("2deca541", 4), ("f4d5410d", 6), ("2ae6011f", 8)],
    16: [("795ad049", 3), ("7cf9a3b5", 2), ("68ae0591", 1)],
    25: [("4c12f391", 4), ("0640c42b", 4), ("9959102d", 6)],
}


@pytest.mark.parametrize("q", sorted(_ADDITIVE_DIGESTS))
def test_additive_code_digest_and_identity(q):
    """Additive codes dump, compare and hash by their one stored basis: the
    same span from other spanning rows is equal with an equal hash, and the
    zero code is not."""
    f = field_of_order(q)
    rng = random.Random(q)
    gamma = quad_ext(f).gamma
    for n, (digest, k_dim) in zip((3, 5, 7), _ADDITIVE_DIGESTS[q]):
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(1, n + 2))]
        C = additive_code(f, rows, n)
        assert (code_digest(C), C.k_dim) == (digest, k_dim)
        sums = [[f.add(x, y) for x, y in zip(r, rows[0])] for r in rows]
        D = additive_code(f, rows[::-1] + sums, n)
        assert C == D and hash(C) == hash(D) and code_digest(D) == digest
        assert C != additive_code(f, [], n)
        # the additive view of a linear code is the additive code of its rows
        # and their gamma multiples
        L = linear_code(f, rows, n)
        A = additive_code(f, rows + [[f.mul(gamma, x) for x in r] for r in rows], n)
        assert as_additive(L) == A and hash(as_additive(L)) == hash(A)
        assert L != A


# sha256 of every dump_code text, and each code_digest, of the GF(2) linear
# codes of length w and symplectic codes of w qubits that `_gf2_dump_cases(w)`
# makes; pinned when dump_code still joined one str per entry
_GF2_DUMPS = {
    0: ("832162b7effbad9f8508436d177d04526383da0671fca78d2aac407c2adb48da",
        ["5bf0983c"] * 4 + ["b851097b"] * 4),
    1: ("2e076096f37fb76eabcf26d16ffd00ca1e53f1ceb8658586e4c793b0baa7631a",
        ["13fd591c", "13fd591c", "68544beb", "13fd591c", "055caede", "055caede", "52f94679", "5319d575"]),
    63: ("c2a343152e93bc3ec08397fbf80c5bad46a0fd6e8ee3e9f37b7eb1d39024bc3e",
         ["2ea7b070", "2ea7b070", "26f98679", "275f21b7", "ab8514b6", "ab8514b6", "c2b5d89e", "dbbbf64b"]),
    64: ("d5a0634c3706c17293185fc1072af76b0208d35f112e41179875368b08d1a830",
         ["9e396c32", "9e396c32", "23bfd926", "eab9a7b6", "810aa7c7", "810aa7c7", "b3fec121", "23c15053"]),
    65: ("1ef788b70b206e750eb29685a02d47d526d03f6f1e9840fb5881789afeaf74cf",
         ["11323220", "11323220", "94c08a78", "5880e41d", "a90a8b8e", "a90a8b8e", "2bc25927", "af64bdcb"]),
    130: ("b6c0534997a41b6220c75389dbca92469284a98048b70b0fbd31193c718c06c0",
          ["e2364cfc", "e2364cfc", "952731f2", "c64e1558", "0a0877fe", "0a0877fe", "379bd0e6", "54d007d8"]),
}


def _gf2_row_sets(width, rng):
    """Rows of `width` columns: none, a zero row, full rank and rank deficient."""
    full = [[int(j == i or (j > i and rng.random() < 0.3)) for j in range(width)] for i in range(width)]
    rng.shuffle(full)
    k = max(1, width // 3)
    left = [[rng.randrange(2) for _ in range(k)] for _ in range(k + 3)]
    right = [[int(rng.random() < 0.4) for _ in range(width)] for _ in range(k)]
    deficient = [[sum(a * b for a, b in zip(row, col)) % 2 for col in zip(*right)] if width else [] for row in left]
    return [[], [[0] * width], full, deficient]


def _gf2_dump_cases(width):
    rng = random.Random(width)
    f2 = field_of_order(2)
    return ([linear_code(f2, rows, n=width) for rows in _gf2_row_sets(width, rng)]
            + [symplectic_code(f2, rows, half=width) for rows in _gf2_row_sets(2 * width, rng)])


@pytest.mark.parametrize("width", sorted(_GF2_DUMPS))
def test_gf2_dump_spells_the_packed_rows_byte_for_byte(width):
    """dump_code spells a GF(2) code's rows from their ints; its text and
    code_digest stay what one str per entry gave, and parse_code reads the
    text back to the same code, basis, packed rows and digest included."""
    cases = _gf2_dump_cases(width)
    text = "".join(dump_code(C) for C in cases)
    assert (hashlib.sha256(text.encode()).hexdigest(), [code_digest(C) for C in cases]) == _GF2_DUMPS[width]
    for C in cases:
        assert dump_code(C).splitlines()[4:] == [" ".join(map(str, r)) for r in C.basis.rows]
        if width:
            P = parse_code(dump_code(C))
            assert P == C and P.basis.packed == C.basis.packed and code_digest(P) == code_digest(C)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_parsed_gf2_code_equals_the_code_of_its_rows(width):
    """A GF(2) file parses to the code linear_code or symplectic_code makes
    of the same rows: the same class, basis, packed rows and digest."""
    rng = random.Random(width)
    f2 = field_of_order(2)
    for kind, make, cols in (("linear", linear_code, width), ("symplectic", symplectic_code, 2 * width)):
        for rows in _gf2_row_sets(cols, rng):
            body = "".join(" ".join(map(str, r)) + "\n" for r in rows)
            got = parse_code(f"field GF(2)\nlength {width}\nkind {kind}\nrows\n{body}")
            built = make(f2, rows, width)
            assert type(got) is type(built) and got.basis == built.basis
            assert got.basis.packed == built.basis.packed and code_digest(got) == code_digest(built)


# -- minimum weights -----------------------------------------------------------


def test_min_weight_ex512_quantum(ex512):
    r = min_weight(ex512, "quantum")
    assert (r.value, r.status) == (4, EXACT)
    assert quantum_weight(r.witness) == 4 and ex512.contains(r.witness)


def test_min_weight_ex512_dual_quantum(ex512):
    r = min_weight(dual(ex512, "symplectic"), "quantum")
    assert (r.value, r.status) == (3, EXACT)


def test_min_weight_diff_ex512(ex512):
    r = min_weight_diff(dual(ex512, "symplectic"), ex512, "quantum")
    assert (r.value, r.status) == (3, EXACT)
    assert not ex512.contains(r.witness)


def test_min_weight_repetition(f2):
    rep = linear_code(f2, [(1,) * 5])
    assert min_weight(rep).value == 5


def test_min_weight_matches_naive_oracle():
    rng = random.Random(31)
    for field in (field_make(2, 1), field_make(3, 1), field_make(2, 2)):
        for _ in range(8):
            C = random_linear(field, rng.randrange(1, 4), rng.randrange(2, 6), rng)
            if C.k_dim == 0:
                continue
            assert min_weight(C).value == naive_min_weight(C)


def test_min_weight_quantum_matches_naive_oracle(f2, f3_like=None):
    rng = random.Random(37)
    for field in (field_make(2, 1), field_make(3, 1)):
        for _ in range(8):
            C = symplectic_code(
                field, [[rng.randrange(field.q) for _ in range(8)] for _ in range(3)]
            )
            if C.k_dim == 0:
                continue
            assert min_weight(C, "quantum").value == naive_min_weight(C, "quantum")


def test_min_weight_additive_matches_naive_oracle(f4):
    rng = random.Random(41)
    for _ in range(8):
        C = additive_code(f4, [[rng.randrange(4) for _ in range(4)] for _ in range(3)], n=4)
        if C.k_dim == 0:
            continue
        r = min_weight(C)
        assert r.value == naive_min_weight(C)
        assert C.contains(r.witness)


def test_min_weight_witness_is_lex_smallest(f2, f3, f4):
    for C in (
        linear_code(f2, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        linear_code(f3, [(1, 2, 0, 1, 0), (0, 1, 1, 0, 2), (0, 0, 0, 1, 1)]),
        linear_code(f4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
    ):
        r = min_weight(C)
        candidates = [v for v in all_codewords(C) if any(v) and hamming_weight(v) == r.value]
        assert r.witness == min(candidates)
    # B holds the smallest lightest word of A, so the difference must skip it
    A = linear_code(f2, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 1, 1, 0, 1)])
    B = linear_code(f2, [(0, 0, 1, 1, 0)])
    assert min_weight(A).witness == (0, 0, 1, 1, 0)
    r = min_weight_diff(A, B)
    outside = all_codewords(A) - all_codewords(B)
    assert r.witness == min(v for v in outside if hamming_weight(v) == r.value) == (1, 1, 0, 0, 0)


def test_min_weight_zero_code_raises(f2):
    with pytest.raises(ZeroCode):
        min_weight(linear_code(f2, [], n=4))


def test_min_weight_rejects_an_unknown_or_misplaced_weight(f2, hamming74):
    with pytest.raises(StabforgeError, match="^unknown weight function 'bogus'$"):
        min_weight(hamming74, "bogus")
    with pytest.raises(StabforgeError, match="^quantum weight needs a symplectic column layout$"):
        min_weight(hamming74, "quantum")


def test_min_weight_matches_naive_oracle_dim_10(f2):
    rng = random.Random(101)
    C = linear_code(f2, [[rng.randrange(2) for _ in range(18)] for _ in range(10)])
    assert C.k_dim == 10
    best = 19
    for coeffs in itertools.product((0, 1), repeat=10):
        if not any(coeffs):
            continue
        v = [0] * 18
        for c, row in zip(coeffs, C.gen.rows):
            if c:
                v = [x ^ y for x, y in zip(v, row)]
        best = min(best, sum(v))
    r = min_weight(C)
    assert r.status == EXACT and r.value == best


def test_phi_code_and_vector_round_trip(ex512, f4):
    A = phi_code(ex512)
    assert A.is_additive and A.n == 5
    back = phi_inv_code(A)
    assert back.gen.rows == ex512.gen.rows
    vec = (1, 0, 0, 1)
    img = quad_ext(f4).phi(vec)
    assert quad_ext(f4).phi_inv(img) == vec


def test_min_weight_diff_steane_setup(hamming74, simplex73):
    r = min_weight_diff(hamming74, simplex73)
    # oracle: enumerate the 16 cosets of the dual inside the Hamming code
    inside = all_codewords(simplex73)
    expected = min(hamming_weight(v) for v in all_codewords(hamming74) if v not in inside)
    assert r.value == expected == 3


def test_min_weight_diff_equal_codes(hamming74):
    with pytest.raises(EmptyDifference):
        min_weight_diff(hamming74, hamming74)


def test_min_weight_diff_not_nested(f2, hamming74):
    rep = linear_code(f2, [(1,) * 7])
    with pytest.raises(NotNested):
        min_weight_diff(rep, hamming74)


def test_budget_exhaustion_gives_sound_lower_bound(hamming74):
    r = min_weight(hamming74, budget=4)
    assert r.status == LOWER_BOUND
    assert r.witness is None
    assert 1 <= r.value <= 3
    full = min_weight(hamming74)
    assert full.status == EXACT and full.value >= r.value


def test_budget_exhaustion_quantum(ex512):
    D = dual(ex512, "symplectic")
    r = min_weight_diff(D, ex512, "quantum", budget=6)
    assert r.status == LOWER_BOUND
    assert 1 <= r.value <= 3


def test_budget_exhaustion_gfq(f3=field_make(3, 1)):
    C = linear_code(f3, [(1, 0, 1, 1, 0), (0, 1, 1, 2, 2), (1, 1, 1, 1, 1)])
    r = min_weight(C, budget=5)
    assert r.status == LOWER_BOUND
    assert r.value <= min_weight(C).value


def test_partial_budget_bounds_never_exceed_exact_value():
    rng = random.Random(424)
    for q, field in ((2, field_make(2, 1)), (3, field_make(3, 1)), (4, field_make(2, 2))):
        for _ in range(15):
            k, n = rng.randrange(3, 7), rng.randrange(8, 12)
            C = random_linear(field, k, n, rng)
            if C.k_dim < 3:
                continue
            exact = min_weight(C)
            assert exact.status == EXACT
            for blog in (3, 5, 8):
                part = min_weight(C, budget=1 << blog)
                if part.status == LOWER_BOUND:
                    assert 1 <= part.value <= exact.value
                else:
                    assert (part.value, part.witness) == (exact.value, exact.witness)


def test_partial_budget_exact_below_floor(hamming74):
    # [7,4,3]: layers t <= 3 would take 4 + 6 + 4 = 14 visits, one short of
    # the span; layers 1-2 hold 10 words, and layer 3 is decided (below), so
    # it ends the walk unwalked
    r = min_weight(hamming74, budget=14)
    full = min_weight(hamming74)
    assert (r.value, r.status, r.visited) == (3, EXACT, 10)
    assert r.witness == full.witness
    # with t <= 2 done the floor is 3, equal to the lightest word found, and
    # layer 3 is decided: fewer than 3 groups hold a row at or after the
    # witness's leading row, so no unvisited word of weight 3 is smaller
    r = min_weight(hamming74, budget=10)
    assert (r.value, r.status, r.witness, r.visited) == (3, EXACT, full.witness, 10)


def _brute_search(field, gen_rows, half, ex_rows, budget, target=None):
    """Reference for the engine: (value, status, witness, visited).

    It follows the walk policy that `code._search`'s docstring states, by
    brute force: each layer is every message on exactly t groups, and each
    word is built and weighed symbol by symbol."""
    q, k, n = field.q, len(gen_rows), len(gen_rows[0])

    def word(msg, rows):
        v = [0] * n
        for c, row in zip(msg, rows):
            for j, x in enumerate(row):
                v[j] = field.add(v[j], field.mul(c, x))
        return tuple(v)

    def weight(v):
        if half:
            return sum(1 for i in range(half) if v[i] or v[half + i])
        return hamming_weight(v)

    excluded = {word(m, ex_rows) for m in itertools.product(range(q), repeat=len(ex_rows))}
    paired = q * q - 1 <= code._BLOCK
    qudits, by_group, pivots = set(), {}, []
    for i, row in enumerate(gen_rows):
        pivot = next(j for j, x in enumerate(row) if x)
        pivots.append(pivot)
        qudit = pivot % half if half else pivot
        qudits.add(qudit)
        by_group.setdefault(qudit if paired else i, []).append(i)
    groups = list(by_group.values())
    g = len(groups)

    def floor(t):
        return max(-(-t // 2), t - (g - len(qudits)))

    def layer(t):
        """Every message nonzero on exactly t groups."""
        for combo in itertools.combinations(groups, t):
            nonzero = [[c for c in itertools.product(range(q), repeat=len(gr)) if any(c)] for gr in combo]
            for parts in itertools.product(*nonzero):
                msg = [0] * k
                for gr, c in zip(combo, parts):
                    for i, x in zip(gr, c):
                        msg[i] = x
                yield msg

    sizes = [sum(math.prod(q ** len(gr) - 1 for gr in combo) for combo in itertools.combinations(groups, t))
             for t in range(g + 1)]
    found = []

    def walk(t):
        for msg in layer(t):
            v = word(msg, gen_rows)
            if v not in excluded:
                found.append((weight(v), v))

    def best():
        return min(found, default=(n + 1, None))

    total = q**k - 1
    if total <= min(budget, code._SMALL_SPAN):
        for t in range(1, g + 1):
            walk(t)
        return best()[0], EXACT, best()[1], total

    def reached(t):
        return target is not None and floor(t) >= target

    def decided(t):
        w, v = best()
        if w != floor(t):
            return False
        lead = pivots.index(next(j for j, x in enumerate(v) if x))
        return sum(any(i >= lead for i in gr) for gr in groups) < t

    visited, t = 0, 1
    while t <= g and best()[0] >= floor(t) and not reached(t) and not decided(t):
        if total > budget:
            go = visited + sizes[t] <= budget
        else:
            go = code._LAYERED_COST * (visited + sizes[t]) <= total
        if not go:
            break
        walk(t)
        visited += sizes[t]
        t += 1
    if best()[0] < floor(t) or t > g or decided(t):
        return best()[0], EXACT, best()[1], visited
    if total <= budget and not reached(t):
        for s in range(t, g + 1):
            walk(s)
        return best()[0], EXACT, best()[1], visited + total
    return floor(t), LOWER_BOUND, None, visited


def _random_case(q, kind, k, n, rng):
    f = field_of_order(q)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    if kind == "quantum":
        return symplectic_code(f, rows, half=n // 2)
    if kind == "additive":
        return additive_code(f, [r[: n // 2] for r in rows], n=n // 2)
    return linear_code(f, rows, n)


def _subcode(A, rng):
    """A random proper nonzero subcode of A, of the same kind, or None."""
    kind = "additive" if A.is_additive else ("quantum" if isinstance(A, SymplecticCode) else "hamming")
    field, gen, _, to_public = _weight_domain(A, "quantum" if kind == "quantum" else "hamming")
    m = rng.randrange(1, gen.nrows) if gen.nrows > 1 else 0
    combos = [[rng.randrange(field.q) for _ in range(gen.nrows)] for _ in range(m)]
    rows = [to_public(tuple(field.dot(c, col) for col in zip(*gen.rows))) for c in combos]
    if not rows:
        return None
    if kind == "additive":
        B = additive_code(A.field, rows, n=A.n)
    elif kind == "quantum":
        B = symplectic_code(A.field, rows, half=A.half)
    else:
        B = linear_code(A.field, rows, A.n)
    return B if 0 < B.k_dim < A.k_dim else None


def _check_against_brute_force(A, wfn, budget, B=None, target=None):
    field, gen, half, to_public = _weight_domain(A, wfn)
    ex_rows = _weight_domain(B, wfn)[1].rows if B is not None else []
    value, status, witness, visited = _brute_search(field, gen.rows, half, ex_rows, budget, target)
    r = min_weight_diff(A, B, wfn, budget) if B is not None else min_weight(A, wfn, budget, target)
    expected_witness = to_public(witness) if witness is not None else None
    got = (r.value, r.status, r.witness, r.visited)
    assert got == (value, status, expected_witness, visited), (A, B, budget, target)


def _check_random_cases_against_brute_force(rng):
    shapes = {2: (8, 12), 3: (5, 8), 4: (4, 6), 5: (3, 6), 7: (3, 5), 8: (3, 5), 9: (2, 4), 16: (2, 4), 256: (1, 3)}
    # the odd orders whose add-table index a * q + b reaches furthest, drawn last
    shapes |= {27: (2, 4), 243: (1, 3), 251: (1, 3)}
    for q, (kmax, nmax) in shapes.items():
        kinds = ["hamming", "quantum"] + (["additive"] if q in (4, 9, 16, 256) else [])
        for kind in kinds:
            for _ in range(6):
                n = 2 * rng.randrange(1, nmax // 2 + 1) if kind != "hamming" else rng.randrange(1, nmax + 1)
                A = _random_case(q, kind, rng.randrange(1, kmax + 1), n, rng)
                if A.k_dim == 0:
                    continue
                wfn = "quantum" if kind == "quantum" else "hamming"
                span = _weight_domain(A, wfn)[0].q ** _weight_domain(A, wfn)[1].nrows - 1
                for B in (None, _subcode(A, rng)):
                    for budget in (span, span - 1, rng.randrange(0, span)):
                        _check_against_brute_force(A, wfn, budget, B)
                        if B is None:
                            for target in range(1, 5):
                                _check_against_brute_force(A, wfn, budget, target=target)


def test_search_matches_brute_force():
    _check_random_cases_against_brute_force(random.Random(2024))


def test_search_matches_brute_force_when_every_span_tries_layers(monkeypatch):
    """The layered walk of a span within the budget, its early stop and its
    fallback to the whole span, on spans small enough to brute-force: with
    these constants both endings occur dozens of times."""
    monkeypatch.setattr(code, "_SMALL_SPAN", 0)
    monkeypatch.setattr(code, "_LAYERED_COST", 2)
    _check_random_cases_against_brute_force(random.Random(2025))


def test_search_matches_brute_force_with_tiny_blocks(monkeypatch):
    """Blocks of four words: a join's blocks hold one or two table-b words,
    most prefixes of the ceil(t/2)-group table exceed a block and come in
    parts, and every table exceeds a block."""
    monkeypatch.setattr(code, "_BLOCK", 4)
    monkeypatch.setattr(code, "_SMALL_SPAN", 0)
    monkeypatch.setattr(code, "_LAYERED_COST", 2)
    _check_random_cases_against_brute_force(random.Random(2026))


def test_search_matches_brute_force_on_deep_layers(monkeypatch):
    """Distances at deep layers with blocks of 150 words: layer t joins the
    tables of ceil(t/2) and floor(t/2) groups, which exceed a block from
    three groups on, so layers 3-7 come in many blocks.  The cyclic Golay
    [23,12,7] code has twelve single-row groups; the symplectic code of six
    Golay shifts on each side has six qudit pairs and distance 7."""
    monkeypatch.setattr(code, "_BLOCK", 150)
    rng = random.Random(23)
    f2 = field_of_order(2)
    g = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    golay = [(0,) * i + g + (0,) * (11 - i) for i in range(12)]
    L = linear_code(f2, golay)
    S = symplectic_code(f2, [r + (0,) * 23 for r in golay[:6]] + [(0,) * 23 + r for r in golay[:6]])
    for A, wfn in ((L, "hamming"), (S, "quantum")):
        _check_against_brute_force(A, wfn, 2**12 - 2)
        _check_against_brute_force(A, wfn, 2**12 - 2, _subcode(A, rng))
        _check_against_brute_force(A, wfn, 1000)
        for target in (5, 7):
            _check_against_brute_force(A, wfn, 2**12 - 2, target=target)


@pytest.mark.parametrize("block", [150, 50])
def test_search_matches_brute_force_when_joins_split_prefixes(monkeypatch, block):
    """Layer t joins the tables of ceil(t/2) and floor(t/2) groups, each
    table-b word taking a prefix of the first table.  The extended Golay
    [24,12,8] code at a budget of its layers 1-7 walks all seven (only
    layer 8 ties its rows' weight 8), and layer 7 joins its 495 four-group
    words with its 220 three-group words: the four-group table exceeds a
    block, and with blocks of 50 words the 126-word prefix of the
    three-group words starting at group 9 comes in parts.  Every block the
    weight pass reads holds at most `block` words, and the blocks hold the
    walked layers' words, each once."""
    monkeypatch.setattr(code, "_BLOCK", block)
    widths = []
    popcount = code._popcount

    def counting(x):
        widths.append(x.shape[1])
        return popcount(x)

    monkeypatch.setattr(code, "_popcount", counting)
    f2 = field_of_order(2)
    g = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    L = linear_code(f2, [(0,) * i + g + (0,) * (11 - i) + (1,) for i in range(12)])
    layers = sum(math.comb(12, t) for t in range(1, 8))
    assert math.comb(12, 4) > block and math.comb(9, 4) > 2 * 50
    r = min_weight(L, budget=layers)
    assert (r.value, r.status, r.visited) == (8, EXACT, layers)
    assert max(widths) <= block and sum(widths) == layers
    widths.clear()
    _check_against_brute_force(L, "hamming", layers)
    _check_against_brute_force(L, "hamming", layers, _subcode(L, random.Random(7)))
    assert max(widths) <= block


@pytest.mark.parametrize("popcount", ["native", "swar"])
@pytest.mark.parametrize("layers", [False, True])
def test_search_matches_brute_force_at_limb_boundaries(monkeypatch, layers, popcount):
    """GF(2) words are packed into 64-bit limbs, each half on its own.
    Hamming lengths 63-129, quantum halves 31-65 and an additive GF(4)
    code of length 65 end a half just before, at and after a limb
    boundary; the rows' ones crowd the boundaries, so lightest words and
    their lexicographic ties straddle limbs.  With `layers` every span
    tries layers first; "swar" runs the popcount numpy 1.x falls back to,
    and counts its calls: the walks must read `_popcount` when they run."""
    if layers:
        monkeypatch.setattr(code, "_SMALL_SPAN", 0)
        monkeypatch.setattr(code, "_LAYERED_COST", 2)
    swar_calls = []

    def swar(x):
        swar_calls.append(x.shape)
        return code._swar_popcount(x)

    if popcount == "swar":
        monkeypatch.setattr(code, "_popcount", swar)
    rng = random.Random(64)
    f2, f4 = field_of_order(2), field_of_order(4)

    def sparse(width, q=2):
        edges = {c for c in range(width) if c % 64 in (0, 63)} | {width - 2, width - 1}
        return [rng.randrange(1, q) if rng.random() < (0.5 if c in edges else 0.04) else 0 for c in range(width)]

    cases = [(linear_code(f2, [sparse(n) for _ in range(5)], n), "hamming") for n in (63, 64, 65, 129)]
    for h in (31, 32, 33, 64, 65):
        cases.append((symplectic_code(f2, [sparse(h) + sparse(h) for _ in range(5)], half=h), "quantum"))
    cases.append((additive_code(f4, [sparse(65, 4) for _ in range(5)], n=65), "hamming"))
    for A, wfn in cases:
        span = 2 ** A.k_dim - 1
        for B in (None, _subcode(A, rng)):
            for budget in (span, span - 1, rng.randrange(1, span)):
                _check_against_brute_force(A, wfn, budget, B)
        for target in (2, 4):
            _check_against_brute_force(A, wfn, span, target=target)
    assert bool(swar_calls) == (popcount == "swar")


def test_swar_popcount_counts_every_bit():
    rng = random.Random(5)
    words = [0, 2**64 - 1] + [1 << i for i in range(64)] + [rng.getrandbits(64) for _ in range(500)]
    got = code._swar_popcount(np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [bin(x).count("1") for x in words]


def _layout_cases(rng):
    """Codes whose enumeration domains cover every word layout: GF(2) words
    ending a half just before, at and after a limb boundary, symbols over
    characteristic 2 and odd characteristic up to the largest odd order,
    and additive codes, walked over their subfield with quantum halves."""
    cases = [(_random_case(2, "hamming", 6, n, rng), "hamming") for n in (63, 64, 65)]
    cases += [(_random_case(2, "quantum", 6, 2 * h, rng), "quantum") for h in (31, 32, 33)]
    for q in (3, 4, 8, 9, 16, 27, 243, 251, 256):
        cases += [(_random_case(q, "hamming", 3, 7, rng), "hamming"), (_random_case(q, "quantum", 3, 8, rng), "quantum")]
    return cases + [(_random_case(q, "additive", 4, 10, rng), "hamming") for q in (4, 16)]


def test_layout_keeps_its_contract_over_every_field():
    """`_layout` is all `_search` knows of a field.  Each multiple of a
    basis row unpacks to that multiple; words add as their symbols do,
    weigh as the weight function does and sort as their symbol tuples do;
    a key leads with its first nonzero column, and its word is in the span."""
    rng = random.Random(27)
    for A, wfn in _layout_cases(rng):
        field, gen, half, _ = _weight_domain(A, wfn)
        basis, k, _ = fmatrix.rref(gen)
        mults, split, plus, ones, word, lead, unpack = code._layout(field, basis, half)
        weight = quantum_weight if half else hamming_weight
        for i, row in enumerate(basis.rows):
            for c in range(mults.shape[2]):
                assert unpack(tuple(mults[:, i, c].tolist())) == tuple(field.mul(c, x) for x in row)
        words = []
        for _ in range(40):  # random messages, summed row by row
            W, v = mults[:, 0, 0], (0,) * basis.ncols
            for i, row in enumerate(basis.rows):
                c = rng.randrange(mults.shape[2])
                W, v = plus(W, mults[:, i, c]), tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, row))
            words.append((W, v))
        for (W, v), (U, u) in zip(words, words[1:]):
            assert unpack(tuple(plus(W, U).tolist())) == tuple(field.add(x, y) for x, y in zip(v, u))
        block = np.stack([W for W, _ in words], axis=1)
        assert block.dtype == mults.dtype
        X = block[:split] | block[split:] if split else block
        assert ones(X).sum(axis=0).tolist() == [weight(v) for _, v in words]
        keys = [tuple(W.tolist()) for W, _ in words]
        assert [unpack(key) for key in keys] == [v for _, v in words]
        assert sorted(keys) == sorted(keys, key=unpack)
        for key, (_, v) in zip(keys, words):
            assert fmatrix.in_span(basis, word(key))
            if any(v):
                assert lead(key) == next(c for c, x in enumerate(v) if x)
        assert len(set(keys)) > 10, (A, wfn)


def test_search_matches_brute_force_across_blocks():
    """Spans and layers larger than one block of _BLOCK words."""
    rng = random.Random(77)
    f2, f3, f16, f256 = (field_of_order(q) for q in (2, 3, 16, 256))
    assert 2**13 > _BLOCK and 3**8 > _BLOCK and math.comb(16, 5) > _BLOCK
    A = linear_code(f2, [[rng.randrange(2) for _ in range(16)] for _ in range(13)])
    for B in (None, _subcode(A, rng)):
        _check_against_brute_force(A, "hamming", 2**13 - 1, B)
    S = symplectic_code(f3, [[rng.randrange(3) for _ in range(10)] for _ in range(8)])
    _check_against_brute_force(S, "quantum", 3**8 - 1)
    _check_against_brute_force(S, "quantum", 3**8 - 2)
    # finished layers whose words span several table slices
    L = linear_code(f2, [[rng.randrange(2) for _ in range(24)] for _ in range(16)])
    layers = sum(math.comb(16, t) for t in range(1, 6))
    _check_against_brute_force(L, "hamming", layers)
    _check_against_brute_force(L, "hamming", layers, _subcode(L, rng))
    G = linear_code(f16, [[rng.randrange(16) for _ in range(5)] for _ in range(4)])
    _check_against_brute_force(G, "hamming", 16**4 - 2)
    H = linear_code(f256, [[rng.randrange(256) for _ in range(3)] for _ in range(2)])
    _check_against_brute_force(H, "hamming", 256**2 - 1)
    # pivots a_0 and b_0: the pair's 65,535 words exceed a block, so its rows
    # stay two groups on one qudit and finished layers prove only ceil(t/2)
    P = symplectic_code(f256, [(1, 7, 9, 3), (0, 0, 1, 5)])
    for budget in (256**2 - 1, 256**2 - 2, 600):
        _check_against_brute_force(P, "quantum", budget)


def test_search_matches_brute_force_where_a_tie_layer_is_decided(monkeypatch):
    """Layer t ties when the best word so far weighs floors[t].  If fewer
    than t groups hold a row at or after that word's leading row, the layer
    is decided and ends the walk unwalked: each of its words weighs at least
    the best, and uses a row before the leading one, so it is nonzero where
    the best word is still zero and its key is larger.  Value, status,
    witness and visited must match the model, which builds every layer it
    walks word by word.  These reach a decided tie layer: Hamming [7,4]
    minus its dual at budget 14, RM(2,4) minus RM(1,4) at 2^10 - 1 and
    2^11 - 2, and Steane's code (its symplectic dual minus the stabilizer)
    at 254.  Hamming [15,11] minus its dual reaches a tie layer that five
    groups hold, which is walked."""
    f2 = field_of_order(2)
    simplex = [tuple((j + 1) >> i & 1 for j in range(15)) for i in range(4)]
    ham15 = dual(linear_code(f2, simplex), "euclidean")
    ham7 = linear_code(f2, [(1, 0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1)])
    rm14, rm24 = (linear_code(f2, reed_muller_rows(r, 4)) for r in (1, 2))
    steane = symplectic_code(f2, [r + (0,) * 7 for r in dual(ham7, "euclidean").basis.rows]
                             + [(0,) * 7 + r for r in dual(ham7, "euclidean").basis.rows])
    cases = [(ham7, dual(ham7, "euclidean"), "hamming", (14,)),
             (rm24, rm14, "hamming", (1023, 2046)),
             (ham15, dual(ham15, "euclidean"), "hamming", (255, 2046)),
             (dual(steane, "symplectic"), steane, "quantum", (254,))]
    for A, B, wfn, budgets in cases:
        for budget in budgets:
            _check_against_brute_force(A, wfn, budget, B)
    # two qubit groups, rows {0, 2} and {1, 3}: after layer 1 both hold a row
    # at or after the best word's leading row, so layer 2 is walked, and it
    # holds rows 2 + 3, of the best weight and a smaller key: the witness
    monkeypatch.setattr(code, "_SMALL_SPAN", 0)
    monkeypatch.setattr(code, "_LAYERED_COST", 1)
    P = symplectic_code(f2, [(1, 0, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0, 1),
                             (0, 0, 0, 0, 1, 0, 1, 1), (0, 0, 0, 0, 0, 1, 1, 1)])
    _check_against_brute_force(P, "quantum", 15)
    assert min_weight(P, "quantum", 15).witness == (0, 0, 0, 0, 1, 1, 0, 0)


def test_visited_counts_the_words_walked(monkeypatch, hamming74):
    """`visited` is the number of nonzero words the walk weighs: a layer
    enters it only if its words were walked.  Every word passes the
    weight step, `ones` of the layout, once per walk, so a wrapped `ones`
    counts the words weighed and the zero words among them.  The zero word
    is weighed, once, exactly when the whole span is walked (visited then
    includes the span's q^k - 1 words).  Random codes over six fields
    under Hamming, quantum and additive weight, differences and targets,
    at budgets from 2^2 up to the span; Hamming [7,4] at budget 14 ends on
    a decided layer 3 after its 10 words on one or two groups."""
    weighed, zeros = [], []
    layout = code._layout

    def counting(field, basis, half):
        mults, split, plus, ones, word, lead, unpack = layout(field, basis, half)

        def counted(X):
            weighed.append(X.shape[-1])
            zeros.append(int((~X.any(axis=0)).sum()))
            return ones(X)

        return mults, split, plus, counted, word, lead, unpack

    monkeypatch.setattr(code, "_layout", counting)

    def check(r, total):
        assert sum(weighed) - sum(zeros) == r.visited, (r, total)
        assert sum(zeros) == (r.visited >= total), (r, total)
        weighed.clear()
        zeros.clear()

    r = min_weight(hamming74, budget=14)
    assert (r.value, r.status, r.visited) == (3, EXACT, 10)
    check(r, 15)
    rng = random.Random(28)
    # (field order, kind, rows, columns): spans of 10^2-10^5 words, so some
    # are walked whole at once and some after their layers
    shapes = [(2, "hamming", 17, 30), (2, "quantum", 16, 24), (2, "hamming", 9, 14), (3, "hamming", 10, 18),
              (3, "quantum", 9, 16), (4, "hamming", 8, 14), (4, "additive", 15, 24), (5, "quantum", 7, 12),
              (16, "hamming", 4, 9), (16, "additive", 7, 12), (256, "hamming", 2, 5), (256, "quantum", 2, 6)]
    for q, kind, k, n in shapes * 3:
        A = _random_case(q, kind, k, n, rng)
        wfn = "quantum" if kind == "quantum" else "hamming"
        field, gen, _, _ = _weight_domain(A, wfn)
        total = field.q**gen.nrows - 1
        budgets = [4**e for e in range(1, 10) if 4**e < total] + [total - 1, total]
        for B in (None, _subcode(A, rng)):
            for budget in budgets:
                r = min_weight_diff(A, B, wfn, budget) if B is not None else min_weight(A, wfn, budget)
                check(r, total)
                if B is None:
                    check(min_weight(A, wfn, budget, target=r.value), total)


def test_search_finds_planted_words_at_layer_edges(monkeypatch):
    """A light word whose message support ends a table's prefix, or starts
    the last table-b word of a join, is found: a layer is a join of two
    tables cut into blocks, and a missed prefix or block would lose it."""
    rng = random.Random(9)

    def planted(field, k, extra, support):
        # [I | P] with sum_{i in support} row_i = (1 on support | 0)
        P = [[rng.randrange(field.q) for _ in range(extra)] for _ in range(k)]
        for j in range(extra):
            acc = 0
            for i in support[:-1]:
                acc = field.add(acc, P[i][j])
            P[support[-1]][j] = field.neg(acc)
        rows = [[int(i == r) for i in range(k)] + P[r] for r in range(k)]
        return linear_code(field, rows), tuple(int(i in support) for i in range(k)) + (0,) * extra

    f2, f16, f256 = (field_of_order(q) for q in (2, 16, 256))
    layers = sum(math.comb(16, t) for t in range(1, 6))  # t = 5 joins 3 groups with 2
    for support in ((11, 12, 13, 14, 15), (0, 1, 2, 3, 4), (0, 12, 13, 14, 15), (10, 11, 12, 14, 15)):
        C, word = planted(f2, 16, 40, support)
        r = min_weight(C, budget=layers)
        assert (r.value, r.status, r.witness, r.visited) == (5, EXACT, word, layers)
    for support in ((1, 2, 3), (0, 2, 3)):  # GF(16), k = 4: t = 3 joins 2 groups with 1
        C, word = planted(f16, 4, 8, support)
        r = min_weight(C, budget=16**4 - 2)
        assert (r.value, r.status, r.witness) == (3, EXACT, word)
    C, word = planted(f256, 17, 3, (16,))  # GF(256), k = 17: table 1 exceeds a block
    r = min_weight(C, budget=17 * 255)
    assert (r.value, r.status, r.witness, r.visited) == (1, EXACT, word, 17 * 255)
    # blocks of 150 words: layer 5 joins the 560 three-group words with the
    # 120 two-group words, each taking the three-group words that end before
    # its first group, and the 6,188 sums come in blocks of at most 150
    monkeypatch.setattr(code, "_BLOCK", 150)
    for support in ((11, 12, 13, 14, 15), (0, 1, 2, 3, 4), (0, 12, 13, 14, 15), (10, 11, 12, 14, 15), (2, 5, 7, 9, 13)):
        C, word = planted(f2, 16, 40, support)
        r = min_weight(C, budget=layers)
        assert (r.value, r.status, r.witness, r.visited) == (5, EXACT, word, layers)


def test_search_memory_stays_within_blocks():
    """Neither a layer being walked nor the whole span is ever materialized:
    [80,40] at 2^20 visits about 7.6e5 words (about 60 MB as bytes), and
    [48,20] visits all 2^20 - 1 words (about 48 MB) after layers 1-6, the
    most that fit 1/16 of the span: they prove 7, short of its distance 9.
    The tables of up to ceil(t/2) groups that layer t joins stay small:
    each holds a layer the walk has already finished (9,880 words on three
    groups for [80,40], whose layer 5 has 658,008)."""
    rng = random.Random(5)
    f2 = field_make(2, 1)
    for (n, k), budget in (((80, 40), 1 << 20), ((48, 20), 1 << 20)):
        C = linear_code(f2, [[rng.randrange(2) for _ in range(n)] for _ in range(k)])
        assert C.k_dim == k
        tracemalloc.start()
        try:
            r = min_weight(C, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.visited > 7 * 10**5
        layers = sum(math.comb(k, t) for t in range(1, 7))
        assert budget < 2**k - 1 or (r.value, r.visited) == (9, 2**k - 1 + layers)
        assert peak < 4 * 2**20, f"[{n},{k}] peaked at {peak / 2**20:.1f} MiB"


def test_partial_budget_bounds_quantum_and_additive():
    rng = random.Random(777)
    for field in (field_make(2, 1), field_make(3, 1)):
        for _ in range(10):
            C = symplectic_code(
                field, [[rng.randrange(field.q) for _ in range(10)] for _ in range(4)]
            )
            if C.k_dim < 3:
                continue
            exact = min_weight(C, "quantum")
            for blog in (2, 4):
                part = min_weight(C, "quantum", budget=1 << blog)
                if part.status == LOWER_BOUND:
                    assert 1 <= part.value <= exact.value
    f4 = field_make(2, 2)
    for _ in range(10):
        C = additive_code(f4, [[rng.randrange(4) for _ in range(5)] for _ in range(4)], n=5)
        if C.k_dim < 3:
            continue
        exact = min_weight(C)
        for blog in (2, 4):
            part = min_weight(C, budget=1 << blog)
            if part.status == LOWER_BOUND:
                assert 1 <= part.value <= exact.value


def _full_walk(field, gen_rows, half, ex_rows):
    """Reference for an exact result: (value, witness) over the whole span
    outside span(ex_rows), from every word of both spans in numpy."""
    add_t, mul_t = field.np_tables()
    n = len(gen_rows[0])

    def span(rows):
        W = np.zeros((1, n), dtype=np.uint8)
        for row in rows:
            W = np.concatenate([add_t[W, mul_t[c, list(row)]] for c in range(field.q)])
        return W

    def keys(W):
        return W.astype(np.int64) @ field.q ** np.arange(n, dtype=np.int64)

    words = span(gen_rows)
    X = words[:, :half] | words[:, half:] if half else words
    wts = (X != 0).sum(axis=1)
    wts[np.isin(keys(words), keys(span(ex_rows)))] = n + 1  # the zero word is always excluded
    lightest = words[wts == wts.min()]
    return int(wts.min()), tuple(lightest[np.lexsort(lightest.T[::-1])[0]].tolist())


@pytest.mark.parametrize("small_span", [None, 0])
def test_grouped_walk_matches_full_walk_on_random_codes(monkeypatch, small_span):
    """Exact results equal the full walk's value and witness, and floors
    never exceed it: symplectic codes over GF(2), GF(3) and GF(4) and
    additive codes over GF(4) and GF(9), spans of 8192-65536 words, with
    and without an excluded subcode, at full and partial budgets.  With
    small_span = 0 every span within the budget tries layers first.  The
    last two shapes have few rows on many qudits: the layers that fit 1/16
    of the span do not prove their distance, so they end on the whole span."""
    if small_span is not None:
        monkeypatch.setattr(code, "_SMALL_SPAN", small_span)
    rng = random.Random(7007)
    # (field order, kind, qudits, rows); an additive code is walked over GF(2) or GF(3), its Phi preimage
    shapes = [(2, "quantum", 10, 13), (2, "quantum", 12, 16), (3, "quantum", 7, 9), (3, "quantum", 8, 10),
              (4, "quantum", 6, 7), (4, "quantum", 6, 8), (4, "additive", 10, 14), (4, "additive", 10, 16),
              (9, "additive", 6, 9), (9, "additive", 7, 10), (2, "quantum", 20, 16), (3, "quantum", 16, 10)]
    endings = {"proven by layers": 0, "layers then whole span": 0, "floor": 0}
    for q, kind, n, rows in shapes:
        A = _random_case(q, kind, rows, 2 * n, rng)
        wfn = "quantum" if kind == "quantum" else "hamming"
        field, gen, half, to_public = _weight_domain(A, wfn)
        total = field.q**gen.nrows - 1
        for B in (None, _subcode(A, rng)):
            ex_rows = _weight_domain(B, wfn)[1].rows if B is not None else []
            value, witness = _full_walk(field, gen.rows, half, ex_rows)
            for budget in (DEFAULT_BUDGET, total, total - 1, total // 16, 300, 30):
                r = min_weight_diff(A, B, wfn, budget) if B is not None else min_weight(A, wfn, budget)
                if r.status == EXACT:
                    assert (r.value, r.witness) == (value, to_public(witness)), (A, B, budget)
                    endings["proven by layers"] += r.visited < total
                    endings["layers then whole span"] += r.visited > total
                else:
                    assert budget < total and r.witness is None and 1 <= r.value <= value, (A, B, budget)
                    endings["floor"] += 1
    assert all(endings.values()), endings


# -- the Phi bridge ------------------------------------------------------------


def test_phi_definition_unfolds(f4):
    ext = quad_ext(f4)
    assert ext.phi((1, 0, 0, 1)) == (1, ext.gamma)


def test_phi_of_ex512_row_has_hamming_weight_4(ex512):
    ext = quad_ext(field_make(2, 2))
    v1 = ex512.gen.rows[0]
    image = ext.phi(v1)
    assert hamming_weight(image) == quantum_weight(v1) == 4


def test_phi_roundtrip_on_10k_random_vectors():
    rng = random.Random(55)
    for field in (field_make(2, 2), field_make(3, 2), field_make(2, 4)):
        ext = quad_ext(field)
        for _ in range(10_000):
            w = tuple(rng.randrange(ext.sub.q) for _ in range(8))
            assert ext.phi_inv(ext.phi(w)) == w


def test_phi_isometry_and_form_correspondence():
    rng = random.Random(77)
    for field in (field_make(2, 2), field_make(3, 2), field_make(2, 4)):
        ext = quad_ext(field)
        for _ in range(200):
            u = tuple(rng.randrange(ext.sub.q) for _ in range(10))
            v = tuple(rng.randrange(ext.sub.q) for _ in range(10))
            assert quantum_weight(u) == hamming_weight(ext.phi(u))
            assert symplectic_pair(ext.sub, u, v) == trace_alternating_pair(
                field, ext.phi(u), ext.phi(v)
            )


def test_phi_code_roundtrip(ex512):
    A = phi_code(ex512)
    assert A.is_additive and A.n == 5 and A.k_dim == 4
    back = phi_inv_code(A)
    assert back.gen.rows == ex512.gen.rows


def test_self_orthogonality_transports_through_phi(f2):
    rng = random.Random(91)
    for _ in range(20):
        C = symplectic_code(f2, [[rng.randrange(2) for _ in range(8)] for _ in range(3)])
        A = phi_code(C)
        alt_selforth = all(
            trace_alternating_pair(A.field, u, v) == 0
            for u in A.gen.rows
            for v in A.gen.rows
        )
        assert C.is_self_orthogonal() == alt_selforth


def test_even_additive_gf4_codes_are_trace_hermitian_self_orthogonal(f4):
    rng = random.Random(13)
    found = 0
    while found < 5:
        C = additive_code(f4, [[rng.randrange(4) for _ in range(4)] for _ in range(2)], n=4)
        words = all_codewords(C)
        if C.k_dim == 0 or any(hamming_weight(w) % 2 for w in words):
            continue
        found += 1
        for u in C.gen.rows:
            for v in C.gen.rows:
                assert trace_hermitian_pair(f4, u, v) == 0


def test_linear_trace_hermitian_self_orthogonal_gf4_code_is_even(hexacode):
    # the hexacode is Hermitian (hence trace-Hermitian) self-orthogonal
    for u in hexacode.gen.rows:
        for v in hexacode.gen.rows:
            assert hermitian_pair(hexacode.field, u, v) == 0
    assert all(hamming_weight(w) % 2 == 0 for w in all_codewords(hexacode))


# -- sums and file format --------------------------------------------------------


def test_sum_code(f2, hamming74, simplex73):
    S = sum_code(hamming74, simplex73)
    assert S.gen.rows == hamming74.gen.rows


@pytest.mark.parametrize("q", [2, 3, 4])
def test_stack_keeps_each_form_and_records_pivots_of_disjoint_rref_bases(q):
    """`_stack` puts A's rows over B's moved `shift` columns right, packed
    over GF(2); two rref bases in disjoint columns stack to the rref of the
    stack, its pivots recorded, and overlapping ones record no pivots."""
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(20):
        na, nb = rng.randrange(1, 6), rng.randrange(1, 6)
        A, B = (linear_code(f, [[rng.randrange(q) for _ in range(m)] for _ in range(3)], m).basis for m in (na, nb))
        for shift in range(max(0, na - nb), na + 2):
            width = shift + nb
            S = code._stack(A, B, shift)
            assert S.ncols == width and ("rows" not in vars(S)) == (q == 2)
            assert S.rows == (tuple(r + (0,) * (width - na) for r in A.rows)
                              + tuple((0,) * shift + r for r in B.rows))
            if shift < na:
                assert S._pivots is None
            else:
                R, _, pivots = fmatrix.rref(fmatrix.FqMatrix(f, S.rows, width))
                assert S._pivots == pivots and S == R


def test_each_constructor_reduces_once(monkeypatch, tmp_path, f3, f4):
    rows4 = [(1, 2, 3, 0), (2, 3, 1, 0), (0, 1, 1, 1), (1, 3, 2, 1)]
    rows3 = [(1, 2, 0, 1), (2, 1, 0, 2), (0, 1, 1, 1)]
    files = []
    for name, C in (("lin", linear_code(f4, rows4)), ("sym", symplectic_code(f3, rows3)),
                    ("add", additive_code(f4, rows4))):
        files.append(tmp_path / f"{name}.code")
        files[-1].write_text(dump_code(C))
    calls = []

    def counting_rref(M):
        calls.append(M)
        return real_rref(M)

    real_rref = fmatrix.rref
    monkeypatch.setattr(fmatrix, "rref", counting_rref)
    builds = [lambda: linear_code(f4, rows4), lambda: symplectic_code(f3, rows3),
              lambda: additive_code(f4, rows4)] + [lambda path=path: load_code(path) for path in files]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


def test_constructor_reduces_dependent_rows(f3, f4):
    rng = random.Random(83)
    ext = quad_ext(f4)
    for _ in range(10):
        base = [[rng.randrange(4) for _ in range(5)] for _ in range(2)]
        rows = base + [[f4.add(x, f4.mul(2, y)) for x, y in zip(*base)], [f4.mul(3, x) for x in base[1]]]
        C = linear_code(f4, rows)
        assert LinearCode(f4, 5, rows) == C
        assert LinearCode(f4, 5, fmatrix.matrix(f4, rows, 5)) == C
        assert C.k_dim == fmatrix.rank(fmatrix.matrix(f4, rows, 5))
        A = additive_code(f4, rows)
        assert LinearCode(f4, 5, [ext.phi_inv(r) for r in rows], "additive") == A
        sym = [[rng.randrange(3) for _ in range(6)] for _ in range(2)]
        sym.append([f3.add(x, y) for x, y in zip(*sym)])
        assert SymplecticCode(f3, 6, sym) == symplectic_code(f3, sym)


def test_file_roundtrip(ex512, hamming74, hexacode_additive):
    for C in (ex512, hamming74, hexacode_additive):
        D = parse_code(dump_code(C))
        assert D.gen.rows == C.gen.rows
        assert type(D) is type(C) and D.linearity == C.linearity


def test_parse_errors_name_the_line():
    with pytest.raises(CodeFileError, match="kind"):
        parse_code("field GF(2)\nlength 3\nkind weird\nrows\n")
    with pytest.raises(CodeFileError, match=":1:"):
        parse_code("field GF(6)\nlength 3\nkind linear\nrows\n")
    with pytest.raises(CodeFileError, match="row 1"):
        parse_code("field GF(2)\nlength 3\nkind linear\nrows\n1 0\n")
    with pytest.raises(CodeFileError, match="row 1"):
        parse_code("field GF(2)\nlength 3\nkind linear\nrows\n1 0 5\n")
    with pytest.raises(CodeFileError):
        parse_code("length 3\nkind linear\nrows\n")


def test_parse_header_keyword_matches_whole_token():
    with pytest.raises(CodeFileError, match=r"<string>:1: unrecognized header line 'fieldx GF\(2\)'"):
        parse_code("fieldx GF(2)\nlength 3\nkind linear\nrows\n")


def test_parse_header_repeated_is_rejected():
    with pytest.raises(CodeFileError, match="<string>:2: repeated 'field' header"):
        parse_code("field GF(2)\nfield GF(3)\nlength 3\nkind linear\nrows\n")


def test_parse_header_trailing_value_is_rejected():
    with pytest.raises(CodeFileError, match="<string>:2: expected 'length n'"):
        parse_code("field GF(2)\nlength 5 7\nkind linear\nrows\n")


def _gf2_file(kind, length, lines, sep="\n"):
    return sep.join(["field GF(2)", f"length {length}", f"kind {kind}", "rows", *lines]) + sep


_GF2_FILE_ROWS = (("linear", 7, linear_code, HAMMING74_ROWS),
                  ("symplectic", 5, symplectic_code, EX512_ROWS))


def _respelled(row, i):
    """Row i's entries in spellings int() reads as 0 and 1 but that are not
    the single characters '0' and '1'."""
    spell = (("00", "01"), ("+0", "+1"), ("0_0", "0_1"))
    return " ".join(spell[(i + j) % 3][x] for j, x in enumerate(row))


@pytest.mark.parametrize("style", ["single", "tabs", "comments", "crlf_bom", "spellings"])
@pytest.mark.parametrize("kind, length, make, rows", _GF2_FILE_ROWS, ids=["linear", "symplectic"])
def test_gf2_file_spellings_parse_as_the_code_of_their_rows(tmp_path, style, kind, length, make, rows):
    """However a GF(2) row is spelled, the file is the code `linear_code` or
    `symplectic_code` makes of the same rows: same basis, digest and dump."""
    f2 = field_of_order(2)
    lines = [" ".join(map(str, r)) for r in rows]
    if style == "tabs":
        lines = ["\t".join(map(str, r)) + "\t" for r in rows]
    elif style == "comments":
        lines = [x for line in lines for x in (line, "# between rows", "", "  # indented")]
    elif style == "spellings":
        lines = [_respelled(r, i) for i, r in enumerate(rows)]
    if style == "crlf_bom":
        path = tmp_path / "crlf.code"
        path.write_bytes(b"\xef\xbb\xbf" + _gf2_file(kind, length, lines, "\r\n").encode())
        got = load_code(path)
    else:
        got = parse_code(_gf2_file(kind, length, lines))
    built = make(f2, rows, length)
    assert type(got) is type(built) and got.basis == built.basis
    assert code_digest(got) == code_digest(built) and dump_code(got) == dump_code(built)


@pytest.mark.parametrize("kind, length, make, rows", _GF2_FILE_ROWS, ids=["linear", "symplectic"])
def test_gf2_file_rows_of_single_bits_are_read_as_ints(monkeypatch, kind, length, make, rows):
    """A GF(2) file as `dump_code` writes it packs no symbol row: each row of
    single 0 and 1 tokens is read as its int.  A row spelled otherwise is
    read as symbols, checked, and packed."""
    text = dump_code(make(field_of_order(2), rows, length))
    packs = []
    pack = fmatrix._pack
    monkeypatch.setattr(fmatrix, "_pack", lambda row: packs.append(row) or pack(row))
    assert dump_code(parse_code(text)) == text and packs == []
    lines = text.splitlines()
    i = lines.index("rows") + 1
    row = tuple(map(int, lines[i].split()))
    lines[i] = _respelled(row, 0)
    assert dump_code(parse_code("\n".join(lines))) == text and packs == [row]


@pytest.mark.parametrize("kind, length, body, message", [
    ("linear", 3, ["1 0 1", "0 2 1"], "f.code:6: row 2 has entries outside [0, 2)"),
    ("linear", 3, ["1 0 1", "# between", "-1 0 1"], "f.code:7: row 2 has entries outside [0, 2)"),
    ("linear", 3, ["1_0 1 0"], "f.code:5: row 1 has entries outside [0, 2)"),
    ("linear", 3, ["1 0 1", "1 x 1"], "f.code:6: row entries must be integers"),
    ("linear", 3, ["1 0 1", "", "1 0"], "f.code:7: row 2 has 2 entries, expected 3"),
    ("linear", 3, ["1 0 1 1"], "f.code:5: row 1 has 4 entries, expected 3"),
    ("linear", 3, ["1 0", "1 x 0"], "f.code:6: row entries must be integers"),
    ("symplectic", 2, ["1 0 1 2"], "f.code:5: row 1 has entries outside [0, 2)"),
    ("symplectic", 2, ["1 0 1 0", "1 0 1"], "f.code:6: row 2 has 3 entries, expected 4"),
    ("symplectic", 2, ["1 0 1 0 1"], "f.code:5: row 1 has 5 entries, expected 4"),
])
def test_gf2_file_row_errors_keep_their_text(kind, length, body, message):
    """A bad GF(2) row is named by file:line, with the text rows of every
    field get; an entry that is not an integer is reported before any row
    check."""
    with pytest.raises(CodeFileError) as e:
        parse_code(_gf2_file(kind, length, body), name="f.code")
    assert str(e.value) == message
