"""Field arithmetic tests, cross-checked against schoolbook polynomial math."""

from __future__ import annotations

import itertools
import random

import pytest

from stabforge.errors import NotPrime, NotSubfield, UnsupportedSize
from stabforge import gf
from stabforge.gf import Field, field_make, field_of_order


def poly_mulmod(a, b, mod, p):
    """Independent schoolbook (a*b) mod `mod` over GF(p), low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    m = len(mod) - 1
    for deg in range(len(out) - 1, m - 1, -1):
        c = out[deg]
        if c:
            for j in range(m + 1):
                out[deg - m + j] = (out[deg - m + j] - c * mod[j]) % p
    return tuple(out[:m])


def mul_oracle(F, a, b):
    prod = poly_mulmod(F.digits(a), F.digits(b), F.modulus, F.p)
    return F.from_digits(prod)


def pow_oracle(F, a, e):
    """a^e for e >= 0 by schoolbook square-and-multiply."""
    acc = 1
    while e:
        if e & 1:
            acc = mul_oracle(F, acc, a)
        a = mul_oracle(F, a, a)
        e >>= 1
    return acc


def sub_oracle(F, a, b):
    return F.from_digits([(x - y) % F.p for x, y in zip(F.digits(a), F.digits(b))])


PRIMES = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
# (p, m) of every supported order q = p^m <= 256
FIELDS = sorted(((p, m) for p in PRIMES for m in range(1, 9) if p**m <= 256), key=lambda pm: pm[0] ** pm[1])


def oracle_pairs(F):
    """Every pair of residues for q <= 64; a seeded sample above that."""
    if F.q <= 64:
        return list(itertools.product(F.elements(), repeat=2))
    rng = random.Random(F.q)
    return [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(600)]


def oracle_elements(F):
    """Every residue for q <= 64; a seeded sample, 0 and 1 included, above."""
    if F.q <= 64:
        return list(F.elements())
    return [0, 1] + random.Random(F.q).sample(range(2, F.q), 14)


def test_prime_field_trivial_modulus():
    F2 = field_make(2, 1)
    assert F2.q == 2 and F2.modulus == (0, 1)
    assert F2.add(1, 1) == 0 and F2.mul(1, 1) == 1


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    F4 = field_make(2, 2)
    assert F4.modulus == (1, 1, 1)
    # x^2 + x + 1 has no root in GF(2)
    for x in (0, 1):
        assert (x * x + x + 1) % 2 == 1


def test_gf9_modulus_irreducible_by_evaluation():
    F9 = field_make(3, 2)
    assert F9.modulus == (2, 2, 1)
    for x in (0, 1, 2):
        assert (x * x + 2 * x + 2) % 3 != 0


@pytest.mark.parametrize(
    "p,m,modulus",
    [(2, 2, (1, 0, 1)), (2, 2, (0, 1, 1)), (2, 4, (1, 1, 1, 1, 1))],
    ids=["x2+1-reducible", "x2+x-reducible", "gf16-irreducible-not-primitive"],
)
def test_bad_modulus_is_rejected_when_tables_are_built(monkeypatch, p, m, modulus):
    # Field itself, not the cached field_make, so the patched entry is read
    monkeypatch.setitem(gf._CONWAY, (p, m), modulus)
    with pytest.raises(RuntimeError, match="not primitive"):
        Field(p, m)


@pytest.mark.parametrize("p,m", FIELDS)
def test_table_multiplication_matches_schoolbook(p, m):
    F = field_make(p, m)
    for a, b in oracle_pairs(F):
        assert F.mul(a, b) == mul_oracle(F, a, b)


@pytest.mark.parametrize("p,m", FIELDS)
def test_inverses(p, m):
    F = field_make(p, m)
    for a in range(1, F.q):
        assert mul_oracle(F, a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,m", FIELDS)
def test_div_sub_neg_match_schoolbook(p, m):
    F = field_make(p, m)
    for a, b in oracle_pairs(F):
        assert F.sub(a, b) == sub_oracle(F, a, b)
        if b:
            assert mul_oracle(F, F.div(a, b), b) == a
    for a in F.elements():
        assert F.neg(a) == sub_oracle(F, 0, a)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


@pytest.mark.parametrize("p,m", FIELDS)
def test_pow_and_frob_match_schoolbook(p, m):
    F = field_make(p, m)
    q = F.q
    exponents = (0, 1, 2, 3, p, q - 1, q, q + 1, 2 * q + 3)
    for a in oracle_elements(F):
        for e in exponents:
            assert F.pow(a, e) == pow_oracle(F, a, e)
            if a:
                assert mul_oracle(F, F.pow(a, -e), pow_oracle(F, a, e)) == 1
        for k in range(-1, m + 2):
            assert F.frob(a, k) == pow_oracle(F, a, p ** (k % m))
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_trace_gf4_examples():
    F4, F2 = field_make(2, 2), field_make(2, 1)
    w = F4.p  # the residue of x
    # w^2 = w + 1 under the fixed modulus, so Tr(w) = w + w^2 = 1
    assert F4.trace_to(w, F2) == 1
    assert F4.trace_to(0, F2) == 0


def test_trace_gf9_example():
    F9, F3 = field_make(3, 2), field_make(3, 1)
    a = F9.p  # the residue of x
    # oracle: a^3 computed schoolbook, trace summed coefficient-wise
    a3 = mul_oracle(F9, mul_oracle(F9, a, a), a)
    tr_big = F9.add(a, a3)
    assert tr_big == 1
    assert F9.trace_to(a, F3) == 1


@pytest.mark.parametrize(
    "big,sub",
    [((2, 2), (2, 1)), ((3, 2), (3, 1)), ((2, 4), (2, 2)), ((2, 4), (2, 1)), ((3, 4), (3, 2))],
)
def test_trace_additive_linear_and_surjective(big, sub):
    B, S = field_make(*big), field_make(*sub)
    fwd, _ = B.embedding(S)
    for x in B.elements():
        for y in B.elements():
            assert B.trace_to(B.add(x, y), S) == S.add(B.trace_to(x, S), B.trace_to(y, S))
    for c in S.elements():
        for x in B.elements():
            lhs = B.trace_to(B.mul(fwd[c], x), S)
            assert lhs == S.mul(c, B.trace_to(x, S))
    assert {B.trace_to(x, S) for x in B.elements()} == set(S.elements())


def test_frobenius_examples():
    F4 = field_make(2, 2)
    w = F4.p  # the residue of x
    assert F4.frob(w, 1) == F4.mul(w, w)
    for x in F4.elements():
        assert F4.frob(x, F4.m) == x
    F9 = field_make(3, 2)
    for x in F9.elements():
        for y in F9.elements():
            assert F9.frob(F9.add(x, y)) == F9.add(F9.frob(x), F9.frob(y))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (7, 2)])
def test_frobenius_is_field_automorphism(p, m):
    F = field_make(p, m)
    for a in F.elements():
        for b in F.elements():
            assert F.frob(F.mul(a, b)) == F.mul(F.frob(a), F.frob(b))
    assert sorted(F.frob(a) for a in F.elements()) == list(F.elements())


@pytest.mark.parametrize("big,sub", [((2, 4), (2, 2)), ((3, 4), (3, 2)), ((2, 8), (2, 4)), ((2, 6), (2, 3))])
def test_subfield_embedding_is_ring_homomorphism(big, sub):
    B, S = field_make(*big), field_make(*sub)
    fwd, back = B.embedding(S)
    for a in S.elements():
        for b in S.elements():
            assert B.add(fwd[a], fwd[b]) == fwd[S.add(a, b)]
            assert B.mul(fwd[a], fwd[b]) == fwd[S.mul(a, b)]
    assert all(back[fwd[a]] == a for a in S.elements())


def test_field_of_order():
    assert field_of_order(16) is field_make(2, 4)
    assert field_of_order(13) is field_make(13, 1)
    with pytest.raises(NotPrime):
        field_of_order(12)


def test_errors():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(UnsupportedSize):
        field_make(2, 9)
    with pytest.raises(UnsupportedSize):
        field_make(17, 2)
    with pytest.raises(NotSubfield):
        field_make(2, 3).trace_to(1, field_make(2, 2))
    with pytest.raises(NotSubfield):
        field_make(3, 2).trace_to(1, field_make(2, 1))


def test_all_supported_prime_powers_construct():
    orders = [4, 8, 16, 32, 64, 128, 256, 9, 27, 81, 243, 25, 125, 49, 121, 169]
    orders += [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    for q in orders:
        F = field_of_order(q)
        assert F.q == q
