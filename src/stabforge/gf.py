"""Exact arithmetic in GF(p^m) for prime powers up to 256.

Elements are encoded as integer residues in [0, q): the base-p digits of
the residue are the coefficients of the representative polynomial, lowest
degree first.  Every extension field is built modulo a fixed Conway
polynomial so that serialized codes are portable and subfield embeddings
are canonical; prime fields use the trivial modulus x.

Multiplication and inversion go through log/antilog tables built once per
field from schoolbook polynomial arithmetic; addition reads a q x q table
built once from the digit encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotPrime, NotSubfield, UnsupportedSize

# Conway polynomials, coefficients lowest degree first, monic.
# Keys are (p, m) for every prime power p^m <= 256 with m >= 2.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    while q % p == 0:
        q //= p
    return q == 1


# -- polynomial helpers over GF(p), coefficient tuples, lowest degree first


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """(a * b) mod `mod` over GF(p); `mod` is monic."""
    m = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial
    for deg in range(len(out) - 1, m - 1, -1):
        c = out[deg]
        if c == 0:
            continue
        out[deg] = 0
        for j in range(m + 1):
            out[deg - m + j] = (out[deg - m + j] - c * mod[j]) % p
    out = out[:m] if m else []
    return _poly_trim(tuple(out))


def _poly_divides(d: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """Whether monic d divides f over GF(p)."""
    r = list(f)
    dd = len(d) - 1
    while len(_poly_trim(tuple(r))) - 1 >= dd and _poly_trim(tuple(r)):
        r = list(_poly_trim(tuple(r)))
        if len(r) - 1 < dd:
            break
        c = r[-1]
        shift = len(r) - 1 - dd
        for j in range(dd + 1):
            r[shift + j] = (r[shift + j] - c * d[j]) % p
        r = list(_poly_trim(tuple(r)))
        if not r:
            return True
    return not _poly_trim(tuple(r))


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Exhaustive root/factor check, valid for degree <= 8."""
    m = len(mod) - 1
    if m == 1:
        return True
    for x in range(p):  # linear factors
        acc = 0
        for c in reversed(mod):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    # trial division by monic polynomials of degree 2 .. m//2
    for deg in range(2, m // 2 + 1):
        for enc in range(p**deg):
            cand = []
            e = enc
            for _ in range(deg):
                cand.append(e % p)
                e //= p
            cand.append(1)
            if _poly_divides(tuple(cand), mod, p):
                return False
    return True


class Field:
    """A finite field GF(p^m) with fixed modulus, q = p^m <= 256.

    Immutable after construction; safe to share between workers.  Obtain
    instances through :func:`field_make` or :func:`field_of_order`, which
    cache one object per order.
    """

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if m < 1 or m > 8 or p**m > 256:
            raise UnsupportedSize(f"GF({p}^{m}) outside supported range (q <= 256, m <= 8)")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus: tuple[int, ...] = _CONWAY[(p, m)] if m > 1 else (0, 1)
        if m > 1 and not _is_irreducible(self.modulus, p):
            raise RuntimeError(f"modulus table entry for GF({p}^{m}) is reducible")
        self._build_tables()
        self._embeddings: dict[tuple[int, int], tuple[list[int], dict[int, int]]] = {}

    # -- residue <-> coefficient encoding

    def digits(self, r: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(r % self.p)
            r //= self.p
        return tuple(out)

    def from_digits(self, digits) -> int:
        r = 0
        for d in reversed(list(digits)[: self.m]):
            r = r * self.p + d
        return r

    def _build_tables(self):
        p, q = self.p, self.q
        # log/antilog tables; the residue of x (i.e. p) is primitive for
        # every Conway modulus, which the loop below effectively verifies
        gen = self.p if self.m > 1 else self._smallest_primitive_root()
        exp = [0] * max(q - 1, 1)
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self.mul_schoolbook(v, gen)
        if v != 1 or (q > 2 and len(set(exp)) != q - 1):
            raise RuntimeError(f"generator {gen} is not primitive in GF({q})")
        self._exp = exp
        self._log = log
        self.generator = gen
        # add digit by digit and mul through the logs, as q x q tables
        res = np.arange(q)
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for j in range(self.m):
            d = res // p**j % p
            add += (d[:, None] + d) % p * p**j
            neg += -d % p * p**j
        log_a = np.array(log)
        mul = np.array(exp)[(log_a[:, None] + log_a) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
        self._np_tables = (add.astype(np.uint8), mul.astype(np.uint8))
        self._add = add.tolist()
        self._neg = neg.tolist()
        # one-step Frobenius r -> r^p
        self._frob1 = [self.pow(r, p) for r in range(q)]

    def _smallest_primitive_root(self) -> int:
        if self.p == 2:
            return 1
        for g in range(2, self.p):
            v, seen = g % self.p, 1
            while v != 1:
                v = v * g % self.p
                seen += 1
            if seen == self.p - 1:
                return g
        raise RuntimeError("no primitive root found")

    # -- scalar arithmetic on residues

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def mul_schoolbook(self, a: int, b: int) -> int:
        """Polynomial multiply mod the modulus; used to bootstrap and to
        cross-check the log tables."""
        if self.m == 1:
            return a * b % self.p
        prod = _poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.p)
        return self.from_digits(prod + (0,) * (self.m - len(prod)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def frob(self, a: int, k: int = 1) -> int:
        """a^(p^k); the Frobenius automorphism iterated k times."""
        for _ in range(k % self.m):
            a = self._frob1[a]
        return a

    def conj(self, a: int) -> int:
        """a^sqrt(q), the conjugation of a square-order field."""
        if self.m % 2:
            raise NotSubfield(f"GF({self.q}) has no index-2 subfield")
        return self.frob(a, self.m // 2)

    def elements(self) -> range:
        return range(self.q)

    def dot(self, u, v) -> int:
        """Euclidean dot product of residue sequences."""
        acc = 0
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc

    # -- subfields

    def is_subfield(self, sub: Field) -> bool:
        return sub.p == self.p and self.m % sub.m == 0

    def embedding(self, sub: Field) -> tuple[list[int], dict[int, int]]:
        """Canonical embedding of `sub` into this field.

        Returns (fwd, back): fwd[r] is the image of residue r, back inverts
        it.  The generator of the subfield maps to x^((q-1)/(q_sub-1)),
        which lands on a root of the subfield modulus because the moduli
        are Conway-compatible; this is verified once per pair.
        """
        if not self.is_subfield(sub):
            raise NotSubfield(f"GF({sub.q}) is not a subfield of GF({self.q})")
        key = (sub.p, sub.m)
        if key in self._embeddings:
            return self._embeddings[key]
        if sub.m == 1:
            fwd = list(range(sub.q))  # prime subfield sits on the constants
        else:
            e = (self.q - 1) // (sub.q - 1)
            img_x = self.pow(self.p, e)
            # image of x_sub must be a root of the subfield modulus
            acc = 0
            for c in reversed(sub.modulus):
                acc = self.add(self.mul(acc, img_x), c % self.p)
            if acc != 0:
                raise RuntimeError(
                    f"moduli of GF({sub.q}) and GF({self.q}) are not compatible"
                )
            fwd = []
            for r in range(sub.q):
                acc = 0
                for c in reversed(sub.digits(r)):
                    acc = self.add(self.mul(acc, img_x), c)
                fwd.append(acc)
        back = {v: r for r, v in enumerate(fwd)}
        if len(back) != sub.q:
            raise RuntimeError("embedding is not injective")
        self._embeddings[key] = (fwd, back)
        return fwd, back

    def trace_to(self, a: int, sub: Field) -> int:
        """Trace of residue a down to `sub`, returned as a residue of sub."""
        if not self.is_subfield(sub):
            raise NotSubfield(f"GF({sub.q}) is not a subfield of GF({self.q})")
        steps = self.m // sub.m
        acc, v = 0, a
        for _ in range(steps):
            acc = self.add(acc, v)
            v = self.frob(v, sub.m)
        _, back = self.embedding(sub)
        return back[acc]

    # -- numpy tables for the vectorized enumeration engine

    def np_tables(self):
        """(add, mul) tables as q x q uint8 arrays, built with the field."""
        return self._np_tables

    def element(self, rep: int) -> FieldElement:
        return FieldElement(self, rep % self.q)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def x(self) -> FieldElement:
        """The residue class of x, the canonical generator for m >= 2."""
        return FieldElement(self, self.p if self.m > 1 else 1)

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_make(p: int, m: int) -> Field:
    """Construct (or fetch the cached) GF(p^m) with its fixed modulus."""
    return Field(p, m)


def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q <= 256."""
    if q < 2:
        raise UnsupportedSize(f"no field of order {q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q  # q itself is prime
    m = 0
    n = q
    while n % p == 0 and n > 1:
        n //= p
        m += 1
    if n != 1:
        raise NotPrime(f"{q} is not a prime power")
    return field_make(p, m)


@dataclass(frozen=True)
class FieldElement:
    """An element of a fixed field, canonical residue encoding."""

    field: Field
    rep: int

    def _check(self, other: FieldElement):
        if other.field is not self.field:
            raise NotSubfield("elements live in different fields")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.add(self.rep, other.rep))

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.rep, other.rep))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, self.field.neg(self.rep))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.rep, other.rep))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.div(self.rep, other.rep))

    def __pow__(self, e: int) -> FieldElement:
        return FieldElement(self.field, self.field.pow(self.rep, e))

    def inverse(self) -> FieldElement:
        return FieldElement(self.field, self.field.inv(self.rep))

    def __bool__(self) -> bool:
        return self.rep != 0

    def __repr__(self) -> str:
        return f"GF({self.field.q})[{self.rep}]"


def frobenius(x: FieldElement, k: int = 1) -> FieldElement:
    """x^(p^k); bijective on the field, identity when k is the degree."""
    return FieldElement(x.field, x.field.frob(x.rep, k))


def trace(x: FieldElement, sub: Field) -> FieldElement:
    """Trace map down to a subfield: sum of the conjugates of x over sub."""
    return FieldElement(sub, x.field.trace_to(x.rep, sub))
