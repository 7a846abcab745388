"""Exact arithmetic in GF(p^m) for prime powers up to 256.

Elements are encoded as integer residues in [0, q): the base-p digits of
the residue are the coefficients of the representative polynomial, lowest
degree first.  Every extension field is built modulo a fixed Conway
polynomial so that serialized codes are portable and subfield embeddings
are canonical; prime fields use the trivial modulus x.

The arithmetic of a field is its q x q addition and multiplication tables,
built once at construction, with the negation, inverse and Frobenius
lookups read off them.  Addition works digit by digit; prime fields
multiply as a*b mod p, and extension fields fill the multiplication table
from the powers of x, each one x times the last reduced by the modulus.
Every scalar operation is one table lookup, or square-and-multiply for
powers.
"""

from __future__ import annotations

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


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m, or None when q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q  # q itself is prime
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


class Field:
    """A finite field GF(p^m) with fixed modulus, q = p^m <= 256.

    Immutable after construction; safe to share between workers.  Obtain
    instances through :func:`field_make` or :func:`field_of_order`, which
    cache one object per order.
    """

    def __init__(self, p: int, m: int):
        if _prime_power(p) != (p, 1):
            raise NotPrime(f"characteristic {p} is not prime")
        if m < 1 or m > 8 or p**m > 256:
            raise UnsupportedSize(f"GF({p}^{m}) outside supported range (q <= 256, m <= 8)")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus: tuple[int, ...] = _CONWAY[(p, m)] if m > 1 else (0, 1)
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
        p, m, q = self.p, self.m, self.q
        res = np.arange(q)
        add = np.zeros((q, q), dtype=np.int16)
        neg = np.zeros(q, dtype=np.int16)
        for j in range(m):
            d = (res // p**j % p).astype(np.int16)
            add += (d[:, None] + d) % p * p**j
            neg += -d % p * p**j
        self._add = add.tolist()
        if m == 1:
            mul = res[:, None] * res % p
        else:
            # x * v shifts the digits of v up one place; the digit c carried
            # out of degree m - 1 comes back as -c * (modulus - x^m)
            top = p ** (m - 1)
            fold = [sum(-c * a % p * p**j for j, a in enumerate(self.modulus[:m])) for c in range(p)]
            exp = [1]
            for _ in range(q - 2):
                v = exp[-1]
                exp.append(self._add[v % top * p][fold[v // top]])
            # q - 1 distinct nonzero powers make x a unit (the ideal xR would
            # hold q - 1 of the q residues otherwise) of order q - 1, so every
            # nonzero residue is a unit: a reducible modulus fails here too
            if 0 in exp or len(set(exp)) != q - 1:
                raise RuntimeError(f"x is not primitive in GF({q})")
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            mul = np.array(exp)[(log[:, None] + log) % (q - 1)]
            mul[0, :] = mul[:, 0] = 0
        inv = np.argmax(mul == 1, axis=1)  # inv[0] = 0 is never read
        self._np_tables = (add.astype(np.uint8), mul.astype(np.uint8))
        self._mul, self._neg, self._inv = mul.tolist(), neg.tolist(), inv.tolist()
        # one-step Frobenius r -> r^p
        self._frob1 = [self.pow(r, p) for r in range(q)]

    # -- scalar arithmetic on residues

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        mul, acc = self._mul, 1
        while e:
            if e & 1:
                acc = mul[acc][a]
            a = mul[a][a]
            e >>= 1
        return acc

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
        add, mul, acc = self._add, self._mul, 0
        for x, y in zip(u, v):
            acc = add[acc][mul[x][y]]
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

    # -- the tables themselves, for vectorized and row-wise callers

    def np_tables(self):
        """(add, mul) tables as q x q uint8 arrays, built with the field."""
        return self._np_tables

    def tables(self):
        """(add, mul, neg, inv) as the nested lists the scalar methods read;
        `mul[a]` is the row of products with a, so one lookup per entry
        scales a vector."""
        return self._add, self._mul, self._neg, self._inv

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
    pm = _prime_power(q)
    if pm is None:
        raise NotPrime(f"{q} is not a prime power")
    return field_make(*pm)

