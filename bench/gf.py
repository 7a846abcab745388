"""Finite-field arithmetic for corpus generation and reference answers.

Written independently of `stabforge` so that the reference side of the
benchmark does not share code with the system it checks.  Elements use the
code-file encoding: the base-p digits of a residue are the coefficients of
its polynomial, lowest degree first, modulo the Conway polynomial of the
field.  Addition and multiplication are full q x q numpy tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Conway polynomials, lowest degree first, monic (Lubeck's tables).
CONWAY = {
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
}


def prime_power(q: int) -> tuple[int, int]:
    p = 2
    while q % p:
        p += 1
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


class GF:
    """GF(q) with table arithmetic on residues."""

    def __init__(self, q: int):
        p, m = prime_power(q)
        self.p, self.m, self.q = p, m, q
        digits = np.array([[(r // p**i) % p for i in range(m)] for r in range(q)], dtype=np.int64)
        weights = p ** np.arange(m, dtype=np.int64)
        self.add = (((digits[:, None, :] + digits[None, :, :]) % p) @ weights).astype(np.int64)
        self.neg = (((-digits) % p) @ weights).astype(np.int64)
        # multiplication by x: shift digits up, reduce by the monic modulus
        mod = CONWAY.get((p, m), (0, 1))

        def times_x(r: int) -> int:
            d = [0] + [int(v) for v in digits[r]]
            top = d.pop()
            return int(sum(((d[i] - top * mod[i]) % p) * p**i for i in range(m)))

        if m > 1:
            step = times_x  # x is primitive modulo a Conway polynomial
        else:
            g = next(g for g in range(1, p) if self._order_mod_p(g) == p - 1)
            step = lambda v: v * g % p  # noqa: E731
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = step(v)
        if v != 1 or len(set(exp.tolist())) != q - 1:
            raise RuntimeError(f"no primitive element found for GF({q})")
        nz = np.arange(1, q)
        self.mul = np.zeros((q, q), dtype=np.int64)
        self.mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
        self.inv = np.zeros(q, dtype=np.int64)
        self.inv[1:] = exp[(-log[nz]) % (q - 1)]

    def _order_mod_p(self, g: int) -> int:
        k, v = 1, g % self.p
        while v != 1:
            v = v * g % self.p
            k += 1
        return k

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = int(self.mul[r, a])
        return r

    def conj(self, a):
        """a^sqrt(q) on a residue or an array of residues (square q only)."""
        s = 1
        for _ in range(self.m // 2):
            s *= self.p
        out = np.ones_like(np.asarray(a))
        base = np.asarray(a)
        for _ in range(s):
            out = self.mul[out, base]
        return out


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def rref(F: GF, rows) -> list[list[int]]:
    """Reduced row echelon basis of the span of `rows` (zero rows dropped)."""
    mat = [list(map(int, r)) for r in rows]
    out = []
    col = 0
    ncols = len(mat[0]) if mat else 0
    while mat and col < ncols:
        piv = next((i for i, r in enumerate(mat) if r[col]), None)
        if piv is None:
            col += 1
            continue
        r = mat.pop(piv)
        s = int(F.inv[r[col]])
        r = [int(F.mul[s, x]) for x in r]
        mat = [reduce_row(F, m, r, col) for m in mat]
        out = [reduce_row(F, o, r, col) for o in out]
        out.append(r)
        mat = [m for m in mat if any(m)]
        col += 1
    return out


def reduce_row(F: GF, v, pivot_row, col) -> list[int]:
    c = v[col]
    if not c:
        return v
    nc = int(F.neg[c])
    return [int(F.add[x, F.mul[nc, y]]) for x, y in zip(v, pivot_row)]


def rank(F: GF, rows) -> int:
    return len(rref(F, rows))


def in_span(F: GF, rows, v) -> bool:
    return rank(F, list(rows) + [v]) == rank(F, rows)


def dot(F: GF, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = int(F.add[acc, F.mul[int(x), int(y)]])
    return acc


def symplectic(F: GF, u, v) -> int:
    """b.a' - b'.a for u = (a|b), v = (a'|b')."""
    n = len(u) // 2
    return int(F.add[dot(F, u[n:], v[:n]), F.neg[dot(F, v[n:], u[:n])]])
