"""Code families for the corpus, with their analytic parameters.

Classical codes are lists of generator rows over GF(q) residues; stabilizer
codes are lists of symplectic rows (a|b) of length 2n.  Everything here
uses only `bench.gf`, never `stabforge`.
"""

from __future__ import annotations

import itertools

from gf import GF, rref, symplectic


# -- classical families ------------------------------------------------------


def kernel(F: GF, rows, n: int) -> list[list[int]]:
    """Basis of {v : v . r = 0 for every row r}."""
    R = rref(F, rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in R]
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for r, pc in zip(R, pivots):
            v[pc] = int(F.neg[r[fc]])
        out.append(v)
    return out


def hamming(m: int) -> list[list[int]]:
    """Binary Hamming [2^m - 1, 2^m - 1 - m, 3]."""
    n = 2**m - 1
    checks = [[(c >> i) & 1 for c in range(1, n + 1)] for i in range(m)]
    return kernel(GF(2), checks, n)


def even_weight(n: int) -> list[list[int]]:
    return [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n - 1)]


def reed_muller(r: int, m: int) -> list[list[int]]:
    """RM(r, m): evaluations of monomials of degree <= r on F_2^m; d = 2^(m-r)."""
    points = list(itertools.product((0, 1), repeat=m))
    return [
        [int(all(p[i] for i in support)) for p in points]
        for deg in range(r + 1)
        for support in itertools.combinations(range(m), deg)
    ]


def golay23() -> list[list[int]]:
    """Binary Golay [23, 12, 7] from g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11."""
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    return [[0] * i + g + [0] * (11 - i) for i in range(12)]


def rs(F: GF, points, k: int, mult=None) -> list[list[int]]:
    """Generalized Reed-Solomon rows v_a * a^i (i < k) on the given points."""
    mult = mult or [1] * len(points)
    return [[int(F.mul[v, F.pow(a, i)]) for a, v in zip(points, mult)] for i in range(k)]


def rs_dual_multipliers(F: GF, points) -> list[int]:
    """v_a = 1 / prod_{b != a} (a - b): RS_k(S)^perp = GRS_{n-k}(S, v)."""
    out = []
    for a in points:
        prod = 1
        for b in points:
            if b != a:
                prod = int(F.mul[prod, F.add[a, F.neg[b]]])
        out.append(int(F.inv[prod]))
    return out


def conj_rows(F: GF, rows) -> list[list[int]]:
    return [[int(x) for x in F.conj(r)] for r in rows]


# -- stabilizer families -----------------------------------------------------


def css_rows(dual1, dual2, n: int) -> list[list[int]]:
    """Stabilizer of CSS(C1, C2): X-part from C1^perp rows, Z-part from C2^perp rows."""
    return [list(r) + [0] * n for r in dual1] + [[0] * n + list(r) for r in dual2]


def five_qudit(F: GF) -> list[list[int]]:
    """[[5,1,3]]_q: cyclic shifts of X Z Z^-1 X^-1 I."""
    one, m1 = 1, int(F.neg[1])
    rows = []
    for s in range(4):
        a = [0] * 5
        b = [0] * 5
        a[s % 5], a[(s + 3) % 5] = one, m1
        b[(s + 1) % 5], b[(s + 2) % 5] = one, m1
        rows.append(a + b)
    return rows


def shor9() -> list[list[int]]:
    z = [[1 if j in (i, i + 1) else 0 for j in range(9)] for i in (0, 1, 3, 4, 6, 7)]
    x = [[1 if j < 6 else 0 for j in range(9)], [1 if j >= 3 else 0 for j in range(9)]]
    return [r + [0] * 9 for r in x] + [[0] * 9 + r for r in z]


# -- seeded transforms -------------------------------------------------------


def permute(rows, perm):
    return [[r[p] for p in perm] for r in rows]


def permute_symplectic(rows, perm):
    n = len(perm)
    return [[r[p] for p in perm] + [r[n + p] for p in perm] for r in rows]


def local_transform(F: GF, rows, rng):
    """Apply an independent random SL(2, q) map to each qudit's (a_i, b_i)."""
    n = len(rows[0]) // 2
    mats = []
    for _ in range(n):
        while True:
            a, b, c, d = (rng.randrange(F.q) for _ in range(4))
            det = int(F.add[F.mul[a, d], F.neg[F.mul[b, c]]])
            if det == 1:
                break
        mats.append((a, b, c, d))
    out = []
    for r in rows:
        x, z = list(r[:n]), list(r[n:])
        for i, (a, b, c, d) in enumerate(mats):
            xi, zi = x[i], z[i]
            x[i] = int(F.add[F.mul[a, xi], F.mul[b, zi]])
            z[i] = int(F.add[F.mul[c, xi], F.mul[d, zi]])
        out.append(x + z)
    return out


def random_stabilizer(F: GF, n: int, k: int, rng):
    """Random [[n, k]]_q stabilizer from the standard form Z_1..Z_{n-k}
    under a product of random symplectic transvections.

    Returns (stabilizer rows, extra rows) where stabilizer + extra is a
    basis of the symplectic dual, stabilizer rows first.
    """
    r = n - k

    def unit(i):
        v = [0] * (2 * n)
        v[i] = 1
        return v

    stab = [unit(n + i) for i in range(r)]
    extra = [unit(n + i) for i in range(r, n)] + [unit(i) for i in range(r, n)]
    for _ in range(4 * n):
        v = [rng.randrange(F.q) for _ in range(2 * n)]
        c = rng.randrange(1, F.q)

        def tv(x):
            s = int(F.mul[c, symplectic(F, x, v)])
            return [int(F.add[xi, F.mul[s, vi]]) for xi, vi in zip(x, v)]

        stab = [tv(x) for x in stab]
        extra = [tv(x) for x in extra]
    return stab, extra


def random_row_mix(F: GF, rows, rng):
    """The same span under a random triangular change of basis and a row
    shuffle, so files of one code differ and do not carry the basis the
    reference enumerates."""
    out = []
    for i, r in enumerate(rows):
        a = rng.randrange(1, F.q)
        v = [int(F.mul[a, x]) for x in r]
        for s in rows[:i]:
            c = rng.randrange(F.q)
            v = [int(F.add[x, F.mul[c, y]]) for x, y in zip(v, s)]
        out.append(v)
    rng.shuffle(out)
    return out


# -- the code-file format ----------------------------------------------------


def code_text(q: int, length: int, kind: str, rows) -> str:
    lines = [f"field GF({q})", f"length {length}", f"kind {kind}", "rows"]
    lines += [" ".join(str(int(x)) for x in r) for r in rows]
    return "\n".join(lines) + "\n"
