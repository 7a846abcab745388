"""Seeded corpora of CLI items, one per workload, with reference answers.

An item is one `stabforge` invocation (an argv list) plus what its output
must show.  A corpus is a list of rounds; every round holds the same mix of
templates, and every item gets its own freshly written code file.  The seed
draws a coordinate permutation (and, for symplectic files, a per-qudit
SL(2, q) transform) for every named code, and draws the random codes;
analytic references are invariant under both.
"""

from __future__ import annotations

import math
import os
import random
from functools import lru_cache

import brute
import codes as cf
from gf import GF, dot, gf, rank, rref

WORKLOADS = ("qubit-exhaustive", "qudit-small", "budget-layered")

# Items that fail at the parent commit because of recorded defects.  They
# stay in the corpus and count in ok_frac, but not in the run's `failed`.
KNOWN_DEFECTS = {
    "defect-budget-neg": "--budget -1 raises a ValueError traceback instead of a usage error (exit 2)",
    "defect-length-neg": "'length -1' is reported as a zero code, not as a file:line input error",
    "defect-singleton-q6": "bounds --singleton accepts the non-prime-power q = 6 and exits 0",
    "defect-row-length": "a row of the wrong length is reported by row number, not file:line",
    "defect-entry-range": "an out-of-range entry is reported by row number, not file:line",
}


class Builder:
    def __init__(self, root: str, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        self.rounds: list[list[dict]] = []
        self.fields: set[int] = set()
        os.makedirs(root, exist_ok=True)

    def start_round(self):
        self.rounds.append([])

    def file(self, label: str, text: str) -> str:
        r, i = len(self.rounds) - 1, len(self.rounds[-1])
        path = os.path.join(self.root, f"r{r:03d}-{i:02d}-{label}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, template: str, argv: list[str], expect: dict):
        r, i = len(self.rounds) - 1, len(self.rounds[-1])
        self.rounds[-1].append({
            "id": f"r{r:03d}-{i:02d}",
            "template": template,
            "argv": [str(a) for a in argv],
            "expect": expect,
            "known": KNOWN_DEFECTS.get(template),
        })

    def perm(self, n: int) -> list[int]:
        p = list(range(n))
        self.rng.shuffle(p)
        return p

    # -- item makers -------------------------------------------------------

    def stab_file(self, label, q, rows, additive=False):
        """Write a stabilizer under a fresh qudit permutation and local
        transform; returns (path, transformed rows)."""
        F = gf(q)
        n = len(rows[0]) // 2
        rows = cf.permute_symplectic(rows, self.perm(n))
        rows = cf.local_transform(F, rows, self.rng)
        rows = cf.random_row_mix(F, rows, self.rng)
        if additive:
            # Phi: (a|b) -> a + gamma b over GF(p^2), gamma the residue of x
            path = self.file(label + ".code", cf.code_text(q * q, n, "additive",
                             [[r[i] + q * r[n + i] for i in range(n)] for r in rows]))
            self.fields.add(q * q)
        else:
            path = self.file(label + ".sym", cf.code_text(q, n, "symplectic", rows))
        self.fields.add(q)
        return path, rows

    def certify(self, template, q, rows, k, d, pure, budget=None, additive=False):
        path, rows = self.stab_file(template, q, rows, additive)
        n = len(rows[0]) // 2
        argv = ["certify", "--in", path] + (["--budget", budget] if budget is not None else [])
        self.add(template, argv, {
            "check": "cert", "q": q, "n": n, "k": k, "d": d, "pure": pure, "scored": True,
            "witness": {"type": "stab", "q": q, "rows": rows},
        })

    def random_certify(self, template, q, n, k, budget=None, additive=False):
        F = gf(q)
        stab, extra = cf.random_stabilizer(F, n, k, self.rng)
        d_dual, d = brute.min_weights(F, stab + extra, len(stab), quantum=True)
        self.certify(template, q, stab, k, d, d_dual == d, budget, additive)

    def classical_pair(self, template, q, c1, c2, n):
        """Write C1 and C2 under one fresh coordinate permutation, each with
        freshly mixed generator rows."""
        F = gf(q)
        p = self.perm(n)
        c1 = cf.random_row_mix(F, cf.permute(c1, p), self.rng)
        c2 = cf.random_row_mix(F, cf.permute(c2, p), self.rng)
        f1 = self.file(template + "-c1.code", cf.code_text(q, n, "linear", c1))
        f2 = self.file(template + "-c2.code", cf.code_text(q, n, "linear", c2))
        self.fields.add(q)
        return f1, f2, c1, c2

    def css(self, template, q, c1, c2, w21, w12, d1, d2, budget=None, kv=False):
        """CSS(C1, C2) with w21 = d(C2 minus C1^perp), w12 = d(C1 minus C2^perp)."""
        n = len(c1[0])
        f1, f2, c1, c2 = self.classical_pair(template, q, c1, c2, n)
        argv = ["css", "--c1", f1, "--c2", f2]
        argv += ["--budget", budget] if budget is not None else []
        argv += ["--kv"] if kv else []
        d = min(w21, w12)
        self.add(template, argv, {
            "check": "cert", "q": q, "n": n, "k": len(c1) + len(c2) - n, "d": d,
            "pure": d == min(d1, d2), "scored": True,
            "witness": {"type": "css", "q": q, "c1": c1, "c2": c2},
        })

    def aqc(self, template, q, c1, c2, w21, w12, d1, d2, ip="euclidean", budget=None):
        n = len(c1[0])
        f1, f2, c1, c2 = self.classical_pair(template, q, c1, c2, n)
        argv = ["aqc", "--c1", f1, "--c2", f2, "--ip", ip]
        argv += ["--budget", budget] if budget is not None else []
        self.add(template, argv, {
            "check": "cert", "q": q, "n": n, "k": len(c1) + len(c2) - n,
            "dz": max(w21, w12), "dx": min(w21, w12),
            "pure": sorted((w21, w12)) == sorted((d1, d2)), "scored": True,
        })

    def kl(self, template, rows, k, d):
        """kl at delta = d-1 (passes) and at delta = d (fails), each on its own file."""
        n = len(rows[0]) // 2
        for delta in (d - 1, d):
            path, moved = self.stab_file(template, 2, rows)
            checked = sum(3**j * math.comb(n, j) for j in range(delta + 1))
            self.add(f"{template}-delta{delta}", ["kl", "--in", path, "--delta", delta], {
                "check": "kl", "exit": 0 if delta < d else 1, "n": n, "d": d,
                "checked": checked, "dim": 2**k, "rows": moved,
            })


# -- reference families --------------------------------------------------------


def rs_css_pair(F: GF, points, k1, k2):
    """(RS_k1(S), GRS_k2(S, v)): C1^perp = GRS_{n-k1}(S, v) sits in C2 when
    k1 + k2 >= n, and C2^perp = RS_{n-k2}(S) sits in C1.  All four are MDS."""
    v = cf.rs_dual_multipliers(F, points)
    return cf.rs(F, points, k1), cf.rs(F, points, k2, v)


def mds_refs(n, k1, k2):
    """(w21, w12, d1, d2) for an MDS CSS pair with k1 + k2 > n."""
    return n - k2 + 1, n - k1 + 1, n - k1 + 1, n - k2 + 1


def multipliers(F: GF, n: int, rng) -> list[int]:
    return [rng.randrange(1, F.q) for _ in range(n)]


def scale_pair(F: GF, c1, c2, rng, hermitian: bool = False):
    """(C1 D, C2 D') for a random diagonal D, with D' = D^-1 (Euclidean) or
    conj(D)^-1 (Hermitian), which keeps C1^perp inside C2 and every weight."""
    u = multipliers(F, len(c1[0]), rng)
    w = [int(F.inv[F.conj(x)]) if hermitian else int(F.inv[x]) for x in u]
    return ([[int(F.mul[x, a]) for x, a in zip(r, u)] for r in c1],
            [[int(F.mul[x, a]) for x, a in zip(r, w)] for r in c2])


def points_of(F: GF, n: int, rng) -> list[int]:
    pts = list(range(F.q))
    rng.shuffle(pts)
    return pts[:n]


# -- workloads -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _qubit_codes() -> dict:
    """Binary codes and qubit stabilizers before the seeded transforms (read-only)."""
    F2 = gf(2)
    h7, h15, g = cf.hamming(3), cf.hamming(4), cf.golay23()
    rm = {(r, m): cf.reed_muller(r, m) for m in (3, 4, 5) for r in range(m)}

    def self_css(c, n):
        dual = cf.kernel(F2, c, n)
        return cf.css_rows(dual, dual, n)

    return {
        "five": cf.five_qudit(F2),
        "steane": self_css(h7, 7),
        "shor": cf.shor9(),
        "qrm16": cf.css_rows(rm[1, 4], rm[1, 4], 16),
        "q15": self_css(h15, 15),
        "qrm32": cf.css_rows(rm[1, 5], rm[1, 5], 32),
        "qgolay": self_css(g, 23),
        "golay": g, "h7": h7, "h15": h15, "even7": cf.even_weight(7), "rm": rm,
    }


def qubit_exhaustive(b: Builder):
    """GF(2) enumeration, every printed distance exact."""
    c = _qubit_codes()
    rm = c["rm"]
    # (template, C1, C2, w21, w12, d1, d2, css budget); a css budget of 20
    # or 18 leaves only the unprinted block certification layered
    pairs = [
        ("ham7", c["h7"], c["h7"], 3, 3, 3, 3, None),
        ("ham7-even", c["h7"], c["even7"], 2, 3, 3, 2, None),
        ("rm23", rm[2, 3], rm[2, 3], 2, 2, 2, 2, None),
        ("ham15", c["h15"], c["h15"], 3, 3, 3, 3, 20),
        ("rm24", rm[2, 4], rm[2, 4], 4, 4, 4, 4, 20),
        ("rm14-34", rm[1, 4], rm[3, 4], 2, 8, 8, 2, None),
        ("golay", c["golay"], c["golay"], 7, 7, 7, 7, 18),
    ]
    # items of a tenth of a second or more, once per round
    b.certify("certify-qrm16", 2, c["qrm16"], 6, 4, True)
    b.certify("certify-q15", 2, c["q15"], 7, 3, True)
    # four [[18,1]] items, 0.3 s each: the p90 rank falls inside their block
    for n, k in ((16, 1), (18, 1), (18, 1), (18, 1), (18, 1)):
        b.random_certify(f"certify-rand{n}", 2, n, k)
    for name, c1, c2, w21, w12, d1, d2, budget in pairs[3:]:
        b.css("css-" + name, 2, c1, c2, w21, w12, d1, d2, budget=budget)
    # items of 3-50 ms, once per round
    b.certify("certify-shor", 2, c["shor"], 1, 3, False)
    for n, k in ((10, 1), (12, 2), (14, 2)):
        b.random_certify(f"certify-rand{n}", 2, n, k)
    for name, c1, c2, w21, w12, d1, d2, _ in pairs[3:]:
        b.aqc("aqc-" + name, 2, c1, c2, w21, w12, d1, d2)
    b.css("css-rm23", 2, *pairs[2][1:7], kv=True)
    path1, path2, _, _ = b.classical_pair("enlarge-rm24-34", 2, rm[2, 4], rm[3, 4], 16)
    b.add("enlarge-rm24-34", ["enlarge", "--c", path1, "--cprime", path2], {
        "check": "cert", "q": 2, "n": 16, "k": 10, "d": 3, "pure": None, "scored": True,
    })
    b.kl("kl-five", c["five"], 1, 3)
    b.kl("kl-steane", c["steane"], 1, 3)
    b.kl("kl-shor", c["shor"], 1, 3)
    # items of 2-3 ms, four times per round: more than half of all items, so
    # the p50 rank falls inside this dense block and not between sparse ones
    for _ in range(4):
        b.certify("certify-five", 2, c["five"], 1, 3, True)
        b.certify("certify-steane", 2, c["steane"], 1, 3, True)
        for n, k in ((5, 1), (6, 1), (7, 1)):
            b.random_certify(f"certify-additive{n}", 2, n, k, additive=True)
        for name, c1, c2, w21, w12, d1, d2, budget in pairs[:2]:
            b.css("css-" + name, 2, c1, c2, w21, w12, d1, d2, budget=budget)
        for name, c1, c2, w21, w12, d1, d2, _ in pairs[:3]:
            b.aqc("aqc-" + name, 2, c1, c2, w21, w12, d1, d2)


def budget_layered(b: Builder):
    """Every item's budget is below one of its spans."""
    c = _qubit_codes()
    rm = c["rm"]
    b.certify("certify-qrm32", 2, c["qrm32"], 20, 4, True, budget=18)
    b.css("css-rm35", 2, rm[3, 5], rm[3, 5], 4, 4, 4, 4, budget=16)
    b.aqc("aqc-rm35", 2, rm[3, 5], rm[3, 5], 4, 4, 4, 4, budget=17)
    b.aqc("aqc-rm25-35", 2, rm[2, 5], rm[3, 5], 4, 8, 8, 4, budget=18)
    b.certify("certify-golay", 2, c["qgolay"], 1, 7, True, budget=16)
    b.certify("certify-golay-b20", 2, c["qgolay"], 1, 7, True, budget=20)
    g = c["golay"]
    b.css("css-golay", 2, g, g, 7, 7, 7, 7, budget=10)
    hidden_word_item(b)
    b.aqc("aqc-golay", 2, g, g, 7, 7, 7, 7, budget=11)
    # Reed-Solomon pairs: (q, n, k1, k2, css budget, aqc budget, certify budget)
    for q, n, k1, k2, bc, ba, bz in ((4, 4, 3, 3, 10, 10, 10), (8, 8, 5, 5, 12, 13, 13),
                                     (8, 8, 6, 4, 12, 13, 14), (16, 16, 9, 9, 13, 14, 14)):
        F = gf(q)
        pts = points_of(F, n, b.rng)
        c1, c2 = rs_css_pair(F, pts, k1, k2)
        refs = mds_refs(n, k1, k2)
        tag = f"rs{q}-{k1}{k2}"
        b.css("css-" + tag, q, c1, c2, *refs, budget=bc)
        b.aqc("aqc-" + tag, q, c1, c2, *refs, budget=ba)
        d1p = cf.kernel(F, c1, n)
        d2p = cf.kernel(F, c2, n)
        b.certify("certify-" + tag, q, cf.css_rows(d1p, d2p, n), k1 + k2 - n,
                  min(refs[0], refs[1]), True, budget=bz)


def hidden_word_item(b: Builder, k: int = 12, budget: int = 10):
    """aqc(F_2^n, C2) where C2 = rows (e_i | u_i), the u_i summing to zero and
    otherwise spanning a random [m, k-1] code: the minimum word of C2 is the
    all-ones message, beyond the message layers a 2^10 budget completes, so
    only the floor argument keeps the certified dz from overclaiming."""
    F = gf(2)
    rng = b.rng
    m = rng.randrange(56, 65)  # a fresh length each round, so C1 = F_2^n differs too
    v = [[rng.randrange(2) for _ in range(m)] for _ in range(k - 1)]
    v.append([sum(col) % 2 for col in zip(*v)])
    c2 = [[int(i == j) for j in range(k)] + v[i] for i in range(k)]
    d2 = brute.min_weights(F, c2, 0)[0]
    n = k + m
    c1 = cf.random_row_mix(F, [[int(i == j) for j in range(n)] for i in range(n)], rng)
    f1 = b.file("aqc-hidden-c1.code", cf.code_text(2, n, "linear", c1))
    f2 = b.file("aqc-hidden-c2.code", cf.code_text(2, n, "linear", c2))
    b.fields.add(2)
    # C1^perp = {0}: w21 = d(C2); C2^perp is the dual, so w12 = d(F^n minus C2^perp) = 1
    b.add("aqc-hidden", ["aqc", "--c1", f1, "--c2", f2, "--budget", budget], {
        "check": "cert", "q": 2, "n": n, "k": k, "dz": d2, "dx": 1, "pure": True,
        "scored": True,
    })


SQUARE = (4, 9, 16, 25, 49, 64, 81)
PRIME_SQUARE = (4, 9, 25, 49)  # GF(p^2), p prime: residue a + p*b is a + gamma*b


def qudit_small(b: Builder):
    """Small spans over many fields: arithmetic, rref, duals, parsing, CLI."""
    rng = b.rng
    # symplectic and additive certification
    b.certify("certify-five-q3", 3, cf.five_qudit(gf(3)), 1, 3, True)
    b.certify("certify-five-q4", 4, cf.five_qudit(gf(4)), 1, 3, True)
    for q, n, k in ((3, 4, 1), (5, 3, 1), (7, 3, 1), (8, 3, 1), (16, 2, 1)):
        b.random_certify(f"certify-rand-q{q}", q, n, k)
    for p, n, k in ((2, 5, 1), (3, 4, 1), (5, 3, 1), (7, 3, 1)):
        b.random_certify(f"certify-additive-q{p * p}", p, n, k, additive=True)
    # CSS and asymmetric constructions on (extended) Reed-Solomon pairs, n <= q
    # (length-3 pairs over GF(3) are left out: GF(3)^3 has too few codes for
    # every file of a run to differ; GF(3) is covered by the certify items)
    for q, n, k1, k2 in ((4, 4, 3, 2), (5, 4, 3, 2), (7, 3, 2, 2),
                         (8, 3, 2, 2), (9, 3, 2, 2), (16, 2, 2, 1)):
        F = gf(q)
        c1, c2 = scale_pair(F, *rs_css_pair(F, points_of(F, n, rng), k1, k2), rng)
        b.css(f"css-rs{q}", q, c1, c2, *mds_refs(n, k1, k2))
    for q, n, k1, k2 in ((5, 4, 3, 2), (7, 3, 2, 2), (8, 3, 2, 2), (27, 2, 1, 2),
                         (4, 4, 3, 2), (9, 3, 2, 2), (16, 3, 2, 2), (25, 2, 1, 2), (49, 2, 1, 2),
                         (64, 2, 1, 2), (81, 2, 1, 2)):
        F = gf(q)
        pts = points_of(F, n, rng)
        c1, c2 = rs_css_pair(F, pts, k1, k2)
        refs = mds_refs(n, k1, k2)
        ips = ("euclidean", "trace_euclidean") if q in (4, 16, 81) else ("euclidean",)
        for ip in ips:
            b.aqc(f"aqc-rs{q}-{ip}", q, *scale_pair(F, c1, c2, rng), *refs, ip=ip)
        if q in SQUARE:
            # C1 = conj(RS_k1): its Hermitian dual is RS_k1^perp = GRS_{n-k1}(S, v)
            h1 = cf.conj_rows(F, cf.rs(F, pts, k1))
            for ip in ("hermitian", "trace_hermitian") if q in PRIME_SQUARE else ("hermitian",):
                b.aqc(f"aqc-rs{q}-{ip}", q, *scale_pair(F, h1, c2, rng, hermitian=True), *refs, ip=ip)
    # entanglement-assisted and Construction X over GF(q^2)
    for Q, n, k in ((4, 4, 2), (9, 5, 3), (16, 4, 2), (25, 4, 2), (49, 3, 2), (64, 3, 2),
                    (81, 3, 2), (256, 2, 1)):
        ea_item(b, Q, n, k)
    for Q, n, k in ((4, 4, 2), (4, 4, 1), (9, 4, 2), (16, 3, 1), (25, 2, 1), (64, 2, 1)):
        conx_item(b, Q, n, k)
    # duals under every pairing that applies
    for q, n, k in ((5, 5, 2), (7, 7, 3), (27, 12, 5), (64, 16, 6), (81, 12, 5),
                    (256, 24, 10), (4, 4, 2), (9, 8, 3), (25, 10, 4), (49, 10, 4), (16, 12, 5)):
        dual_items(b, q, n, k)
    sym_path, rows = b.stab_file("dual-sym-q5", 5, cf.five_qudit(gf(5)))
    b.add("dual-sym-q5", ["dual", "--in", sym_path, "--ip", "symplectic"], {
        "check": "dual", "q": 5, "ip": "symplectic", "n": 10, "rows": rows,
        "kind": "symplectic", "dim": 6,
    })
    sym_path, _ = b.stab_file("info-sym-q5", 5, cf.five_qudit(gf(5)))
    b.add("info-sym-q5", ["info", "--in", sym_path],
          {"check": "info", "q": 5, "kind": "symplectic", "length": 5, "dim": 4})
    bounds_items(b)
    malformed_items(b)


def ea_item(b: Builder, Q, n, k):
    F = gf(Q)
    pts = points_of(F, n, b.rng)
    u = multipliers(F, n, b.rng)
    C = cf.rs(F, pts, k, u)  # GRS_k(S, u)^perp = GRS_{n-k}(S, v/u)
    H = cf.rs(F, pts, n - k, [int(F.mul[x, F.inv[y]]) for x, y in zip(cf.rs_dual_multipliers(F, pts), u)])
    conj = [F.conj(r) for r in H]
    c = rank(F, [[dot(F, u, w) for w in conj] for u in H])  # rank of H H^dagger
    p = b.perm(n)
    path = b.file(f"ea-q{Q}.code", cf.code_text(Q, n, "linear", cf.random_row_mix(F, cf.permute(C, p), b.rng)))
    b.fields.add(Q)
    sub = int(math.isqrt(Q))
    b.add(f"ea-q{Q}", ["ea", "--in", path], {
        "check": "cert", "q": sub, "n": n, "k": 2 * k - n + c, "d": n - k + 1,
        "ebits": c, "pure": None, "scored": True,
    })


def conx_item(b: Builder, Q, n, k):
    F = gf(Q)
    pts = points_of(F, n, b.rng)
    u = multipliers(F, n, b.rng)
    C = cf.rs(F, pts, k, u)
    dual_mult = [int(F.mul[x, F.inv[y]]) for x, y in zip(cf.rs_dual_multipliers(F, pts), u)]
    Dh = cf.conj_rows(F, cf.rs(F, pts, n - k, dual_mult))  # conj of the Euclidean dual
    S = rref(F, C + Dh)
    hull = k + (n - k) - len(S)
    e = k - hull
    sub = int(math.isqrt(Q))
    if e == 0:
        # C is Hermitian self-orthogonal: certified as a stabilizer code
        basis = rref(F, C)
        for r in Dh:
            if rank(F, basis + [r]) > len(basis):
                basis.append(r)
        if len(basis) == k:  # Hermitian self-dual: k = 0, d is the weight of C itself
            d_all = d = brute.min_weights(F, basis, 0)[0]
        else:
            d_all, d = brute.min_weights(F, basis, k)
        expect = {"check": "cert", "q": sub, "n": n, "k": n - 2 * k, "d": d,
                  "pure": d_all == d, "scored": True}
    else:
        terms = [k + 1] if n - k > 0 else []
        terms.append(brute.min_weights(F, S, 0)[0] + 1)
        expect = {"check": "cert", "q": sub, "n": n + e, "k": n - 2 * k + e, "d": min(terms),
                  "pure": None, "scored": False, "bound_only": True}
    p = b.perm(n)
    path = b.file(f"conx-q{Q}.code", cf.code_text(Q, n, "linear", cf.random_row_mix(F, cf.permute(C, p), b.rng)))
    b.fields.add(Q)
    b.add(f"conx-q{Q}-k{k}", ["conx", "--in", path], expect)


def dual_items(b: Builder, q, n, k):
    """One dual per pairing that applies, then `info`, each on its own RS code."""
    F = gf(q)
    ips = ["euclidean", "trace_euclidean"]
    if q in SQUARE:
        ips.append("hermitian")
    if q in PRIME_SQUARE:
        ips += ["trace_hermitian", "trace_alternating"]
    for ip in ips + ["info"]:
        C = cf.rs(F, points_of(F, n, b.rng), k, multipliers(F, n, b.rng))
        C = cf.random_row_mix(F, C, b.rng)
        path = b.file(f"dual-q{q}.code", cf.code_text(q, n, "linear", C))
        if ip == "info":
            b.add(f"info-q{q}", ["info", "--in", path],
                  {"check": "info", "q": q, "kind": "linear", "length": n, "dim": k})
            continue
        additive = ip in ("trace_hermitian", "trace_alternating")
        b.add(f"dual-q{q}-{ip}", ["dual", "--in", path, "--ip", ip], {
            "check": "dual", "q": q, "ip": ip, "n": n, "rows": C,
            "kind": "additive" if additive else "linear",
            "dim": 2 * (n - k) if additive else n - k,
        })
    b.fields.add(q)


def bounds_items(b: Builder):
    rng = b.rng
    q = rng.choice((2, 3, 4, 5))
    n = rng.randrange(5, 12)
    d = rng.randrange(2, 4)
    # exact parameters past the Singleton bound cannot be stated at all (exit 2),
    # so k stays within it
    k = rng.randrange(1, n - 2 * d + 3)
    b.add("bounds-singleton", ["bounds", "--singleton", "--params", f"{n},{k},{d},{q}"],
          {"check": "bound", "exit": 0, "holds": True})
    ell = (d - 1) // 2
    lhs = sum((q * q - 1) ** j * math.comb(n, j) for j in range(ell + 1))
    holds = lhs <= q ** (n - k)
    b.add("bounds-hamming", ["bounds", "--hamming", "--pure", "--params", f"{n},{k},{d},{q}"],
          {"check": "bound", "exit": 0 if holds else 1, "holds": holds})
    kg = n - 2 * rng.randrange(1, (n - 2) // 2 + 1)  # n > kg >= 2 and n = kg (mod 2)
    lhs = (q ** (n - kg + 2) - 1) // (q * q - 1)
    rhs = sum((q * q - 1) ** (j - 1) * math.comb(n, j) for j in range(1, d))
    b.add("bounds-gv", ["bounds", "--gv", "--params", f"{n},{kg},{d},{q}"],
          {"check": "bound", "exit": 0 if lhs > rhs else 1, "holds": lhs > rhs})
    dz, dx = d + 1, d
    kk = max(1, n - dz - dx + 2 - rng.randrange(2))
    holds = kk <= n - dz - dx + 2
    b.add("bounds-aqc", ["bounds", "--aqc-singleton", "--params", f"{n},{kk},{dz},{dx},{q}"],
          {"check": "bound", "exit": 0 if holds else 1, "holds": holds})
    rule = rng.choice(("subcode", "lengthen", "puncture"))
    kp = rng.randrange(1, n - 2 * d + 3)
    dn, kn, nn = {"subcode": (d, kp - 1, n), "lengthen": (d, kp, n + 1),
                  "puncture": (d - 1, kp, n - 1)}[rule]
    b.add(f"propagate-{rule}", ["propagate", "--params", f"{n},{kp},{d},{q}", "--rule", rule],
          {"check": "cert", "q": q, "n": nn, "k": kn, "d": dn, "pure": None,
           "scored": False, "bound_only": True})
    b.add("defect-singleton-q6", ["bounds", "--singleton", "--params", "5,1,3,6"],
          {"check": "bound", "exit": 2, "holds": None})


def malformed_items(b: Builder):
    rng = b.rng
    n = rng.randrange(3, 9)
    good = [" ".join(str(rng.randrange(2)) for _ in range(2 * n)) for _ in range(2)]
    head = ["field GF(2)", f"length {n}", "kind symplectic", "rows"]
    cases = [
        ("malformed-field", 1, ["field GF(6)"] + head[1:] + good),
        ("malformed-length", 2, [head[0], "length many"] + head[2:] + good),
        ("malformed-kind", 3, head[:2] + ["kind quantum"] + head[3:] + good),
        ("malformed-header", 2, [head[0], f"width {n}"] + head[1:] + good),
        ("malformed-entry", 6, head + [good[0], good[1].replace("0", "z", 1).replace("1", "z", 1)]),
        ("defect-length-neg", 2, [head[0], "length -1"] + head[2:]),
        ("defect-row-length", 6, head + [good[0], good[1] + " 1"]),
        ("defect-entry-range", 5, head + [good[0].replace("1", "7", 1).replace("0", "7", 1), good[1]]),
    ]
    for template, line, lines in cases:
        tag = f"# {rng.getrandbits(64):016x}"  # after the last line, so line numbers hold
        path = b.file(template + ".sym", "\n".join(lines + [tag]) + "\n")
        b.add(template, ["certify", "--in", path],
              {"check": "error", "exit": 2, "locator": f"{path}:{line}"})
    path, _ = b.stab_file("defect-budget-neg", 3, cf.five_qudit(gf(3)))
    b.add("defect-budget-neg", ["certify", "--in", path, "--budget", -1],
          {"check": "error", "exit": 2, "locator": None})


BUILDERS = {
    "qubit-exhaustive": qubit_exhaustive,
    "qudit-small": qudit_small,
    "budget-layered": budget_layered,
}


def build(workload: str, seed: int, root: str, rounds: int) -> Builder:
    b = Builder(root, seed)
    for _ in range(rounds):
        b.start_round()
        BUILDERS[workload](b)
    return b
