"""End-to-end agreement of the two independent routes to the distance.

For random qubit stabilizer codes, the enumerative certificate d must sit
exactly at the Knill-Laflamme boundary of the dense oracle: every error of
weight d-1 is handled, some error of weight d is not.
"""

from __future__ import annotations

import random

import pytest

import stabforge.code as code
import stabforge.stabilizer as stabilizer
from stabforge.code import (
    DEFAULT_BUDGET,
    EXACT,
    LOWER_BOUND,
    dual,
    is_subcode,
    linear_code,
    min_weight,
    symplectic_code,
)
from stabforge.gf import field_make, field_of_order
from stabforge.pauli import weights
from stabforge.stabilizer import (
    AQC_INNER_PRODUCTS,
    IMPURE,
    PURE,
    UNKNOWN,
    certify_stabilizer,
    css,
    css_aqc,
)
from stabforge.statevec import generator_set, kl_verify

from conftest import random_generator_set

F2 = field_make(2, 1)

# Shor's [[9,1,3]] code, a known degenerate code: three repetition blocks,
# weight-2 stabilizers
SHOR_ROWS = [
    (1, 1, 1, 1, 1, 1, 0, 0, 0) + (0,) * 9,
    (0, 0, 0, 1, 1, 1, 1, 1, 1) + (0,) * 9,
] + [
    (0,) * 9 + tuple(1 if j in (i, i + 1) else 0 for j in range(9))
    for i in (0, 1, 3, 4, 6, 7)
]


def test_certified_distance_sits_on_the_kl_boundary():
    rng = random.Random(60402)
    checked = 0
    while checked < 20:
        n = rng.randrange(3, 6)
        g = rng.randrange(1, n)
        G = random_generator_set(n, g, rng)
        C = symplectic_code(F2, G.rows, half=n)
        if C.k_dim != g:
            continue
        stab = certify_stabilizer(C)
        p = stab.params
        assert p.k == n - g > 0
        assert p.d.status == EXACT
        gen = generator_set(C)
        below = kl_verify(gen, p.d.value - 1)
        at = kl_verify(gen, p.d.value)
        assert below.passed, (G.rows, p.d)
        assert not at.passed, (G.rows, p.d)
        assert weights(at.witness.op)[0] == p.d.value
        checked += 1


def test_certified_distance_sits_on_the_kl_boundary_beyond_one_block():
    """[[10,k]] codes whose symplectic dual spans 2^13 to 2^16 words, more
    than one block: k = 3, 4 walk the dual whole, k = 5, 6 try qudit-group
    layers first and mostly stop once d is proven."""
    rng = random.Random(1010)
    n, layered = 10, 0
    for k in (3, 4, 5, 6, 3, 4, 5, 6):
        C = symplectic_code(F2, random_generator_set(n, n - k, rng).rows, half=n)
        assert C.k_dim == n - k
        d = certify_stabilizer(C).params.d
        assert d.status == EXACT
        layered += d.visited < 2 ** (n + k) - 1
        gen = generator_set(C)
        below, at = kl_verify(gen, d.value - 1), kl_verify(gen, d.value)
        assert below.passed and not at.passed, (C.gen.rows, d)
        assert weights(at.witness.op)[0] == d.value
    assert layered >= 2


def test_random_18_1_distance_is_proven_by_layers():
    """The d walk of a random [[18,1]] code: the symplectic dual minus the
    code spans 2^19 words, and qudit-group layers 1-4 prove d = 4 in 5,715
    words, well inside the 1/16 of the span that layers may take."""
    C = _random_symplectic_code(F2, 18, 17, random.Random(0))
    d = certify_stabilizer(C).params.d
    assert (C.k_dim, d.value, d.status) == (17, 4, EXACT)
    assert d.visited <= 10**4


def _random_combination(f, rows, rng, n):
    v = [0] * n
    for r in rows:
        c = rng.randrange(f.q)
        v = [f.add(x, f.mul(c, y)) for x, y in zip(v, r)]
    return tuple(v)


def _random_symplectic_code(f, n, g, rng):
    """A symplectic self-orthogonal code of dimension <= g, grown by random
    words of the symplectic dual of the rows so far."""
    rows = []
    for _ in range(4 * g):
        if len(rows) == g:
            break
        D = dual(symplectic_code(f, rows, half=n), "symplectic")
        v = _random_combination(f, D.gen.rows, rng, 2 * n)
        if symplectic_code(f, rows + [v], half=n).k_dim == len(rows) + 1:
            rows.append(v)
    return symplectic_code(f, rows, half=n)


def _padded_five_qudit_code(f):
    """[[5,1,3]]_q beside a two-qudit Bell pair: [[7,1,3]]_q with the
    weight-2 stabilizers X X^-1 and Z Z on the pair, so impure."""
    m1 = f.neg(1)
    a, b = (1, 0, 0, m1, 0), (0, 1, m1, 0, 0)  # X Z Z^-1 X^-1 I and its shifts
    rows = [a[5 - i :] + a[: 5 - i] + (0, 0) + b[5 - i :] + b[: 5 - i] + (0, 0) for i in range(4)]
    rows += [(0,) * 5 + (1, m1) + (0,) * 7, (0,) * 12 + (1, 1)]
    return symplectic_code(f, rows)


def _partial_budgets(size):
    """Budgets that leave part of a span of `size` words (zero included)
    unwalked: from one nonzero word to all but one."""
    return sorted({1, 3, 10, 40, 150, size // 3, size // 2, size - 2} & set(range(1, size - 1)))


def _check_partial(verdict, full, reference):
    """A partial-budget verdict never contradicts the full-budget one, and
    is decided whenever every reference distance at that budget is exact."""
    if verdict != UNKNOWN:
        assert verdict == full
    if all(r.status == EXACT for r in reference):
        assert verdict != UNKNOWN


def test_purity_matches_oracle_degeneracy():
    # impure means some stabilizer element is lighter than the distance;
    # the dual minimum then undercuts the certified d
    def check(C, budgets):
        stab = certify_stabilizer(C)
        dual_min = min_weight(stab.dual, "quantum").value
        if stab.params.pure == PURE:
            assert dual_min == stab.params.d.value
        else:
            assert stab.params.pure == IMPURE
            assert dual_min < stab.params.d.value
        for b in budgets:
            p = certify_stabilizer(C, b).params
            _check_partial(p.pure, stab.params.pure, (p.d, min_weight(stab.dual, "quantum", b)))
        return stab

    shor = check(symplectic_code(F2, SHOR_ROWS), _partial_budgets(2**10))
    assert shor.params.pure == IMPURE

    rng = random.Random(77001)
    seen = {PURE: 0, IMPURE: 0}
    for _ in range(400):
        n = rng.randrange(3, 6)
        g = rng.randrange(2, n)
        G = random_generator_set(n, g, rng)
        C = symplectic_code(F2, G.rows, half=n)
        if C.k_dim != g or n - g == 0:
            continue
        stab = check(C, _partial_budgets(2 ** (2 * n - g)))
        seen[stab.params.pure] += 1
    # degenerate codes are rare at this scale but must appear
    assert seen[PURE] >= 10 and seen[IMPURE] >= 2

    for q in (3, 4, 5):
        f = field_of_order(q)
        padded = check(_padded_five_qudit_code(f), _partial_budgets(q**8))
        assert padded.params.pure == IMPURE and padded.params.d.value == 3
        for _ in range(12):
            n = rng.randrange(2, 5)
            C = _random_symplectic_code(f, n, rng.randrange(0, n), rng)
            check(C, _partial_budgets(q ** (2 * n - C.k_dim)))


def test_shor_impurity_decided_under_partial_budget():
    # At budget 260 the walk of the dual (dimension 10, rows on seven
    # qudits) finishes qudit-group layers 1-2 (82 words) only, since layer 3
    # would bring it to 275, so d stays the floor >= 3, and a verdict that
    # waits for an exact d reads unknown.  The stabilizer (dimension 8, 255
    # words) is walked exhaustively: its exact weight-2 words lie below the
    # proven d >= 3, so the code is impure without knowing d.
    stab = certify_stabilizer(symplectic_code(F2, SHOR_ROWS), budget=260)
    assert (stab.params.d.value, stab.params.d.status) == (3, "lower_bound")
    assert stab.params.pure == IMPURE


def _random_css_pair(f, n, ip, rng, kind):
    """(C1, C2) with C1^perp inside C2 under `ip`.

    kind 0: C1 = C2 = the dual of a random self-orthogonal code.  Kind 1:
    C2 = E^perp for a random code E, and C1 spanned by E and one or two
    random rows, so k is small.  Kind 2: a kind 1 pair on one more
    coordinate, held 0 in C1 and free in C2.  That leaves k and both coset
    distances as they were and puts a weight-1 word in C1^perp, so the code
    is impure whenever d >= 2.
    """
    if kind == 0:
        rows = []
        for _ in range(3 * n):
            v = _random_combination(f, dual(linear_code(f, rows, n), ip).gen.rows, rng, n)
            E = linear_code(f, rows + [v], n)
            if E.k_dim > len(rows) and is_subcode(E, dual(E, ip)):
                rows.append(v)
        C = linear_code(f, dual(linear_code(f, rows, n), ip).gen.rows, n)
        return C, C

    def rand_rows(count):
        return [tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(count)]

    E = rand_rows(rng.randrange(1, n))
    C2 = linear_code(f, dual(linear_code(f, E, n), ip).gen.rows, n)
    C1 = linear_code(f, E + rand_rows(rng.randrange(1, 3)), n)
    if kind == 1:
        return C1, C2
    C1 = linear_code(f, [r + (0,) for r in C1.gen.rows], n + 1)
    C2 = linear_code(f, [r + (0,) for r in C2.gen.rows] + [(0,) * n + (1,)], n + 1)
    return C1, C2


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_css_purity_matches_classical_minima(q):
    f = field_of_order(q)
    rng = random.Random(5150 + q)
    seen = {PURE: 0, IMPURE: 0}
    for case in range(60):
        n = rng.randrange(3, {2: 10, 3: 7, 4: 6, 9: 5}[q])
        C1, C2 = _random_css_pair(f, n, "euclidean", rng, case % 3)
        if C1.k_dim + C2.k_dim <= C1.n:
            continue
        full = css(C1, C2).params
        d1, d2 = min_weight(C1), min_weight(C2)
        # d = min of the coset distances, so the pure case is min(d(C1), d(C2)) = d
        assert full.pure == (PURE if full.d.value == min(d1.value, d2.value) else IMPURE)
        seen[full.pure] += 1
        for b in _partial_budgets(q ** max(C1.k_dim, C2.k_dim)):
            p = css(C1, C2, b).params
            _check_partial(p.pure, full.pure, (p.d, min_weight(C1, budget=b), min_weight(C2, budget=b)))
    assert seen[PURE] >= 5 and seen[IMPURE] >= 1


@pytest.mark.parametrize("q", [4, 9])
@pytest.mark.parametrize("ip", AQC_INNER_PRODUCTS)
def test_css_aqc_purity_matches_classical_minima(q, ip):
    f = field_of_order(q)
    rng = random.Random(6160 + q + 7 * AQC_INNER_PRODUCTS.index(ip))
    seen = {PURE: 0, IMPURE: 0}
    symmetric = 0
    for case in range(30):
        n = rng.randrange(2, 5 if q == 4 else 4)
        C1, C2 = _random_css_pair(f, n, ip, rng, case % 3)
        if C1.k_dim + C2.k_dim <= C1.n:
            continue
        symmetric += C1 == C2
        full = css_aqc(C1, C2, ip=ip)
        # pure iff the coset distances are the classical minima {d(C1), d(C2)}
        minima = sorted((min_weight(C1).value, min_weight(C2).value))
        assert full.pure == (PURE if sorted((full.dz.value, full.dx.value)) == minima else IMPURE)
        seen[full.pure] += 1
        for b in _partial_budgets(q ** max(C1.k_dim, C2.k_dim)):
            p = css_aqc(C1, C2, b, ip)
            _check_partial(p.pure, full.pure, (p.dz, p.dx, min_weight(C1, budget=b), min_weight(C2, budget=b)))
    assert seen[PURE] >= 3 and seen[IMPURE] >= 1 and symmetric >= 2


@pytest.mark.parametrize("small_span", [None, 0])
def test_purity_walks_stopped_at_the_distance_match_full_walks(monkeypatch, small_span):
    """`certify`, `css` and `aqc` on random codes over GF(2), GF(3) and
    GF(4), at full and partial budgets, give the same parameters, purity
    included, whether the stabilizer-side walks stop at the distance or
    every stabilizer side is walked in full, and a stopped walk's floor
    never exceeds the true minimum.  A condition with d = 1 is settled with
    no walk, as no word is lighter than 1; it counts as a stop.  Spans
    within the budget walk whole unless small_span = 0 makes them try
    layers, which lets more purity walks stop at the distance."""
    if small_span is not None:
        monkeypatch.setattr(code, "_SMALL_SPAN", small_span)
    full_walk, purity = stabilizer.min_weight, stabilizer._purity
    stops = []

    def targeted(C, wfn="hamming", budget=DEFAULT_BUDGET, target=None):
        r = full_walk(C, wfn, budget, target=target)
        if target is not None:
            assert r.value <= full_walk(C, wfn).value, (C, budget, target)
            stops.append(r.status == LOWER_BOUND and r.value >= target)
        return r

    def counted(wfn, budget, *pairs):
        stops.extend(d.value == 1 for d, S in pairs if S.k_dim)
        return purity(wfn, budget, *pairs)

    def walked(wfn, budget, *pairs):
        """`_purity`'s verdict from a full walk of every nonzero stabilizer side."""
        mins = [(d, full_walk(S, wfn, budget)) for d, S in pairs if S.k_dim]
        if any(s.is_exact and s.value < d.value for d, s in mins):
            return IMPURE
        return PURE if all(d.is_exact and s.value >= d.value for d, s in mins) else UNKNOWN

    def same_with_and_without_targets(run):
        monkeypatch.setattr(stabilizer, "min_weight", targeted)
        monkeypatch.setattr(stabilizer, "_purity", counted)
        got = run()
        monkeypatch.setattr(stabilizer, "min_weight", full_walk)
        monkeypatch.setattr(stabilizer, "_purity", walked)
        assert got == run()

    rng = random.Random(8008)
    for q in (2, 3, 4):
        f = field_of_order(q)
        ips = AQC_INNER_PRODUCTS if q == 4 else ("euclidean",)
        for case in range(12):
            n = rng.randrange(3, {2: 7, 3: 5, 4: 4}[q])
            C = _random_symplectic_code(f, n, rng.randrange(1, n), rng)
            for b in [DEFAULT_BUDGET] + _partial_budgets(q ** (2 * n - C.k_dim)):
                same_with_and_without_targets(lambda: certify_stabilizer(C, b).params)
            ip = ips[case % len(ips)]
            for construct in (css, css_aqc):
                C1, C2 = _random_css_pair(f, n, ip if construct is css_aqc else "euclidean", rng, case % 3)
                if C1.k_dim + C2.k_dim <= C1.n:
                    continue
                for b in [DEFAULT_BUDGET] + _partial_budgets(q ** max(C1.k_dim, C2.k_dim)):
                    if construct is css:
                        same_with_and_without_targets(lambda: css(C1, C2, b).params)
                    else:
                        same_with_and_without_targets(lambda: css_aqc(C1, C2, b, ip))
    assert sum(stops) >= (500 if small_span == 0 else 100), (sum(stops), len(stops))
