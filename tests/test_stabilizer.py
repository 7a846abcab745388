"""Construction certification against enumeration oracles and fixed cases."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest

from stabforge import code as code_mod
from stabforge import fmatrix
from stabforge import stabilizer as stabilizer_mod
from stabforge.cli import run
from stabforge.code import (
    EXACT,
    LOWER_BOUND,
    additive_code,
    code_digest,
    dual,
    hamming_weight,
    hull,
    linear_code,
    min_weight,
    min_weight_diff,
    phi_code,
    quantum_weight,
    save_code,
    symplectic_code,
    symplectic_pair,
)
from stabforge.errors import (
    BadRule,
    EnlargementTooSmall,
    NotDualContaining,
    NotEnlargement,
    NotNested,
    NotSelfOrthogonal,
    WrongFieldOrder,
)
from stabforge.gf import field_make, field_of_order
from stabforge.pauli import hermitian_phases
from stabforge.stabilizer import (
    IMPURE,
    PURE,
    UNKNOWN,
    CodeParams,
    certify_additive,
    certify_stabilizer,
    construction_x,
    css,
    css_aqc,
    ea_ebits,
    format_params,
    propagate,
    steane_enlarge,
)
from stabforge.code import DistanceResult
from stabforge.statevec import GeneratorSet

from conftest import HAMMING74_ROWS, even_weight_rows, reed_muller_rows

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def span(field, rows, n):
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                v[j] = field.add(v[j], field.mul(c, x))
        out.add(tuple(v))
    return out


def coset_min_weight(field, big, small, n):
    inside = span(field, small, n)
    return min(hamming_weight(v) for v in span(field, big, n) if v not in inside)


# -- certify_stabilizer ---------------------------------------------------------


def test_certify_ex512(ex512):
    stab = certify_stabilizer(ex512)
    p = stab.params
    assert (p.q, p.n, p.k) == (2, 5, 1)
    assert p.d.value == 3 and p.d.status == EXACT
    assert p.pure == PURE
    assert stab.code.k_dim == 4 and stab.dual.k_dim == 6
    assert format_params(p) == "[[5,1,3]]_2"
    assert quantum_weight(p.d.witness) == 3


def test_certify_zero_code(f2):
    C = symplectic_code(f2, [], half=3)
    p = certify_stabilizer(C).params
    assert (p.n, p.k, p.d.value) == (3, 3, 1)
    assert p.pure == PURE


def test_certify_single_y_row_is_self_orthogonal(f2):
    # <(1|1),(1|1)>_s = 1*1 + 1*1 = 0, so this is a valid k=0 code
    C = symplectic_code(f2, [(1, 1)])
    p = certify_stabilizer(C).params
    assert (p.n, p.k, p.d.value) == (1, 0, 1)
    assert "k0-selfdual" in p.provenance


def test_certify_with_exhausted_budget_stays_usable(ex512):
    # budget exhaustion is never fatal; it shows up as a bound-only distance
    stab = certify_stabilizer(ex512, budget=8)
    p = stab.params
    assert p.d.status == LOWER_BOUND
    assert 1 <= p.d.value <= 3
    assert p.pure == UNKNOWN
    assert p.d.witness is None


def test_certify_not_self_orthogonal(f2):
    C = symplectic_code(f2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(NotSelfOrthogonal) as exc:
        certify_stabilizer(C)
    assert exc.value.pair == (0, 1) and exc.value.value == 1


def test_certify_qutrit_code_matches_naive_oracle(f3):
    C = symplectic_code(f3, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)])
    assert C.is_self_orthogonal()
    p = certify_stabilizer(C).params
    assert (p.q, p.n, p.k) == (3, 3, 1)
    D = dual(C, "symplectic")
    inside = span(f3, C.gen.rows, 6)
    expected = min(
        quantum_weight(v) for v in span(f3, D.gen.rows, 6) if v not in inside
    )
    assert p.d.value == expected == 2


# -- certify_additive -------------------------------------------------------------


def test_certify_additive_matches_symplectic_route(ex512):
    direct = certify_stabilizer(ex512)
    via_phi = certify_additive(phi_code(ex512))
    a, b = direct.params, via_phi.params
    assert (a.q, a.n, a.k, a.d.value, a.d.status, a.pure) == (
        b.q, b.n, b.k, b.d.value, b.d.status, b.pure,
    )
    assert quantum_weight(a.d.witness) == quantum_weight(b.d.witness)


def test_certify_hexacode_is_6_0_4(hexacode):
    p = certify_additive(hexacode).params
    assert format_params(p) == "[[6,0,4]]_2"
    assert p.pure == PURE


def test_certify_additive_zero_code(f4):
    C = additive_code(f4, [], n=4)
    p = certify_additive(C).params
    assert (p.n, p.k, p.d.value) == (4, 4, 1)


def test_certify_additive_rejects_non_self_orthogonal(f4):
    C = additive_code(f4, [(1, 0), (2, 0)], n=2)
    with pytest.raises(NotSelfOrthogonal) as exc:
        certify_additive(C)
    assert (exc.value.pair, exc.value.value) == ((0, 1), 1)


def _first_failing_pair(C):
    """Reference: the scalar loop over generator pairs i <= j."""
    rows = C.gen.rows
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            v = symplectic_pair(C.field, rows[i], rows[j])
            if v:
                return (i, j, v)
    return None


def test_self_orthogonality_witness_matches_the_pairwise_loop():
    """The symplectic dual decides self-orthogonality, and a rejection names
    the scalar loop's first failing pair and its value (through `GeneratorSet`
    as well, over GF(2)), over prime and extension fields of both
    characteristics: on random codes, some of dimension above n, on their
    symplectic hulls (self-orthogonal) and on a hull with one random row
    added, whose failing pairs come late."""
    rng = random.Random(31)
    for q in (2, 3, 4, 9, 16):
        f = field_of_order(q)
        failing = passing = 0
        for _ in range(30):
            n = rng.randrange(2, 8)
            rows = [[rng.randrange(q) for _ in range(2 * n)] for _ in range(rng.randrange(1, 2 * n))]
            C = symplectic_code(f, rows)
            H = hull(C, "symplectic")
            late = symplectic_code(f, list(H.gen.rows) + [[rng.randrange(q) for _ in range(2 * n)]], half=n)
            for A in (C, H, late):
                ref = _first_failing_pair(A)
                assert (ref is None) == A.is_self_orthogonal(), A
                if ref is None:
                    passing += 1
                    continue
                failing += 1
                # rejected before any walk, so the budget is never read
                with pytest.raises(NotSelfOrthogonal) as exc:
                    certify_stabilizer(A, budget=1)
                assert (*exc.value.pair, exc.value.value) == ref, A
                if q == 2:
                    gens = A.gen.rows
                    with pytest.raises(NotSelfOrthogonal) as exc:
                        GeneratorSet(A.half, gens, hermitian_phases(f, gens))
                    assert (*exc.value.pair, exc.value.value) == ref, A
        assert failing and passing, q


@pytest.mark.parametrize("q", [2, 3, 4])
def test_more_generators_than_qudits_is_rejected_by_the_first_anticommuting_pair(q, tmp_path, capsys):
    """A symplectic code of dimension above n (k < 0) is not self-orthogonal:
    certification names its first anticommuting pair, in the library and on
    the command line, and never reaches the logical-dimension check."""
    f = field_of_order(q)
    n = 3
    C = symplectic_code(f, [[1 if i == j else 0 for j in range(2 * n)] for i in range(n + 1)])  # X1, X2, X3, Z1
    assert C.k_dim == n + 1
    ref = _first_failing_pair(C)
    assert ref == (0, n, f.sub(0, 1))  # X1 and Z1: b.a' - b'.a = -1
    with pytest.raises(NotSelfOrthogonal) as exc:
        certify_stabilizer(C)
    assert (*exc.value.pair, exc.value.value) == ref
    if q == 2:
        assert str(exc.value) == "generators XII and ZII have symplectic pairing 1 != 0"
    path = tmp_path / "overfull.sym"
    save_code(C, path)
    assert run(["certify", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"certify: {exc.value}\n"


# -- CSS ------------------------------------------------------------------------


def test_css_hamming_gives_7_1_3(hamming74):
    stab = css(hamming74, hamming74)
    p = stab.params
    assert format_params(p) == "[[7,1,3]]_2"
    assert p.pure == PURE
    assert stab.code.is_self_orthogonal()
    # oracle: both coset distances by brute force
    dual_rows = dual(hamming74, "euclidean").gen.rows
    assert coset_min_weight(F2, hamming74.gen.rows, dual_rows, 7) == 3


def test_css_matches_generic_certification(hamming74, even432):
    for C in (hamming74, even432):
        stab = css(C, C)
        p = stab.params
        g = certify_stabilizer(stab.code).params
        assert (g.n, g.k, g.d.value, g.d.status, g.pure) == (
            p.n, p.k, p.d.value, p.d.status, p.pure,
        )


def test_css_golay_exact_where_block_certificate_is_layered(f2):
    # cyclic [23,12,7] Golay code, g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
    g = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    golay = linear_code(f2, [(0,) * i + g + (0,) * (11 - i) for i in range(12)])
    budget = 1 << 18
    stab = css(golay, golay, budget)
    assert format_params(stab.params) == "[[23,1,7]]_2"
    # the block's symplectic dual spans 2^24 words, beyond the budget
    block = certify_stabilizer(stab.code, budget).params.d
    assert block.status == LOWER_BOUND and block.value <= 7


def test_css_even4_gives_4_2_2(even432):
    p = css(even432, even432).params
    assert format_params(p) == "[[4,2,2]]_2"
    assert p.pure == PURE


def test_css_not_nested(f2, even762):
    # dual of the even code is the repetition code, not inside this C2
    C2 = linear_code(f2, [(1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)])
    with pytest.raises(NotNested):
        css(even762, C2)


def test_css_and_aqc_share_one_nesting_check(f2, even762):
    C2 = linear_code(f2, [(1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)])
    for construct in (css, css_aqc):
        with pytest.raises(NotNested, match=r"^C1\^perp \(euclidean\) is not contained in C2$"):
            construct(even762, C2)


@pytest.mark.parametrize("budget", ["10", "14"])
def test_css_d_is_the_exact_lighter_coset_when_the_other_runs_out(tmp_path, capsys, budget):
    # RM(3,5)^perp = RM(1,5) lies in C2 = RM(1,5) + e_1: wt(C2 minus RM(1,5)) = 1
    # is exact at once, while the weight-4 coset of RM(3,5) outruns the budget
    rm35, c2 = tmp_path / "rm35.code", tmp_path / "c2.code"
    save_code(linear_code(F2, reed_muller_rows(3, 5)), rm35)
    save_code(linear_code(F2, reed_muller_rows(1, 5) + [(1,) + (0,) * 31]), c2)
    for first, second, pauli in ((rm35, c2, "X"), (c2, rm35, "Z")):
        assert run(["css", "--c1", str(first), "--c2", str(second), "--budget", budget]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "[[32,1,1]]_2 pure=true d.status=exact"
        assert out[2] == "witness: " + pauli + "I" * 31


def _nested_pair(f, rng):
    """Random linear (C1, C2) over f with C1^perp inside C2 and k > 0."""
    q = f.q
    while True:
        n = rng.randrange(10, 19 if q == 2 else 11)
        C2 = linear_code(f, [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n // 2, n - 1))])
        rows = C2.basis.rows
        combos = [[rng.randrange(q) for _ in rows] for _ in range(rng.randrange(1, C2.k_dim))]
        D1 = linear_code(f, [[sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(n)] for cs in combos], n)
        C1 = dual(D1, "euclidean")
        if C1.k_dim + C2.k_dim > n:
            return C1, C2


@pytest.mark.parametrize("q", [2, 3])
def test_css_partial_budget_d_is_the_lighter_coset_walk(q):
    # d is the lighter coset walk's result, the exact one on a tie, with that
    # walk's witness on its side; it never exceeds the full-budget d
    f = field_make(q, 1)
    rng = random.Random(29 + q)
    seen = Counter()
    for _ in range(40 if q == 2 else 15):
        C1, C2 = _nested_pair(f, rng)
        n, D1, D2 = C1.n, dual(C1, "euclidean"), dual(C2, "euclidean")
        full = css(C1, C2).params.d
        for budget in (1 << 3, 1 << 5, 1 << 7, 1 << 9):
            d = css(C1, C2, budget).params.d
            w21 = min_weight_diff(C2, D1, budget=budget)
            w12 = w21 if C1 == C2 else min_weight_diff(C1, D2, budget=budget)
            w = w12 if (w12.value, not w12.is_exact) < (w21.value, not w21.is_exact) else w21
            assert (d.value, d.status) == (w.value, w.status)
            if w.witness is None:
                assert d.witness is None
            else:
                side = (0,) * n
                assert d.witness == (tuple(w.witness) + side if w is w21 else side + tuple(w.witness))
            assert d.value <= full.value and (d.value == full.value or not d.is_exact)
            seen[w21.value == w12.value, w21.status, w12.status] += 1
    # the draw reaches ties settled by the exact walk on either side, and
    # untied walks of mixed status in both orders
    assert seen[True, LOWER_BOUND, EXACT] and seen[True, EXACT, LOWER_BOUND]
    assert seen[False, LOWER_BOUND, EXACT] and seen[False, EXACT, LOWER_BOUND]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_css_dual_is_c2_block_plus_c1_block(q):
    # (x|y) pairs to zero with (C1^perp|0) iff y is in C1, and with
    # (0|C2^perp) iff x is in C2: the symplectic dual is (C2|0) + (0|C1)
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(30):
        n = rng.randrange(2, 6 if q < 9 else 5)
        c2 = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
        # C1^perp is spanned by random combinations of the rows of C2
        d1 = [
            [f.dot(coeffs, col) for col in zip(*c2)]
            for coeffs in ([rng.randrange(q) for _ in c2] for _ in range(rng.randrange(1, n + 1)))
        ]
        C1, C2 = dual(linear_code(f, d1, n), "euclidean"), linear_code(f, c2, n)
        zero = (0,) * n
        want = symplectic_code(
            f, [tuple(r) + zero for r in C2.gen.rows] + [zero + tuple(r) for r in C1.gen.rows], half=n
        )
        assert css(C1, C2).dual == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_css_block_is_the_reduced_stack_of_the_dual_bases(monkeypatch, q):
    """The block (C1^perp | 0) + (0 | C2^perp), stacked from the two rref
    bases with their pivots recorded, is the code `symplectic_code` makes of
    the same rows reduced from scratch; for k > 0, css eliminates no matrix
    of the block's width."""
    f = field_of_order(q)
    rng = random.Random(100 + q)
    widths = []
    gf2, gfq = fmatrix._rref_gf2, fmatrix._rref_gfq
    monkeypatch.setattr(fmatrix, "_rref_gf2", lambda rows, ncols: widths.append(ncols) or gf2(rows, ncols))
    monkeypatch.setattr(fmatrix, "_rref_gfq", lambda fld, mat, ncols: widths.append(ncols) or gfq(fld, mat, ncols))
    ks = set()
    for _ in range(30):
        n = rng.randrange(2, 7)
        c2 = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
        d1 = [
            [f.dot(coeffs, col) for col in zip(*c2)]
            for coeffs in ([rng.randrange(q) for _ in c2] for _ in range(rng.randrange(1, n + 1)))
        ]
        C1, C2 = dual(linear_code(f, d1, n), "euclidean"), linear_code(f, c2, n)
        if not any(map(any, d1)) and C2.k_dim == n:
            continue  # both duals zero: the block is the zero code
        widths.clear()
        stab = css(C1, C2, budget=1 << 12)
        ks.add(stab.params.k > 0)
        if stab.params.k:
            assert 2 * n not in widths
        zero = (0,) * n
        rows = ([tuple(r) + zero for r in dual(C1, "euclidean").basis.rows]
                + [zero + tuple(r) for r in dual(C2, "euclidean").basis.rows])
        want = symplectic_code(f, rows, half=n)
        got = stab.code
        assert type(got) is type(want) and got == want and got.k_dim == want.k_dim
        assert got.basis == want.basis and got.basis._pivots == want.basis._pivots
        assert code_digest(got) == code_digest(want)
        if q == 2:
            assert got.basis.packed == want.basis.packed
    assert ks == {False, True}


_GOLAY_GEN = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)


def test_gf2_certificates_spell_no_basis_row(monkeypatch, tmp_path, capsys):
    """`certify`, `css` and `aqc` on GF(2) files keep every basis, dual and
    block packed, and `code._search` spells nothing but its witnesses:
    exclusion tests and the tie-layer check read a walked word's packed
    int, so `fmatrix._unpack` runs once per walk that returns a witness."""
    ham = linear_code(F2, HAMMING74_ROWS)
    golay = linear_code(F2, [(0,) * i + _GOLAY_GEN + (0,) * (11 - i) for i in range(12)])
    paths = {}
    for name, C in (("ham", ham), ("golay", golay), ("steane", css(ham, ham).code),
                    ("golay_sym", css(golay, golay).code)):
        paths[name] = str(tmp_path / f"{name}.code")
        save_code(C, paths[name])
    callers = []
    spell = fmatrix._unpack

    def spelling(v, ncols):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_filename == code_mod.__file__, frame.f_code.co_name))
        return spell(v, ncols)

    monkeypatch.setattr(fmatrix, "_unpack", spelling)
    assert fmatrix.from_packed(F2, [5, 2], 3).rows == ((1, 0, 1), (0, 1, 0))
    assert callers and (True, "unpack") not in callers  # a spelled row is seen
    callers.clear()
    witnesses = []
    search = code_mod._search

    def searching(*args, **kwargs):
        r = search(*args, **kwargs)
        witnesses.append(r.witness is not None)
        return r

    monkeypatch.setattr(code_mod, "_search", searching)
    for argv in (["certify", "--in", paths["steane"]],
                 ["certify", "--in", paths["golay_sym"], "--budget", "16"],
                 ["css", "--c1", paths["ham"], "--c2", paths["ham"]],
                 ["css", "--c1", paths["golay"], "--c2", paths["golay"], "--budget", "16"],
                 ["aqc", "--c1", paths["ham"], "--c2", paths["ham"]],
                 ["aqc", "--c1", paths["golay"], "--c2", paths["golay"], "--budget", "16"]):
        assert run(argv) == 0
    assert capsys.readouterr().out.count("witness: ") >= 3
    assert callers and set(callers) == {(True, "unpack")}
    assert len(callers) == sum(witnesses) and len(witnesses) > sum(witnesses)


def test_css_k0_uses_selfdual_convention(hamming74, simplex73):
    p = css(hamming74, simplex73).params
    assert p.k == 0 and "k0-selfdual" in p.provenance


def test_css_qutrit_sum_zero_code():
    C = linear_code(F3, [(1, 0, 2), (0, 1, 2)])
    p = css(C, C).params
    assert format_params(p) == "[[3,1,2]]_3"


def test_css_shor_blocks_are_impure(f2):
    x_stabs = [(1, 1, 1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1, 1)]
    z_side = linear_code(f2, [(1, 1, 1, 0, 0, 0, 0, 0, 0),
                              (0, 0, 0, 1, 1, 1, 0, 0, 0),
                              (0, 0, 0, 0, 0, 0, 1, 1, 1)])
    C1 = dual(linear_code(f2, x_stabs), "euclidean")
    stab = css(C1, z_side)
    assert format_params(stab.params) == "[[9,1,3]]_2"
    assert stab.params.pure == IMPURE
    assert certify_stabilizer(stab.code).params.pure == IMPURE


def test_purity_walks_each_domain_once(monkeypatch, f2, hamming74):
    # every enumeration, as (function, dimension of the code it walks)
    import stabforge.stabilizer as stabilizer

    calls, targets = [], []
    for name in ("min_weight", "min_weight_diff"):
        def record(C, *args, _name=name, _fn=getattr(stabilizer, name), **kw):
            calls.append((_name, C.k_dim))
            targets.append(kw.get("target"))
            return _fn(C, *args, **kw)

        monkeypatch.setattr(stabilizer, name, record)

    # C1 == C2: one coset walk over RM(2,4) (dimension 11) and one purity
    # walk over its dual RM(1,4) (dimension 5)
    rm24 = linear_code(f2, reed_muller_rows(2, 4))
    qrm = css(rm24, rm24)
    assert format_params(qrm.params) == "[[16,6,4]]_2" and qrm.params.pure == PURE
    assert calls == [("min_weight_diff", 11), ("min_weight", 5)]
    calls.clear()
    css_aqc(rm24, rm24)
    assert calls == [("min_weight_diff", 11), ("min_weight", 5)]

    # the symplectic dual D (dimension 22) once, the stabilizer (10) once
    calls.clear()
    assert certify_stabilizer(qrm.code).params.pure == PURE
    assert calls == [("min_weight_diff", 22), ("min_weight", 10)]

    # no purity walk of a zero code: the trivial stabilizer, and C1^perp of
    # C1 = F_2^7 beside the Hamming code; and none for a distance of 1, as
    # no word is lighter: the simplex code C2^perp (dimension 3) is paired
    # with d = 1 under css and with wt(C1 minus C2^perp) = 1 under aqc
    calls.clear()
    assert certify_stabilizer(symplectic_code(f2, [], half=3)).params.pure == PURE
    assert calls == [("min_weight_diff", 6)]
    full = linear_code(f2, [tuple(int(i == j) for j in range(7)) for i in range(7)])
    for construct in (css, css_aqc):
        calls.clear()
        construct(full, hamming74)
        assert calls == [("min_weight_diff", 4), ("min_weight_diff", 7)]

    # C1 != C2 with both duals nonzero: the even-weight code C1 = [7,6,2]
    # beside the Hamming code C2, so C1^perp is the repetition code
    # (dimension 1) and C2^perp the simplex code (dimension 3).  The cosets
    # have wt(C2 minus C1^perp) = 3 and wt(C1 minus C2^perp) = 2; css pairs
    # both duals with d = 2, css_aqc each with its own coset distance
    even = linear_code(f2, [tuple(int(j in (i, 6)) for j in range(7)) for i in range(6)])
    walks = [("min_weight_diff", 4), ("min_weight_diff", 6), ("min_weight", 1), ("min_weight", 3)]
    calls.clear()
    targets.clear()
    stab = css(even, hamming74)
    assert format_params(stab.params) == "[[7,3,2]]_2" and stab.params.pure == PURE
    assert calls == walks and targets == [None, None, 2, 2]
    calls.clear()
    targets.clear()
    aqc = css_aqc(even, hamming74)
    assert (aqc.dz.value, aqc.dx.value, aqc.pure) == (3, 2, PURE)
    assert calls == walks and targets == [None, None, 3, 2]


def test_purity_of_a_distance_of_1_needs_no_walk(monkeypatch, f2, hamming74):
    """No nonzero word is lighter than 1, so `_purity` walks no stabilizer
    side paired with d = 1: an exact d = 1 is pure, and a lower bound of 1
    leaves purity unknown, as full walks of every side decide.  A pair with
    d >= 2 beside it is still walked, and decides as before."""
    import stabforge.stabilizer as stabilizer

    walked = []
    full_walk = stabilizer.min_weight

    def record(C, *args, **kw):
        walked.append((C.k_dim, kw.get("target")))
        return full_walk(C, *args, **kw)

    monkeypatch.setattr(stabilizer, "min_weight", record)
    simplex = dual(hamming74, "euclidean")
    repetition = linear_code(f2, [(1,) * 7])
    for status, verdict in ((EXACT, PURE), (LOWER_BOUND, UNKNOWN)):
        d = DistanceResult(1, status)
        walked.clear()
        assert stabilizer._purity("hamming", 2**20, (d, simplex)) == verdict
        assert stabilizer._purity("hamming", 4, (d, hamming74), (d, simplex)) == verdict
        assert walked == []
        full = min_weight(simplex)
        assert full.is_exact and full.value >= d.value  # the walk it skips would not say impure
        # a d = 4 pair with the simplex code (distance 4) is pure, with
        # Hamming's weight-3 words impure, whatever the d = 1 pair beside it
        four = DistanceResult(4, EXACT)
        assert stabilizer._purity("hamming", 2**20, (d, hamming74), (four, simplex)) == verdict
        assert stabilizer._purity("hamming", 2**20, (d, simplex), (four, hamming74)) == IMPURE
        assert walked == [(3, 4), (4, 4)]


def test_certify_walks_stop_once_the_distance_is_proven():
    # both duals span 2^22 - 1 words as eleven qudit pairs; finished layers
    # 1..d prove d, so the walk stops after sum_{t<=d} C(11,t) 3^t words
    rm24 = linear_code(F2, reed_muller_rows(2, 4))
    simplex = [tuple((j + 1) >> i & 1 for j in range(15)) for i in range(4)]
    hamming = dual(linear_code(F2, simplex), "euclidean")
    for inner, params, most in ((rm24, "[[16,6,4]]_2", 4 * 10**4), (hamming, "[[15,7,3]]_2", 10**4)):
        stab = certify_stabilizer(css(inner, inner).code)
        assert format_params(stab.params) == params and stab.params.pure == PURE
        assert stab.params.d.status == EXACT and stab.params.d.visited <= most


def test_purity_walk_stops_once_its_floor_reaches_d(monkeypatch):
    """Golay [[23,1,7]] under seeded local Cliffords, at budget 2^20: its
    stabilizer spans 2^22 words, beyond the budget.  Purity only needs a
    floor of d = 7 there, which layers 1-6 prove in 110,055 words; proving
    the exact minimum 8 takes 600,369."""
    import stabforge.stabilizer as stabilizer

    walks = []

    def record(C, *args, _fn=stabilizer.min_weight, **kw):
        walks.append(_fn(C, *args, **kw))
        return walks[-1]

    monkeypatch.setattr(stabilizer, "min_weight", record)
    g = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    golay = linear_code(F2, [(0,) * i + g + (0,) * (11 - i) for i in range(12)])
    block = css(golay, golay).code
    # each qubit's (a_i | b_i) under one of the six maps of SL(2, 2)
    sl2 = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1)),
           ((1, 1), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))]
    rng, n = random.Random(0), 23
    maps = [rng.choice(sl2) for _ in range(n)]
    rows = []
    for r in block.gen.rows:
        a = [(m[0][0] * r[i] + m[0][1] * r[n + i]) % 2 for i, m in enumerate(maps)]
        b = [(m[1][0] * r[i] + m[1][1] * r[n + i]) % 2 for i, m in enumerate(maps)]
        rows.append(tuple(a + b))
    walks.clear()
    p = certify_stabilizer(symplectic_code(F2, rows, half=n), budget=2**20).params
    assert format_params(p) == "[[23,1,7]]_2" and p.d.status == EXACT and p.pure == PURE
    assert len(walks) == 1 and walks[0].value == 7 and walks[0].visited <= 110_055


# -- Steane enlargement ------------------------------------------------------------


def test_steane_enlargement_rm_codes(f2):
    C = linear_code(f2, reed_muller_rows(2, 4))
    Cp = linear_code(f2, reed_muller_rows(3, 4))
    assert (C.k_dim, Cp.k_dim) == (11, 15)
    assert min_weight(C).value == 4 and min_weight(Cp).value == 2
    p = steane_enlarge(C, Cp)
    assert format_params(p) == "[[16,10,3]]_2"
    assert p.pure == PURE


def test_steane_enlargement_qudit_distance_formula():
    # self-dual [4,2]_3 inside the full space [4,4,1]_3
    C = linear_code(F3, [(1, 0, 1, 1), (0, 1, 1, 2)])
    assert dual(C, "euclidean").gen.rows == C.gen.rows
    Cp = linear_code(F3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    p = steane_enlarge(C, Cp)
    # min(d, ceil(4/3 * d')) = min(3, 2)
    assert min_weight(C).value == 3
    assert format_params(p) == "[[4,2,2]]_3"
    assert p.pure == UNKNOWN


def test_steane_qudit_ceiling_arithmetic():
    import math

    assert math.ceil((3 + 1) * 4 / 3) == 6


def test_steane_rejects_small_enlargement(f2, hamming74):
    C = linear_code(f2, reed_muller_rows(2, 4))
    Cp = linear_code(f2, reed_muller_rows(2, 4))
    with pytest.raises(NotEnlargement):
        steane_enlarge(C, Cp)
    plus_one = linear_code(f2, list(C.gen.rows) + [(1,) + (0,) * 15])
    assert plus_one.k_dim == C.k_dim + 1
    with pytest.raises(EnlargementTooSmall):
        steane_enlarge(C, plus_one)
    with pytest.raises(NotDualContaining):
        steane_enlarge(
            linear_code(f2, [(1, 0, 0, 0, 0, 0, 0)]),
            linear_code(f2, [(1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
                             (0, 0, 1, 0, 0, 0, 0)]),
        )


# -- Construction X ---------------------------------------------------------------


def test_construction_x_e0_delegates(hexacode):
    p = construction_x(hexacode)
    q = certify_additive(hexacode).params
    assert (p.n, p.k, p.d.value, p.d.status) == (q.n, q.k, q.d.value, q.d.status)
    assert "e0" in p.provenance


def test_construction_x_single_vector_gf4(f4):
    C = linear_code(f4, [(1, 0)])
    p = construction_x(C)
    assert (p.q, p.n, p.k) == (2, 3, 1)
    assert p.d.status == LOWER_BOUND and p.d.value == 1


def test_construction_x_zero_code(f4):
    C = linear_code(f4, [], n=4)
    p = construction_x(C)
    assert (p.n, p.k, p.d.value) == (4, 4, 1)


def test_construction_x_nontrivial_hull(f4):
    # hull of dimension 1: first generator is Hermitian-isotropic and
    # orthogonal to the second, second is not isotropic
    C = linear_code(f4, [(1, 1, 0, 0), (0, 0, 1, 0)])
    from stabforge.code import hull

    assert hull(C, "hermitian").k_dim == 1
    p = construction_x(C)
    assert (p.n, p.k) == (4 + 1, 4 - 4 + 1)
    Dh = dual(C, "hermitian")
    from stabforge.code import sum_code

    expected = min(min_weight(Dh).value, min_weight(sum_code(C, Dh)).value + 1)
    assert p.d.value == expected and p.d.status == LOWER_BOUND


# -- propagation -------------------------------------------------------------------


def test_propagation_rules(ex512):
    p = certify_stabilizer(ex512).params
    lengthened = propagate(p, "lengthen")
    assert (lengthened.n, lengthened.k, lengthened.d.value) == (6, 1, 3)
    assert lengthened.d.status == LOWER_BOUND
    punctured = propagate(p, "puncture")
    assert (punctured.n, punctured.k, punctured.d.value) == (4, 1, 2)
    sub = propagate(p, "subcode")
    assert (sub.n, sub.k, sub.d.value) == (5, 0, 3)
    chained = propagate(lengthened, "puncture")
    assert "lengthen" in chained.provenance and "puncture" in chained.provenance


def test_propagation_preconditions(ex512):
    p = certify_stabilizer(ex512).params
    zero_k = propagate(p, "subcode")
    with pytest.raises(BadRule):
        propagate(zero_k, "subcode")
    # lengthen construction needs k >= 1 (Calderbank, Rains, Shor and Sloane 1998, Thm 6)
    with pytest.raises(BadRule, match="lengthen construction needs k >= 1"):
        propagate(zero_k, "lengthen")
    d1 = CodeParams(q=2, n=4, k=1, d=DistanceResult(1, EXACT), provenance="t")
    with pytest.raises(BadRule):
        propagate(d1, "puncture")
    with pytest.raises(BadRule):
        propagate(p, "mirror")


# -- asymmetric CSS ----------------------------------------------------------------


def test_css_aqc_even_hamming(even762, hamming74):
    p = css_aqc(even762, hamming74)
    assert format_params(p) == "[[7,3,3,2]]_2"
    assert p.pure == PURE
    # oracle both coset minima
    d1 = dual(even762, "euclidean").gen.rows
    d2 = dual(hamming74, "euclidean").gen.rows
    m21 = coset_min_weight(F2, hamming74.gen.rows, d1, 7)
    m12 = coset_min_weight(F2, even762.gen.rows, d2, 7)
    assert (max(m21, m12), min(m21, m12)) == (3, 2)


def test_css_aqc_self_orthogonal_case_is_symmetric(hamming74):
    # C = simplex is Euclidean self-orthogonal; use C1 = C2 = C^perp
    p = css_aqc(hamming74, hamming74)
    assert (p.n, p.k) == (7, 1)
    assert p.dz.value == p.dx.value == 3
    assert p.pure == PURE


def test_css_aqc_hermitian_ip(f4):
    iso = linear_code(f4, [(1, 1, 1, 1)])
    C = dual(iso, "hermitian")
    p = css_aqc(C, C, ip="hermitian")
    assert (p.q, p.n, p.k) == (4, 4, 2)
    inside = span(f4, iso.gen.rows, 4)
    expected = min(hamming_weight(v) for v in span(f4, C.gen.rows, 4) if v not in inside)
    assert p.dz.value == p.dx.value == expected


def test_css_aqc_trace_variants_match_plain(even762, hamming74, f4):
    a = css_aqc(even762, hamming74, ip="euclidean")
    b = css_aqc(even762, hamming74, ip="trace_euclidean")
    assert (a.dz.value, a.dx.value, a.k) == (b.dz.value, b.dx.value, b.k)
    iso = linear_code(f4, [(1, 1, 1, 1)])
    C = dual(iso, "hermitian")
    h = css_aqc(C, C, ip="hermitian")
    th = css_aqc(C, C, ip="trace_hermitian")
    assert (h.dz.value, h.dx.value, h.k) == (th.dz.value, th.dx.value, th.k)


def test_css_aqc_not_nested(f2, even762):
    thin = linear_code(f2, [(1, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(NotNested):
        css_aqc(even762, thin)


# -- entanglement assistance --------------------------------------------------------


def test_ea_hermitian_dual_containing_needs_no_ebits(hexacode, f4):
    p = ea_ebits(hexacode)
    assert p.ebits == 0
    assert (p.q, p.n, p.k) == (2, 6, 0)
    iso = linear_code(f4, [(1, 1, 1, 1)])
    C = dual(iso, "hermitian")
    p2 = ea_ebits(C)
    assert p2.ebits == 0 and (p2.n, p2.k) == (4, 2)


def test_ea_single_vector_example(f4):
    C = linear_code(f4, [(1, 0)])
    p = ea_ebits(C)
    assert p.ebits == 1
    assert format_params(p) == "[[2,1,1;1]]_2"


def test_ea_rank_bounds_random(f4):
    rng = random.Random(19)
    for _ in range(10):
        C = linear_code(f4, [[rng.randrange(4) for _ in range(6)] for _ in range(3)])
        if C.k_dim != 3:
            continue
        p = ea_ebits(C)
        assert 0 <= p.ebits <= 3
        assert 2 * 3 - 6 + p.ebits == p.k >= 0


def _hull_identity_codes(f, rng):
    """Seeded random linear codes over f, the whole space F^n, and a
    Hermitian self-orthogonal code: two disjoint blocks of p ones, each of
    Hermitian norm p * 1 = 0."""
    codes = []
    for _ in range(12):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, n + 1)
        codes.append(linear_code(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)], n))
    codes.append(linear_code(f, [[int(i == j) for j in range(4)] for i in range(4)]))
    p = f.p
    codes.append(linear_code(f, [(1,) * p + (0,) * p, (0,) * p + (1,) * p]))
    return codes


@pytest.mark.parametrize("q", [4, 9, 16, 25, 64, 256])
def test_ebits_and_construction_x_extension_are_hull_codimensions(q):
    """c = rank(H H^dagger) for H the Euclidean parity-check matrix, and
    Construction X extends by e = k - dim hull_H(C)."""
    f = field_of_order(q)
    for C in _hull_identity_codes(f, random.Random(q)):
        H = dual(C, "euclidean").basis
        gram = fmatrix.matmul(H, fmatrix.transpose(fmatrix.entrywise_frob(H, f.m // 2)))
        assert ea_ebits(C, budget=1).ebits == fmatrix.rank(gram), C.basis.rows
        e = C.k_dim - hull(C, "hermitian").k_dim
        assert construction_x(C, budget=1).n == C.n + e, C.basis.rows


def test_ea_distance_leaves_out_the_hull(f4, hexacode):
    # the only weight-2 words are the multiples of (0,1,0,1,0), which span
    # the Hermitian hull, so the EA distance is 3, not d(C) = 2
    C = linear_code(f4, [(1, 0, 2, 0, 1), (0, 1, 0, 1, 0)])
    assert hull(C, "hermitian").basis.rows == ((0, 1, 0, 1, 0),)
    assert min_weight(C).value == 2
    p = ea_ebits(C)
    assert format_params(p) == "[[5,1,3;2]]_2" and p.d.status == EXACT
    # a hull that is all of C, or zero, leaves d(C)
    assert format_params(ea_ebits(hexacode)) == "[[6,0,4;0]]_2"
    assert format_params(ea_ebits(linear_code(f4, [(1, 0, 0)]))) == "[[3,1,1;2]]_2"


def test_ea_distance_matches_brute_force(f4):
    """The EA distance is the least weight of C outside its Hermitian hull
    when the hull is a proper nonzero subcode, and d(C) otherwise."""
    rng = random.Random(23)
    proper = above = 0
    for _ in range(200):
        n = rng.randrange(2, 7)
        C = linear_code(f4, [[rng.randrange(4) for _ in range(n)] for _ in range(rng.randrange(1, 4))], n)
        if not C.k_dim:
            continue
        words = span(f4, C.basis.rows, n) - {(0,) * n}
        d_C = min(map(hamming_weight, words))
        Hu = hull(C, "hermitian")
        if 0 < Hu.k_dim < C.k_dim:
            words -= span(f4, Hu.basis.rows, n)
            proper += 1
        p = ea_ebits(C)
        assert (p.d.value, p.d.status) == (min(map(hamming_weight, words)), EXACT), C.basis.rows
        above += p.d.value > d_C
    # 38 proper hulls, and 2 of them hold every lightest word of C
    assert (proper, above) == (38, 2)


def test_construction_x_builds_one_dual_and_one_sum(monkeypatch, f4):
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # `hull` calls code.dual and code.sum_code, construction_x its own imports
    for name in ("dual", "sum_code", "hull"):
        wrapped = counting(name, getattr(code_mod, name))
        for mod in (code_mod, stabilizer_mod):
            monkeypatch.setattr(mod, name, wrapped)
    p = construction_x(linear_code(f4, [(1, 1, 0, 0), (0, 0, 1, 0)]))
    assert (p.n, p.k) == (5, 1)
    assert counts == {"dual": 1, "sum_code": 1}


def test_square_order_is_checked_by_quad_ext_before_any_walk(monkeypatch, f3):
    """Every GF(q^2) construction reaches `quad_ext`, whose message names the
    field, before it walks a word."""

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the field order was checked")

    monkeypatch.setattr(code_mod, "_search", no_walk)
    C = linear_code(f3, [(1, 1, 0), (0, 1, 2)])
    sites = [
        lambda: code_mod.hermitian_pair(f3, (1, 2), (2, 1)),
        lambda: dual(C, "hermitian"),
        lambda: dual(C, "trace_hermitian"),
        lambda: dual(C, "trace_alternating"),
        lambda: certify_additive(C),
        lambda: construction_x(C),
        lambda: ea_ebits(C),
        lambda: css_aqc(C, C, ip="hermitian"),
    ]
    for site in sites:
        with pytest.raises(WrongFieldOrder, match=r"^GF\(3\) is not of square order$"):
            site()


def test_each_certificate_hashes_its_code_once(monkeypatch, ex512, hexacode, hamming74):
    digests = []

    def counting(C):
        digests.append(C)
        return code_mod.code_digest(C)

    monkeypatch.setattr(stabilizer_mod, "code_digest", counting)
    certify_stabilizer(ex512)
    assert len(digests) == 1
    p = certify_additive(hexacode).params
    assert len(digests) == 2 and p.provenance.endswith("|k0-selfdual")
    simplex = dual(hamming74, "euclidean")
    p = css(hamming74, simplex).params
    assert len(digests) == 4 and p.k == 0 and p.provenance.endswith("|k0-selfdual")


# -- parameter invariants ------------------------------------------------------------


def test_codeparams_rejects_singleton_violation():
    with pytest.raises(RuntimeError):
        CodeParams(q=2, n=5, k=3, d=DistanceResult(3, EXACT), provenance="t")


def test_codeparams_allows_bound_only_values():
    p = CodeParams(q=2, n=5, k=3, d=DistanceResult(3, LOWER_BOUND), provenance="t")
    assert p.d.status == LOWER_BOUND


def test_every_certificate_carries_provenance(ex512, hamming74, hexacode):
    outputs = [
        certify_stabilizer(ex512).params,
        css(hamming74, hamming74).params,
        certify_additive(hexacode).params,
        ea_ebits(hexacode),
    ]
    for p in outputs:
        assert p.provenance and ":" in p.provenance
