"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; criterion 10 is moved to the end of the whole session by a conftest
hook so it can watch the wall clock.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from stabforge.bounds import aqc_singleton, aqmds_feasible, hamming, singleton
from stabforge.code import (
    EXACT,
    dual,
    hamming_weight,
    linear_code,
    min_weight,
    min_weight_diff,
    phi_code,
    quad_ext,
    quantum_weight,
    symplectic_code,
    symplectic_pair,
    trace_alternating_pair,
)
from stabforge.errors import NotSelfOrthogonal
from stabforge.gf import field_make
from stabforge.pauli import (
    PauliOperator,
    commute_phase,
    error_set_size,
    pauli_mul,
    pauli_parse,
    weights,
)
from stabforge.stabilizer import (
    PURE,
    certify_additive,
    certify_stabilizer,
    css,
    css_aqc,
    format_params,
    propagate,
)
from stabforge.statevec import (
    code_basis,
    eigenspace_dims,
    generator_set,
    kl_verify,
    projector_apply,
    seed_codeword,
)

from conftest import SESSION_START, random_generator_set

F2 = field_make(2, 1)


def report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_ex512_end_to_end(ex512):
    start = time.monotonic()
    stab = certify_stabilizer(ex512)
    p = stab.params
    assert format_params(p) == "[[5,1,3]]_2" and p.pure == PURE
    assert stab.code.k_dim == 4
    assert stab.dual.k_dim == 6
    wq_c = min_weight(ex512, "quantum")
    wq_dual = min_weight(stab.dual, "quantum")
    wq_diff = min_weight_diff(stab.dual, ex512, "quantum")
    assert (wq_c.value, wq_c.status) == (4, EXACT)
    assert (wq_dual.value, wq_dual.status) == (3, EXACT)
    assert (wq_diff.value, wq_diff.status) == (3, EXACT)
    assert p.d.status == EXACT
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"[[5,1,3]]_2 pure, dims 4/6, weights 4/3/3 exact in {elapsed:.3f}s")


def test_criterion_02_perfectness(ex512):
    p = certify_stabilizer(ex512).params
    r = hamming(p)
    assert r.holds and r.perfect
    assert r.lhs == r.rhs == 16
    assert r.lhs == sum(3**j * len(list(itertools.combinations(range(5), j))) for j in (0, 1))
    report(2, "hamming bound 16 = 16 with perfect=true")


def test_criterion_03_hilbert_space_closure(ex512):
    start = time.monotonic()
    G = generator_set(ex512)
    dims = eigenspace_dims(G)
    assert dims == [2] * 16 and sum(dims) == 32
    assert kl_verify(G, 2).passed
    fail = kl_verify(G, 3)
    assert not fail.passed and weights(fail.witness.op)[0] == 3
    v0 = seed_codeword(G, "00000")
    v1 = seed_codeword(G, "11111")
    assert abs(np.vdot(v0, v1)) < 1e-12
    C = code_basis(G)
    assert C.shape[1] == 2
    coords = C.conj().T @ np.column_stack([v0, v1])
    assert np.linalg.matrix_rank(coords, tol=1e-9) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"16 x dim-2 eigenspaces, KL pass@2 / fail@3, seeds span, {elapsed:.2f}s")


def test_criterion_04_commutation_ground_truth():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sy = 1j * sx @ sz

    # independent oracle: matrices built here by kron of the letter table
    letters = {(0, 0): np.eye(2, dtype=complex), (1, 0): sx, (0, 1): sz, (1, 1): sy}

    def kron_dense(E: PauliOperator) -> np.ndarray:
        eps = sum(x & y for x, y in zip(E.a, E.b))
        m = np.eye(1, dtype=complex)
        for ai, bi in zip(E.a, E.b):
            m = np.kron(m, letters[(ai, bi)])
        return (1j ** ((E.phase - eps) % 4)) * m

    # Example pair: (I x sx)(sz x sy) = i sz x sz and reversed i^3 sz x sz
    E = pauli_parse("IX", F2)
    Fop = pauli_parse("ZY", F2)
    EF = pauli_mul(E, Fop)
    FE = pauli_mul(Fop, E)
    np.testing.assert_array_equal(
        np.kron(np.eye(2), sx) @ np.kron(sz, sy), 1j * np.kron(sz, sz)
    )
    np.testing.assert_array_equal(kron_dense(EF), 1j * np.kron(sz, sz))
    np.testing.assert_array_equal(kron_dense(FE), 1j**3 * np.kron(sz, sz))

    for n in (1, 2, 3):
        ops = [
            PauliOperator(F2, n, bits[:n], bits[n:], 0)
            for bits in itertools.product((0, 1), repeat=2 * n)
        ]
        mats = [kron_dense(E) for E in ops]
        pairs = 0
        for i, A in enumerate(ops):
            for j, B in enumerate(ops):
                prod = mats[i] @ mats[j]
                np.testing.assert_array_equal(prod, kron_dense(pauli_mul(A, B)))
                sign = (-1.0) ** commute_phase(A, B)
                np.testing.assert_array_equal(prod, sign * (mats[j] @ mats[i]))
                pairs += 1
        assert pairs == 4**n * 4**n
    report(4, "dense products and sign law exact for all 4096 pairs at n=3")


def test_criterion_05_css_oracle_equivalence(hamming74, even432):
    stab = css(hamming74, hamming74)
    p = stab.params
    assert format_params(p) == "[[7,1,3]]_2"
    assert stab.code.is_self_orthogonal()
    g = certify_stabilizer(stab.code).params
    assert (g.n, g.k, g.d.value, g.d.status, g.pure) == (p.n, p.k, p.d.value, p.d.status, p.pure)

    stab2 = css(even432, even432)
    p2 = stab2.params
    assert format_params(p2) == "[[4,2,2]]_2"
    g2 = certify_stabilizer(stab2.code).params
    assert (g2.n, g2.k, g2.d.value, g2.pure) == (p2.n, p2.k, p2.d.value, p2.pure)
    r = singleton(p2)
    assert r.holds and r.qmds and r.slack == 0
    report(5, "css == certify_stabilizer on [[7,1,3]] and [[4,2,2]]; [[4,2,2]] is QMDS")


def test_criterion_06_phi_bridge(ex512, hamming74, even432, f3):
    rng = random.Random(20260809)
    n = 6
    for q, field in ((2, field_make(2, 2)), (3, field_make(3, 2)), (4, field_make(2, 4))):
        ext = quad_ext(field)
        vectors = [
            tuple(rng.randrange(ext.sub.q) for _ in range(2 * n)) for _ in range(10_000)
        ]
        for w in vectors:
            assert quantum_weight(w) == hamming_weight(ext.phi(w))
        for u, v in zip(vectors[0::2], vectors[1::2]):
            assert symplectic_pair(ext.sub, u, v) == trace_alternating_pair(
                field, ext.phi(u), ext.phi(v)
            )

    shor_rows = [
        (1, 1, 1, 1, 1, 1, 0, 0, 0) + (0,) * 9,
        (0, 0, 0, 1, 1, 1, 1, 1, 1) + (0,) * 9,
    ] + [
        (0,) * 9 + tuple(1 if j in (i, i + 1) and (i % 3) != 2 else 0 for j in range(9))
        for i in range(8)
        if i % 3 != 2
    ]
    suite = [
        ex512,
        css(hamming74, hamming74).code,
        css(even432, even432).code,
        symplectic_code(F2, shor_rows),
        symplectic_code(F2, [(1, 1)]),
        symplectic_code(F2, [], half=3),
        symplectic_code(f3, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)]),
    ]
    for C in suite:
        direct = certify_stabilizer(C).params
        lifted = certify_additive(phi_code(C)).params
        assert (direct.q, direct.n, direct.k) == (lifted.q, lifted.n, lifted.k)
        assert (direct.d.value, direct.d.status, direct.pure) == (
            lifted.d.value, lifted.d.status, lifted.pure,
        )
        if direct.d.witness is not None:
            assert quantum_weight(direct.d.witness) == quantum_weight(lifted.d.witness)
    report(6, "phi isometry and pairing identities on 30000 vectors; certifications agree")


def test_criterion_07_error_set_counting():
    assert error_set_size(5, 1, 2) == 1 + 15 == 16
    for n in range(1, 7):
        for delta in range(n + 1):
            brute = sum(
                1
                for bits in itertools.product((0, 1), repeat=2 * n)
                if sum(x | y for x, y in zip(bits[:n], bits[n:])) <= delta
            )
            assert error_set_size(n, delta, 2) == brute
    report(7, "error-set sizes match exhaustive enumeration up to n=6; 1+15=16 at (5,1)")


def test_criterion_08_asymmetric_suite(even762, hamming74):
    p = css_aqc(even762, hamming74)
    assert format_params(p) == "[[7,3,3,2]]_2"
    assert p.dz.status == EXACT and p.dx.status == EXACT
    r = aqc_singleton(p)
    assert r.holds and r.slack == 1

    assert aqmds_feasible(2, 5, 0, 1) == (True, 1)
    assert aqmds_feasible(2, 6, 4, 1) == (True, 2)
    assert aqmds_feasible(5, 4, 1, 2) == (True, 4)
    assert aqmds_feasible(4, 5, 1, 2) == (True, 6)
    feasible, case = aqmds_feasible(2, 7, 5, 1)
    assert not feasible and case is None
    # exhaustive scan: no case admits (q=2, n=7, j=5, k=1)
    q, n, j, k = 2, 7, 5, 1
    assert not (k in (1, n - 1) and j in (0, n - k))
    assert not (q == 2 and n % 2 == 0 and k == 1 and j == n - 2)
    assert not (q >= 3)
    assert not (2 <= n <= q)
    assert not (n == q + 1)
    assert not (n == q + 2)
    report(8, "[[7,3,3,2]] with Singleton slack 1; AQMDS cases 1/2/4/6 hit, odd-n tuple rejected")


def test_criterion_09_propagation_and_projector_algebra(ex512):
    p = certify_stabilizer(ex512).params
    moved = propagate(p, "lengthen")
    assert (moved.n, moved.k, moved.d.value) == (p.n + 1, p.k, p.d.value)
    moved = propagate(p, "puncture")
    assert (moved.n, moved.k, moved.d.value) == (p.n - 1, p.k, p.d.value - 1)
    moved = propagate(p, "subcode")
    assert (moved.n, moved.k, moved.d.value) == (p.n, p.k - 1, p.d.value)

    rng = random.Random(99)
    nprng = np.random.default_rng(99)
    for trial in range(100):
        n = rng.randrange(2, 7)
        g = rng.randrange(1, n + 1)
        G = random_generator_set(n, g, rng)
        v = nprng.normal(size=1 << n) + 1j * nprng.normal(size=1 << n)
        syndromes = list(itertools.product((0, 1), repeat=g))
        s = syndromes[rng.randrange(len(syndromes))]
        w = projector_apply(G, s, v)
        assert np.max(np.abs(projector_apply(G, s, w) - w)) < 1e-12
        other = syndromes[(syndromes.index(s) + 1) % len(syndromes)]
        assert np.max(np.abs(projector_apply(G, other, w))) < 1e-12
        total = sum(projector_apply(G, sy, v) for sy in syndromes)
        assert np.max(np.abs(total - v)) < 1e-12
    report(9, "propagation bookkeeping exact; projector algebra at 1e-12 on 100 random sets")


def test_criterion_10_full_suite_runtime():
    elapsed = time.monotonic() - SESSION_START
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, over the 2-minute budget"
    report(10, f"suite wall clock {elapsed:.1f}s < 120s")
