"""Dense oracle checks: definitional actions, projector algebra, KL."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from stabforge import code, statevec
from stabforge.code import symplectic_code, symplectic_pair
from stabforge.errors import BadRange, ShapeMismatch, StabforgeError, TooLarge, UnsupportedField
from stabforge.gf import field_make
from stabforge.pauli import PauliOperator, pauli_mul, pauli_parse, weights
from stabforge.statevec import (
    MAX_KL_QUBITS,
    GeneratorSet,
    apply_pauli,
    basis_state,
    code_basis,
    eigenspace_dims,
    generator_set,
    kl_verify,
    pauli_matrix,
    projector_apply,
    seed_codeword,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)


from conftest import random_generator_set


def test_x_action_on_basis():
    out = apply_pauli(pauli_parse("XI", F2), basis_state(2, "00"))
    np.testing.assert_array_equal(out, basis_state(2, "10"))


def test_z_action_signs():
    # b.v = 0 mod 2 on |11>, so Z(1,1)|11> = +|11>
    out = apply_pauli(pauli_parse("ZZ", F2), basis_state(2, "11"))
    np.testing.assert_array_equal(out, basis_state(2, "11"))


@pytest.mark.parametrize("popcount", ["native", "swar"])
def test_z11_matrix_is_expected_diagonal(monkeypatch, popcount):
    # "swar" runs the popcount numpy 1.x falls back to
    if popcount == "swar":
        monkeypatch.setattr(statevec, "_popcount", code._swar_popcount)
    M = pauli_matrix(pauli_parse("ZZ", F2))
    np.testing.assert_array_equal(np.diag(M), np.array([1, -1, -1, 1], dtype=complex))


def test_x01_matrix_matches_kron():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_array_equal(pauli_matrix(pauli_parse("IX", F2)), np.kron(np.eye(2), sx))


def test_apply_pauli_is_unitary():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    for s in ("XYZ", "-iYYX", "ZIZ"):
        out = apply_pauli(pauli_parse(s, F2), v)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v))


def test_apply_pauli_respects_mul_phases_exhaustively():
    # composition of actions must equal the action of the product with exact
    # phases; this pins the multiplication convention to the Hilbert space.
    # Each E acts once on the images F v of every operator F, stacked as the
    # columns of one state, and E F v is compared with the image of E * F
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        ops = [
            PauliOperator(F2, n, bits[:n], bits[n:], ph)
            for bits in itertools.product((0, 1), repeat=2 * n)
            for ph in range(4)
        ]
        images = np.stack([apply_pauli(E, v) for E in ops], axis=1)
        column = {(F.a, F.b, F.phase): j for j, F in enumerate(ops)}
        for E in ops:
            lhs = apply_pauli(E, images)
            rhs = images[:, [column[(P.a, P.b, P.phase)] for P in (pauli_mul(E, F) for F in ops)]]
            close = np.isclose(lhs, rhs, atol=1e-12).all(axis=0)
            if not close.all():
                raise AssertionError(f"composition mismatch for {E} and {ops[int(np.argmin(close))]}")


def test_apply_pauli_rejects_qudits_and_bad_shapes():
    with pytest.raises(UnsupportedField):
        apply_pauli(PauliOperator(F3, 1, (1,), (0,)), np.zeros(3, dtype=complex))
    with pytest.raises(ShapeMismatch):
        apply_pauli(pauli_parse("X", F2), np.zeros(4, dtype=complex))


def test_basis_state_rejects_entries_other_than_bits():
    for bits in ("21", "0a", [3, 1], [0, -1], (0.5, 1)):
        with pytest.raises(BadRange):
            basis_state(2, bits)
    np.testing.assert_array_equal(basis_state(2, [True, np.int64(1)]), basis_state(2, "11"))


def test_generator_set_validation(ex512):
    G = generator_set(ex512)
    assert G.size == 4 and G.phases == (0, 0, 0, 0)
    with pytest.raises(StabforgeError):
        GeneratorSet(n=2, rows=((1, 0, 0, 0), (1, 0, 0, 0)), phases=(0, 0))
    with pytest.raises(StabforgeError):
        GeneratorSet(n=1, rows=((1, 1),), phases=(0,))  # parity law broken
    with pytest.raises(BadRange):
        GeneratorSet(n=1, rows=((2, 0), (0, 1)), phases=(0, 0))  # not bits, before any pairing


def test_empty_generator_set_projector_is_identity():
    G = GeneratorSet(n=3, rows=(), phases=())
    v = np.arange(8, dtype=complex)
    np.testing.assert_array_equal(projector_apply(G, (), v), v)
    assert eigenspace_dims(G) == [8]


def test_projector_apply_rejects_syndrome_entries_other_than_bits(ex512):
    # read mod 2, 3 would act as 1 and -2 as 0
    G = generator_set(ex512)
    v = basis_state(5, "00000")
    for syndrome in ((3, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0.5)):
        with pytest.raises(BadRange, match="other than 0 or 1"):
            projector_apply(G, syndrome, v)
    np.testing.assert_array_equal(
        projector_apply(G, (True, 0, np.int64(1), 0), v), projector_apply(G, (1, 0, 1, 0), v)
    )


def test_projector_against_group_sum_oracle(ex512):
    """Sum over all 16 lifted group elements, built here by brute force."""
    G = generator_set(ex512)
    v = basis_state(5, "00000")
    expected = np.zeros_like(v)
    for subset in itertools.product((0, 1), repeat=4):
        w = v
        for j, take in enumerate(subset):
            if take:
                w = apply_pauli(G.operator(j), w)
        expected = expected + w
    got = projector_apply(G, (0, 0, 0, 0), v)
    np.testing.assert_allclose(got, expected / 16.0, atol=1e-12)
    np.testing.assert_allclose(seed_codeword(G, "00000"), expected, atol=1e-12)


@pytest.mark.parametrize("n,g", [(1, 0), (1, 1), (3, 2), (4, 3), (5, 4), (6, 3)])
def test_seed_codeword_is_the_group_sum(n, g):
    """seed_codeword equals the explicit sum of every one of the 2^|G|
    generator products applied to |seed>, exactly: amplitudes are dyadic."""
    rng = random.Random(97 * n + g)
    G = random_generator_set(n, g, rng)
    for _ in range(3):
        seed = [rng.randrange(2) for _ in range(n)]
        expected = np.zeros(1 << n, dtype=complex)
        for subset in itertools.product((0, 1), repeat=g):
            w = basis_state(n, seed)
            for j, take in enumerate(subset):
                if take:
                    w = apply_pauli(G.operator(j), w)
            expected = expected + w
        np.testing.assert_array_equal(seed_codeword(G, seed), expected)


def test_projectors_of_different_syndromes_annihilate(ex512):
    G = generator_set(ex512)
    rng = np.random.default_rng(11)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    w = projector_apply(G, (0, 0, 0, 0), v)
    z = projector_apply(G, (1, 0, 0, 0), w)
    np.testing.assert_allclose(z, np.zeros_like(z), atol=1e-12)


def test_projector_algebra_on_random_generator_sets():
    rng = random.Random(2023)
    nprng = np.random.default_rng(2023)
    for _ in range(25):
        n = rng.randrange(2, 7)
        g = rng.randrange(1, n + 1)
        G = random_generator_set(n, g, rng)
        v = nprng.normal(size=1 << n) + 1j * nprng.normal(size=1 << n)
        syndromes = list(itertools.product((0, 1), repeat=g))
        # idempotency, eigenvector law, cross-orthogonality, resolution
        total = np.zeros_like(v)
        s0 = syndromes[rng.randrange(len(syndromes))]
        w = projector_apply(G, s0, v)
        np.testing.assert_allclose(projector_apply(G, s0, w), w, atol=1e-12)
        for j in range(g):
            sign = -1.0 if s0[j] else 1.0
            np.testing.assert_allclose(apply_pauli(G.operator(j), w), sign * w, atol=1e-12)
        s1 = syndromes[(syndromes.index(s0) + 1) % len(syndromes)]
        np.testing.assert_allclose(
            projector_apply(G, s1, w), np.zeros_like(w), atol=1e-12
        )
        for s in syndromes:
            total = total + projector_apply(G, s, v)
        np.testing.assert_allclose(total, v, atol=1e-12)


def test_eigenspace_dims_ex512(ex512):
    dims = eigenspace_dims(generator_set(ex512))
    assert dims == [2] * 16
    assert sum(dims) == 32


def test_eigenspace_dims_single_z():
    G = GeneratorSet(n=1, rows=((0, 1),), phases=(0,))
    assert eigenspace_dims(G) == [1, 1]


def test_eigenspace_dims_random_sets():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 6)
        g = rng.randrange(1, n + 1)
        G = random_generator_set(n, g, rng)
        dims = eigenspace_dims(G)
        assert dims == [1 << (n - g)] * (1 << g)


def test_generators_are_hermitian_dense():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randrange(2, 6)
        G = random_generator_set(n, rng.randrange(1, n + 1), rng)
        for j in range(G.size):
            M = pauli_matrix(G.operator(j))
            np.testing.assert_array_equal(M, M.conj().T)


def test_seed_codewords_span_the_code_space(ex512):
    G = generator_set(ex512)
    v0 = seed_codeword(G, "00000")
    v1 = seed_codeword(G, "11111")
    assert np.vdot(v0, v1) == pytest.approx(0)
    assert np.linalg.norm(v0) > 0 and np.linalg.norm(v1) > 0
    # both are fixed by every generator
    for j in range(4):
        np.testing.assert_allclose(apply_pauli(G.operator(j), v0), v0, atol=1e-12)
        np.testing.assert_allclose(apply_pauli(G.operator(j), v1), v1, atol=1e-12)
    # and they span the 2-dimensional syndrome-zero space
    C = code_basis(G)
    assert C.shape[1] == 2
    coords = C.conj().T @ np.column_stack([v0, v1])
    assert np.linalg.matrix_rank(coords, tol=1e-9) == 2


def test_kl_verify_ex512(ex512):
    G = generator_set(ex512)
    assert kl_verify(G, 0).passed
    assert kl_verify(G, 2).passed
    result = kl_verify(G, 3)
    assert not result.passed
    wq, _, _ = weights(result.witness.op)
    assert wq == 3
    # recompute the violated entry independently
    C = code_basis(G)
    EC = apply_pauli(result.witness.op, C)
    M = C.conj().T @ EC
    alpha = M[0, 0]
    i, j = result.witness.i, result.witness.j
    assert abs(M[i, j] - alpha * (i == j)) > 1e-9
    assert M[i, j] == pytest.approx(result.witness.value)


def test_kl_caps():
    G = GeneratorSet(n=1, rows=((0, 1),), phases=(0,))
    with pytest.raises(BadRange):
        kl_verify(G, 5)
    big = GeneratorSet(n=11, rows=(), phases=())
    with pytest.raises(TooLarge):
        kl_verify(big, 1)


# -- reference model: the full dense oracle ----------------------------------


def _brute_code_basis(G: GeneratorSet) -> np.ndarray:
    """Gram-Schmidt over every column of the projected 2^n identity."""
    dim = 1 << G.n
    P = projector_apply(G, (0,) * G.size, np.eye(dim, dtype=complex))
    basis = []
    for col in range(dim):
        w = P[:, col].copy()
        for b in basis:
            w -= (b.conj() @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            basis.append(w / norm)
    return np.column_stack(basis)


def _brute_kl(G: GeneratorSet, delta: int, tol: float = 1e-9):
    """Every (a, b) pair in lexicographic order, filtered by weight, one
    error at a time: (passed, checked, code_dim, witness or None)."""
    C = _brute_code_basis(G)
    K = C.shape[1]
    dim = 1 << G.n
    idx = np.arange(dim)
    # signs[b, d] = (-1)^(b.d), the diagonal of Z(b)
    popcount = np.array([bin(x).count("1") for x in range(dim)])
    signs = 1.0 - 2.0 * (popcount[idx[:, None] & idx[None, :]] & 1)
    eye = np.eye(K)
    checked = 0
    for a_int in range(dim):
        for b_int in range(dim):
            if bin(a_int | b_int).count("1") > delta:
                continue
            checked += 1
            EC = np.empty_like(C)
            EC[idx ^ a_int, :] = signs[b_int][:, None] * C
            M = C.conj().T @ EC
            dev = np.abs(M - M[0, 0] * eye)
            if dev.max() > tol:
                i, j = (int(x) for x in np.argwhere(dev > tol)[0])
                a_bits, b_bits = (tuple((x >> (G.n - 1 - t)) & 1 for t in range(G.n)) for x in (a_int, b_int))
                return False, checked, K, (a_bits, b_bits, i, j, complex(M[i, j]))
    return True, checked, K, None


def _assert_matches_reference(G: GeneratorSet, deltas):
    np.testing.assert_allclose(code_basis(G), _brute_code_basis(G), atol=1e-12)
    for delta in deltas:
        got = kl_verify(G, delta)
        passed, checked, dim, witness = _brute_kl(G, delta)
        assert (got.passed, got.checked, got.code_dim) == (passed, checked, dim), (G, delta)
        if witness is None:
            assert got.witness is None
            continue
        w = got.witness
        assert (w.op.a, w.op.b, w.op.phase, w.i, w.j) == (*witness[:2], 0, *witness[2:4]), (G, delta)
        assert abs(w.value - witness[4]) < 1e-9


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("k", range(3))
def test_kl_verify_matches_dense_reference(n, k):
    G = random_generator_set(n, n - k, random.Random(1000 * n + k))
    _assert_matches_reference(G, range(n + 1))


@pytest.mark.parametrize("popcount", ["native", "swar"])
def test_kl_verify_matches_dense_reference_on_named_codes(monkeypatch, ex512, popcount):
    # [[5,1,3]] and Shor's degenerate [[9,1,3]] pass at delta 2 over
    # hundreds of errors, which random codes of low distance seldom do.
    # "swar" runs the popcount numpy 1.x falls back to
    if popcount == "swar":
        monkeypatch.setattr(statevec, "_popcount", code._swar_popcount)
    def row(xs, zs):
        return tuple(int(q in xs) for q in range(9)) + tuple(int(q in zs) for q in range(9))

    zz = [row((), (b + t, b + t + 1)) for b in (0, 3, 6) for t in (0, 1)]
    shor = GeneratorSet(n=9, rows=tuple(zz + [row(range(6), ()), row(range(3, 9), ())]), phases=(0,) * 8)
    _assert_matches_reference(generator_set(ex512), range(6))
    _assert_matches_reference(shor, range(4))


def test_kl_verify_matches_dense_reference_in_small_chunks(monkeypatch):
    # `rows` rows of D_a per matmul and a few errors per batch: the chunked
    # paths, with a short last chunk of rows when rows does not divide 2^k
    rng = random.Random(77)
    for n, k in ((4, 2), (5, 1), (6, 3), (7, 2)):
        G = random_generator_set(n, n - k, rng)
        for rows in (1, 3):
            monkeypatch.setattr(statevec, "_KL_CHUNK", rows << (n + k))
            _assert_matches_reference(G, range(n + 1))


def test_kl_verify_matches_dense_reference_at_the_cap():
    G = random_generator_set(MAX_KL_QUBITS, MAX_KL_QUBITS - 2, random.Random(10))
    _assert_matches_reference(G, (1, 2))
