"""Operator algebra pinned to dense matrices built independently here."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from stabforge.errors import BadAlphabet, BadRange, BadSyntax, NotPrime, ShapeMismatch
from stabforge.gf import field_make
from stabforge.pauli import (
    PauliOperator,
    commute_phase,
    error_set_size,
    pauli_format,
    pauli_from_vector,
    pauli_identity,
    pauli_mul,
    pauli_parse,
    weights,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SY = 1j * SX @ SZ
I2 = np.eye(2, dtype=complex)
SINGLE = {(0, 0): I2, (1, 0): SX, (0, 1): SZ, (1, 1): SY}


def dense_qubit(E: PauliOperator) -> np.ndarray:
    """Independent oracle: kron product of single-qubit matrices.

    i^eps X(a)Z(b) is the plain letter product, so i^phase X(a)Z(b) equals
    i^(phase - eps) times the kron of letters.
    """
    eps = sum(x & y for x, y in zip(E.a, E.b))
    m = np.eye(1, dtype=complex)
    for ai, bi in zip(E.a, E.b):
        m = np.kron(m, SINGLE[(ai, bi)])
    return (1j ** ((E.phase - eps) % 4)) * m


def dense_qutrit(E: PauliOperator) -> np.ndarray:
    """Independent qutrit oracle: X is a cyclic shift, Z a w-power diagonal."""
    w = np.exp(2j * np.pi / 3)
    x1 = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    z1 = np.diag([w**k for k in range(3)])
    m = np.eye(1, dtype=complex)
    for ai, bi in zip(E.a, E.b):
        m = np.kron(m, np.linalg.matrix_power(x1, ai) @ np.linalg.matrix_power(z1, bi))
    return (w**E.phase) * m


def all_qubit_paulis(n, phase=0):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield PauliOperator(F2, n, bits[:n], bits[n:], phase)


def test_example_pair_product_and_phases():
    E = pauli_parse("IX", F2)
    F = pauli_parse("ZY", F2)
    assert (F.a, F.b, F.phase) == ((0, 1), (1, 1), 1)
    EF = pauli_mul(E, F)
    assert (EF.a, EF.b, EF.phase) == ((0, 0), (1, 1), 1)  # i * Z(x)Z
    FE = pauli_mul(F, E)
    assert (FE.a, FE.b, FE.phase) == ((0, 0), (1, 1), 3)  # i^3 * Z(x)Z
    assert commute_phase(E, F) == 1


def test_x_squares_to_identity():
    E = pauli_parse("XXIX", F2)
    sq = pauli_mul(E, E)
    assert sq == pauli_identity(F2, 4)


def test_sigma_x_times_sigma_z():
    got = pauli_mul(pauli_parse("X", F2), pauli_parse("Z", F2))
    assert got == pauli_parse("-iY", F2)


@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_dense_oracle_exhaustive(n):
    ops = list(all_qubit_paulis(n))
    for E in ops:
        ME = dense_qubit(E)
        for F in ops:
            prod = pauli_mul(E, F)
            np.testing.assert_array_equal(ME @ dense_qubit(F), dense_qubit(prod))


@pytest.mark.parametrize("n", [1, 2])
def test_commute_phase_matches_dense_oracle(n):
    ops = list(all_qubit_paulis(n))
    for E in ops:
        ME = dense_qubit(E)
        for F in ops:
            MF = dense_qubit(F)
            commutes = np.array_equal(ME @ MF, MF @ ME)
            assert (commute_phase(E, F) == 0) == commutes


def test_qutrit_commute_phase_example():
    X1 = PauliOperator(F3, 1, (1,), (0,))
    Z1 = PauliOperator(F3, 1, (0,), (1,))
    assert commute_phase(X1, Z1) == 2
    # dense check: E F = w^2 F E
    w = np.exp(2j * np.pi / 3)
    lhs = dense_qutrit(X1) @ dense_qutrit(Z1)
    rhs = w**2 * (dense_qutrit(Z1) @ dense_qutrit(X1))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_qutrit_mul_and_commutation_exhaustive():
    ops = [
        PauliOperator(F3, 2, a, b, 0)
        for a in itertools.product(range(3), repeat=2)
        for b in itertools.product(range(3), repeat=2)
    ]
    mats = [dense_qutrit(E) for E in ops]
    for E, ME in zip(ops, mats):
        for F, MF in zip(ops, mats):
            prod = ME @ MF
            np.testing.assert_allclose(prod, dense_qutrit(pauli_mul(E, F)), atol=1e-12)
            commutes = np.allclose(prod, MF @ ME, atol=1e-12)
            assert (commute_phase(E, F) == 0) == commutes


def test_qutrit_phase_tracking_exhaustive_n1():
    ops = [
        PauliOperator(F3, 1, (a,), (b,), ph)
        for a in range(3)
        for b in range(3)
        for ph in range(3)
    ]
    for E in ops:
        for F in ops:
            np.testing.assert_allclose(
                dense_qutrit(E) @ dense_qutrit(F), dense_qutrit(pauli_mul(E, F)), atol=1e-12
            )


def test_weights_examples():
    E = pauli_parse("XXZIZ", F2)
    assert weights(E) == (4, 2, 2)
    assert weights(pauli_identity(F2, 5)) == (0, 0, 0)
    assert weights(pauli_parse("Y", F2)) == (1, 1, 1)


def test_weight_subadditivity_random():
    rng = np.random.default_rng(2024)
    n = 8
    a1, b1, a2, b2 = rng.integers(0, 2, size=(4, 100_000, n), dtype=np.uint8)
    wq = lambda a, b: ((a | b) != 0).sum(axis=1)
    lhs = wq(a1 ^ a2, b1 ^ b2)
    assert (lhs <= wq(a1, b1) + wq(a2, b2)).all()


def test_center_quotient_is_additive_group():
    rng = random.Random(6)
    for _ in range(50):
        n = 4
        E = PauliOperator(F2, n, tuple(rng.randrange(2) for _ in range(n)), tuple(rng.randrange(2) for _ in range(n)), rng.randrange(4))
        F = PauliOperator(F2, n, tuple(rng.randrange(2) for _ in range(n)), tuple(rng.randrange(2) for _ in range(n)), rng.randrange(4))
        P = pauli_mul(E, F)
        assert P.a == tuple(x ^ y for x, y in zip(E.a, F.a))
        assert P.b == tuple(x ^ y for x, y in zip(E.b, F.b))


def test_error_set_size_examples():
    assert error_set_size(5, 1, 2) == 16
    assert error_set_size(5, 0, 2) == 1
    assert error_set_size(4, 2, 2) == 67
    assert error_set_size(5, 1, 2, with_phases=True) == 64
    assert error_set_size(2, 1, 3, with_phases=True) == 3 * error_set_size(2, 1, 3)
    with pytest.raises(BadRange):
        error_set_size(4, 5, 2)


def test_error_set_size_rejects_non_prime_power_order():
    # q = 6 used to count with phases as if p = 2, and q = 1 as a field
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrime):
            error_set_size(2, 1, q, with_phases=True)
        with pytest.raises(NotPrime):
            error_set_size(2, 1, q)
    assert error_set_size(2, 1, 4, with_phases=True) == 2 * error_set_size(2, 1, 4)
    assert error_set_size(2, 1, 9, with_phases=True) == 3 * error_set_size(2, 1, 9)
    assert error_set_size(2, 1, 257, with_phases=True) == 257 * error_set_size(2, 1, 257)


def test_error_set_size_matches_enumeration():
    for n in range(1, 7):
        for delta in range(n + 1):
            count = sum(
                1
                for bits in itertools.product((0, 1), repeat=2 * n)
                if sum(x | y for x, y in zip(bits[:n], bits[n:])) <= delta
            )
            assert error_set_size(n, delta, 2) == count
    for n in range(1, 4):
        for delta in range(n + 1):
            count = sum(
                1
                for ab in itertools.product(range(3), repeat=2 * n)
                if sum(1 for i in range(n) if ab[i] or ab[n + i]) <= delta
            )
            assert error_set_size(n, delta, 3) == count


def test_parse_example_row():
    E = pauli_parse("XXZIZ", F2)
    assert (E.a, E.b, E.phase) == ((1, 1, 0, 0, 0), (0, 0, 1, 0, 1), 0)


def test_parse_identity_and_signed_y():
    assert pauli_parse("IIIII", F2) == pauli_identity(F2, 5)
    s = "-iYI"
    assert pauli_format(pauli_parse(s, F2)) == s


def test_parse_format_roundtrip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 7)
        E = PauliOperator(
            F2,
            n,
            tuple(rng.randrange(2) for _ in range(n)),
            tuple(rng.randrange(2) for _ in range(n)),
            rng.randrange(4),
        )
        assert pauli_parse(pauli_format(E), F2) == E
    for _ in range(100):
        n = rng.randrange(1, 5)
        E = PauliOperator(
            F3,
            n,
            tuple(rng.randrange(3) for _ in range(n)),
            tuple(rng.randrange(3) for _ in range(n)),
            rng.randrange(3),
        )
        assert pauli_parse(pauli_format(E), F3) == E


def test_pauli_from_vector_formats_clean_letters():
    E = pauli_from_vector(F2, (1, 0, 1, 1, 0, 1))
    assert pauli_format(E) == "YIY"
    # dense value really equals the letter product
    np.testing.assert_array_equal(dense_qubit(E), np.kron(np.kron(SY, I2), SY))


def test_parse_errors():
    with pytest.raises(BadAlphabet):
        pauli_parse("XQ", F2)
    with pytest.raises(BadSyntax):
        pauli_parse("", F2)
    with pytest.raises(BadSyntax):
        pauli_parse("X:1,0", F3)
    with pytest.raises(BadAlphabet):
        pauli_parse("X:3,0;Z:0,0;w:0", F3)
    with pytest.raises(ShapeMismatch):
        pauli_mul(pauli_parse("X", F2), pauli_parse("XX", F2))
