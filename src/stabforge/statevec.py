"""Dense qubit Hilbert-space oracle.

States are numpy complex vectors of length 2^n indexed by basis strings
with the first qubit as the most significant bit.  X(a) permutes basis
indices by XOR, Z(b) applies the parity sign (-1)^(b.v), and the
idempotent projectors (I + (-1)^s_j g_j)/2 carve out the syndrome
eigenspaces.  Everything here is independent of the enumeration-based
certification path; it exists to cross-check it at desk scale.

Qubits only: amplitudes stay exact dyadic rationals in double precision,
so comparisons at 1e-9 are safe up to n = 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fmatrix
from .code import SymplecticCode, symplectic_pair
from .errors import BadRange, NotSelfOrthogonal, ShapeMismatch, StabforgeError, TooLarge, UnsupportedField
from .gf import Field, field_make
from .pauli import PauliOperator, hermitian_phases

_F2 = field_make(2, 1)

MAX_DENSE_QUBITS = 12
MAX_KL_QUBITS = 10


@dataclass(frozen=True)
class GeneratorSet:
    """Independent, mutually commuting stabilizer generators with the
    Hermitian phase choice lambda_j = a_j . b_j (mod 2)."""

    n: int
    rows: tuple[tuple[int, ...], ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        for r in self.rows:
            if len(r) != 2 * self.n:
                raise ShapeMismatch("generator rows must have length 2n")
        if len(self.phases) != len(self.rows):
            raise StabforgeError("one phase per generator required")
        for i in range(len(self.rows)):
            for j in range(i + 1, len(self.rows)):
                v = symplectic_pair(_F2, self.rows[i], self.rows[j])
                if v:
                    raise NotSelfOrthogonal(i, j, v)
        M = fmatrix.matrix(_F2, self.rows, 2 * self.n) if self.rows else None
        if M is not None and fmatrix.rank(M) != len(self.rows):
            raise StabforgeError("generator rows are linearly dependent")
        for lam, r in zip(self.phases, self.rows):
            ab = sum(r[i] & r[self.n + i] for i in range(self.n)) % 2
            if lam % 2 != ab:
                raise StabforgeError("phase parity must match a.b (mod 2)")

    @property
    def size(self) -> int:
        return len(self.rows)

    def operator(self, j: int) -> PauliOperator:
        r = self.rows[j]
        return PauliOperator(_F2, self.n, r[: self.n], r[self.n :], self.phases[j])


def generator_set(C: SymplecticCode) -> GeneratorSet:
    """Hermitian generator lift of a qubit symplectic (sub)code."""
    if C.field.q != 2:
        raise UnsupportedField("the dense oracle supports qubits only")
    return GeneratorSet(n=C.half, rows=C.gen.rows, phases=hermitian_phases(C.field, C.gen.rows))


def basis_state(n: int, bits) -> np.ndarray:
    """|b_1 ... b_n> as a dense vector; bits may be a string or sequence."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    bits = list(bits)
    if len(bits) != n:
        raise ShapeMismatch(f"expected {n} bits")
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    v = np.zeros(1 << n, dtype=complex)
    v[idx] = 1.0
    return v


def _vec_int(vec) -> int:
    out = 0
    for b in vec:
        out = (out << 1) | (int(b) & 1)
    return out


def _parity_signs(n: int, b_int: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.int64) & b_int
    x ^= x >> 16
    x ^= x >> 8
    x ^= x >> 4
    x ^= x >> 2
    x ^= x >> 1
    return 1.0 - 2.0 * (x & 1)


def _check_qubit(E: PauliOperator):
    if E.field.q != 2:
        raise UnsupportedField("the dense oracle supports qubits only")


def apply_pauli(E: PauliOperator, state: np.ndarray) -> np.ndarray:
    """i^phase X(a) Z(b) |state>; a basis permutation plus a sign pattern."""
    _check_qubit(E)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != 1 << E.n:
        raise ShapeMismatch(f"state dimension {state.shape[0]} != 2^{E.n}")
    a_int, b_int = _vec_int(E.a), _vec_int(E.b)
    idx = np.arange(1 << E.n)
    out = np.empty_like(state)
    signs = _parity_signs(E.n, b_int)
    if state.ndim == 2:
        out[idx ^ a_int, :] = (1j ** E.phase) * signs[:, None] * state
    else:
        out[idx ^ a_int] = (1j ** E.phase) * signs * state
    return out


def pauli_matrix(E: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the operator."""
    _check_qubit(E)
    if E.n > MAX_DENSE_QUBITS:
        raise TooLarge(f"dense matrices capped at n = {MAX_DENSE_QUBITS}")
    dim = 1 << E.n
    a_int, b_int = _vec_int(E.a), _vec_int(E.b)
    idx = np.arange(dim)
    M = np.zeros((dim, dim), dtype=complex)
    M[idx ^ a_int, idx] = (1j ** E.phase) * _parity_signs(E.n, b_int)
    return M


def projector_apply(G: GeneratorSet, syndrome, v: np.ndarray) -> np.ndarray:
    """Project onto the syndrome eigenspace: apply prod_j (I + (-1)^s_j g_j)/2.

    The result satisfies g_j w = (-1)^s_j w for every generator.
    """
    syndrome = tuple(int(s) & 1 for s in syndrome)
    if len(syndrome) != G.size:
        raise ShapeMismatch("syndrome length must match the generator count")
    w = np.asarray(v, dtype=complex)
    if w.shape[0] != 1 << G.n:
        raise ShapeMismatch(f"state dimension {w.shape[0]} != 2^{G.n}")
    for j, s in enumerate(syndrome):
        sign = -1.0 if s else 1.0
        w = 0.5 * (w + sign * apply_pauli(G.operator(j), w))
    return w


def _projector_matrix(G: GeneratorSet, syndrome) -> np.ndarray:
    return projector_apply(G, syndrome, np.eye(1 << G.n, dtype=complex))


def _syndrome_bits(s: int, g: int) -> tuple[int, ...]:
    return tuple((s >> (g - 1 - j)) & 1 for j in range(g))


def eigenspace_dims(G: GeneratorSet) -> list[int]:
    """Ranks of all 2^|G| syndrome projectors, via traces of idempotents.

    Projector entries are exact dyadic rationals, so the traces land on
    integers up to float rounding; a 1e-9 guard catches any drift.  The
    identity is projected in column blocks to keep memory flat at n = 12.
    """
    if G.n > MAX_DENSE_QUBITS:
        raise TooLarge(f"eigenspace decomposition capped at n = {MAX_DENSE_QUBITS}")
    if G.size > G.n:
        raise TooLarge("more generators than qubits")
    dim_total = 1 << G.n
    block = min(dim_total, 512)
    dims = []
    for s in range(1 << G.size):
        bits = _syndrome_bits(s, G.size)
        tr = 0.0 + 0.0j
        for start in range(0, dim_total, block):
            stop = min(start + block, dim_total)
            cols = np.zeros((dim_total, stop - start), dtype=complex)
            cols[start:stop] = np.eye(stop - start, dtype=complex)
            proj = projector_apply(G, bits, cols)
            tr += np.trace(proj[start:stop])
        dim = round(tr.real)
        if abs(tr - dim) > 1e-9:
            raise StabforgeError(f"projector trace {tr} is not an integer")
        dims.append(dim)
    return dims


def seed_codeword(G: GeneratorSet, seed) -> np.ndarray:
    """Sum of g|seed> over the whole lifted group, via prod_j (I + g_j)."""
    v = basis_state(G.n, seed)
    for j in range(G.size):
        v = v + apply_pauli(G.operator(j), v)
    return v


def code_basis(G: GeneratorSet, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the syndrome-zero eigenspace as matrix columns.

    Gram-Schmidt over the projected identity columns in index order, so
    witnesses downstream are reproducible.
    """
    P = _projector_matrix(G, (0,) * G.size)
    dim = P.shape[0]
    basis: list[np.ndarray] = []
    for col in range(dim):
        w = P[:, col].copy()
        for b in basis:
            w -= (b.conj() @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            basis.append(w / norm)
    return np.column_stack(basis) if basis else np.zeros((dim, 0), dtype=complex)


@dataclass(frozen=True)
class KLWitness:
    op: PauliOperator
    i: int
    j: int
    value: complex


@dataclass(frozen=True)
class KLResult:
    passed: bool
    witness: KLWitness | None
    checked: int
    code_dim: int


def kl_verify(G: GeneratorSet, delta: int, tol: float = 1e-9) -> KLResult:
    """Check <c_i| E |c_j> = alpha_E * delta_ij for every error operator of
    quantum weight at most delta, over an orthonormal basis {c_i} of the
    syndrome-zero space.

    Operators are enumerated in lexicographic (a|b) order with phase zero;
    the first violation (row-major in (i, j)) is returned as the witness.
    """
    if G.n > MAX_KL_QUBITS:
        raise TooLarge(f"exhaustive verification capped at n = {MAX_KL_QUBITS}")
    if not 0 <= delta <= G.n:
        raise BadRange(f"delta must lie in [0, {G.n}]")
    C = code_basis(G)
    K = C.shape[1]
    checked = 0
    dim = 1 << G.n
    idx = np.arange(dim)
    for a_int in range(dim):
        for b_int in range(dim):
            if (a_int | b_int).bit_count() > delta:
                continue
            checked += 1
            signs = _parity_signs(G.n, b_int)
            EC = np.empty_like(C)
            EC[idx ^ a_int, :] = signs[:, None] * C
            M = C.conj().T @ EC
            alpha = M[0, 0]
            dev = np.abs(M - alpha * np.eye(K))
            if dev.max() > tol:
                # first violating pair in row-major order
                flat = np.argwhere(dev > tol)
                i, j = (int(flat[0][0]), int(flat[0][1]))
                a_bits = tuple((a_int >> (G.n - 1 - t)) & 1 for t in range(G.n))
                b_bits = tuple((b_int >> (G.n - 1 - t)) & 1 for t in range(G.n))
                op = PauliOperator(_F2, G.n, a_bits, b_bits, 0)
                return KLResult(False, KLWitness(op, i, j, complex(M[i, j])), checked, K)
    return KLResult(True, None, checked, K)
