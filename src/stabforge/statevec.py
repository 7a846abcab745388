"""Dense qubit Hilbert-space oracle.

States are numpy complex vectors of length 2^n indexed by basis strings
packed by `fmatrix._pack`, the first qubit as the most significant bit;
`fmatrix._unpack` spells syndromes and witnesses back.  X(a) permutes
basis indices by XOR, Z(b) applies the parity sign (-1)^(b.v) counted by
`code._popcount`, and the idempotent projectors (I + (-1)^s_j g_j)/2
carve out the syndrome eigenspaces.  Everything here is independent of
the enumeration-based certification path; it exists to cross-check it at
desk scale.  Generators are checked pair by pair (`pauli.not_self_orthogonal`),
where certification decides by the symplectic dual.

The Knill-Laflamme check costs what it checks: the code basis stops at its
2^(n-|G|) vectors, and only the errors of weight at most delta are walked,
all Z parts of one X part in one matmul over the dense code states.

Qubits only: amplitudes stay exact dyadic rationals in double precision,
so comparisons at 1e-9 are safe up to n = 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fmatrix
from .code import SymplecticCode, _popcount
from .errors import BadRange, ShapeMismatch, StabforgeError, TooLarge, UnsupportedField
from .gf import field_make
from .pauli import PauliOperator, hermitian_phases, not_self_orthogonal

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
        M = fmatrix.matrix(_F2, self.rows, 2 * self.n)  # BadRange unless every entry is 0 or 1
        error = not_self_orthogonal(_F2, M.rows)
        if error is not None:
            raise error
        if fmatrix.rank(M) != M.nrows:
            raise StabforgeError("generator rows are linearly dependent")
        for lam, ab in zip(self.phases, hermitian_phases(_F2, self.rows)):
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
    row = ["01".find(c) for c in bits] if isinstance(bits, str) else list(bits)
    if len(row) != n:
        raise ShapeMismatch(f"expected {n} bits")
    if any(b not in (0, 1) for b in row):
        raise BadRange(f"basis state {bits!r} has an entry other than 0 or 1")
    v = np.zeros(1 << n, dtype=complex)
    v[fmatrix._pack(row)] = 1.0
    return v


def _ones(n: int, mask: int) -> np.ndarray:
    """The set bits of v & mask for every basis index v < 2^n.  Index and
    mask are both uint64: numpy 1.x promotes a signed and an unsigned
    operand to float64."""
    return _popcount(np.arange(1 << n, dtype=np.uint64) & np.uint64(mask))


def _check_qubit(E: PauliOperator):
    if E.field.q != 2:
        raise UnsupportedField("the dense oracle supports qubits only")


def apply_pauli(E: PauliOperator, state: np.ndarray) -> np.ndarray:
    """i^phase X(a) Z(b) |state>; a basis permutation plus a sign pattern."""
    _check_qubit(E)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != 1 << E.n:
        raise ShapeMismatch(f"state dimension {state.shape[0]} != 2^{E.n}")
    # row j of the result is row j ^ a of the input, times its phase and sign
    perm = np.arange(1 << E.n) ^ fmatrix._pack(E.a)
    signs = (1j ** E.phase) * (1.0 - 2.0 * (_ones(E.n, fmatrix._pack(E.b)) & 1))[perm]
    out = state[perm]
    out *= signs[:, None] if state.ndim == 2 else signs
    return out


def pauli_matrix(E: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the operator."""
    _check_qubit(E)
    if E.n > MAX_DENSE_QUBITS:
        raise TooLarge(f"dense matrices capped at n = {MAX_DENSE_QUBITS}")
    return apply_pauli(E, np.eye(1 << E.n, dtype=complex))


def projector_apply(G: GeneratorSet, syndrome, v: np.ndarray) -> np.ndarray:
    """Project onto the syndrome eigenspace: apply prod_j (I + (-1)^s_j g_j)/2.

    The result satisfies g_j w = (-1)^s_j w for every generator.
    """
    syndrome = tuple(syndrome)
    if any(s not in (0, 1) for s in syndrome):
        raise BadRange(f"syndrome {syndrome!r} has an entry other than 0 or 1")
    if len(syndrome) != G.size:
        raise ShapeMismatch("syndrome length must match the generator count")
    w = np.asarray(v, dtype=complex)
    if w.shape[0] != 1 << G.n:
        raise ShapeMismatch(f"state dimension {w.shape[0]} != 2^{G.n}")
    for j, s in enumerate(syndrome):
        sign = -1.0 if s else 1.0
        w = 0.5 * (w + sign * apply_pauli(G.operator(j), w))
    return w


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
        bits = fmatrix._unpack(s, G.size)
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
    """Sum of g|seed> over the whole lifted group: 2^|G| times the
    syndrome-zero projection, exact since the amplitudes are dyadic."""
    return (1 << G.size) * projector_apply(G, (0,) * G.size, basis_state(G.n, seed))


def code_basis(G: GeneratorSet) -> np.ndarray:
    """Orthonormal basis of the syndrome-zero eigenspace as matrix columns.

    The identity is projected in column blocks of doubling width, and
    Gram-Schmidt runs over the projected columns in index order, so
    witnesses downstream are reproducible.  Independent commuting
    generators fix the dimension at 2^(n-|G|); every column after the one
    that completes the basis is dependent, so the walk stops there.
    """
    dim = 1 << G.n
    want = dim >> G.size
    basis: list[np.ndarray] = []
    start, block = 0, 8
    while start < dim and len(basis) < want:
        stop = min(start + block, dim)
        cols = np.zeros((dim, stop - start), dtype=complex)
        cols[start:stop] = np.eye(stop - start, dtype=complex)
        P = projector_apply(G, (0,) * G.size, cols)
        # a projected basis state is exactly zero or of norm >= 2^-|G|
        for col in np.flatnonzero(np.linalg.norm(P, axis=0) > 1e-6):
            w = P[:, col].copy()
            for b in basis:
                w -= (b.conj() @ w) * b
            norm = np.linalg.norm(w)
            if norm > 1e-6:
                basis.append(w / norm)
                if len(basis) == want:
                    break
        start, block = stop, min(2 * block, 256)
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


# complex entries per matmul operand or result; bounds the memory of a step
_KL_CHUNK = 1 << 18
# how far a Knill-Laflamme entry may stray from alpha_E * delta_ij
_KL_TOL = 1e-9


def _kl_entries(S: np.ndarray, C: np.ndarray, Ca: np.ndarray, rows: int) -> np.ndarray:
    """M[e, i, j] = sum_d S[e, d] conj(C[d, i]) Ca[d, j] for every sign row
    S[e] = S_b, with Ca the rows of C permuted by X(a).

    Each sign row multiplies D_a[d, i*K + j] = conj(C[d, i]) Ca[d, j], so
    one real matmul serves every b of one X part; D_a is built `rows` rows
    i at a time to bound its memory.
    """
    dim, K = C.shape
    parts = []
    for i0 in range(0, K, rows):
        D = (C[:, i0 : i0 + rows].conj()[:, :, None] * Ca[:, None, :]).reshape(dim, -1)
        parts.append((S @ D.view(float)).view(complex))
    return np.concatenate(parts, axis=1).reshape(len(S), K, K)


def kl_verify(G: GeneratorSet, delta: int) -> KLResult:
    """Check <c_i| E |c_j> = alpha_E * delta_ij for every error operator of
    quantum weight at most delta, over an orthonormal basis {c_i} of the
    syndrome-zero space.

    Only the errors of weight at most delta are walked, in lexicographic
    (a|b) order with phase zero: for each X part a, every admissible Z part
    b at once.  <c_i| X(a) Z(b) |c_j> is summed over the dense state
    vectors, with the Z signs read from a parity table.  `checked` counts
    the errors through the first violation, whose first violating (i, j)
    in row-major order is the witness.
    """
    if G.n > MAX_KL_QUBITS:
        raise TooLarge(f"exhaustive verification capped at n = {MAX_KL_QUBITS}")
    if not 0 <= delta <= G.n:
        raise BadRange(f"delta must lie in [0, {G.n}]")
    C = code_basis(G)
    K = C.shape[1]
    dim = 1 << G.n
    idx = np.arange(dim)
    pc = _ones(G.n, dim - 1)
    parity = 1.0 - 2.0 * (pc & 1)
    eye = np.eye(K)
    rows = max(1, _KL_CHUNK // (dim * K))
    step = max(1, _KL_CHUNK // (K * K))
    checked = 0
    for a_int in np.flatnonzero(pc <= delta):
        # every admissible Z part of this X part, in increasing order
        bs = np.flatnonzero(pc[a_int | idx] <= delta)
        Ca = C[idx ^ a_int]
        for b0 in range(0, bs.size, step):
            S = parity[(idx ^ a_int) & bs[b0 : b0 + step, None]]
            M = _kl_entries(S, C, Ca, rows)
            bad = (np.abs(M - M[:, :1, :1] * eye) > _KL_TOL).reshape(len(S), -1)
            hit = bad.any(axis=1)
            if not hit.any():
                checked += len(S)
                continue
            e = int(hit.argmax())
            checked += e + 1
            i, j = divmod(int(bad[e].argmax()), K)
            a, b = (fmatrix._unpack(int(x), G.n) for x in (a_int, bs[b0 + e]))
            op = PauliOperator(_F2, G.n, a, b, 0)
            return KLResult(False, KLWitness(op, i, j, complex(M[e, i, j])), checked, K)
    return KLResult(True, None, checked, K)
