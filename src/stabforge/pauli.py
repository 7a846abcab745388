"""Phase-tracked error operators in symplectic form.

A qubit operator is i^phase * X(a) Z(b) with the phase mod 4; a qudit
operator over GF(q), q = p^m, is w^phase * X(a) Z(b) with w a primitive
p-th root of unity and the phase mod p.  The multiplication phase law is
pinned by dense matrices: Z(b) X(a') = w^Tr(b.a') X(a') Z(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadAlphabet, BadRange, BadSyntax, NotPrime, ShapeMismatch
from .gf import Field, _prime_power, field_make

_LETTER_TO_AB = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_AB_TO_LETTER = {v: k for k, v in _LETTER_TO_AB.items()}
_PREFIX_TO_PHASE = {"": 0, "+1": 0, "-1": 2, "+i": 1, "-i": 3}
_PHASE_TO_PREFIX = {0: "", 2: "-1", 1: "+i", 3: "-i"}


@dataclass(frozen=True)
class PauliOperator:
    field: Field
    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        if len(self.a) != self.n or len(self.b) != self.n:
            raise ShapeMismatch("a and b must have length n")
        object.__setattr__(self, "phase", self.phase % self.phase_modulus)

    @property
    def phase_modulus(self) -> int:
        return 4 if self.field.q == 2 else self.field.p

    def __repr__(self) -> str:
        return f"PauliOperator({pauli_format(self)!r}, q={self.field.q})"


def pauli_identity(field: Field, n: int) -> PauliOperator:
    return PauliOperator(field, n, (0,) * n, (0,) * n, 0)


def pauli_from_vector(field: Field, row) -> PauliOperator:
    """Operator whose symplectic vector is (a|b), phased so that qubit
    formatting shows bare letters (one factor i folded in per Y)."""
    row = tuple(int(x) for x in row)
    n = len(row) // 2
    a, b = row[:n], row[n:]
    if field.q == 2:
        eps = sum(1 for i in range(n) if a[i] and b[i])
        return PauliOperator(field, n, a, b, eps % 4)
    return PauliOperator(field, n, a, b, 0)


def hermitian_phases(field: Field, rows) -> tuple[int, ...]:
    """Generator phases lambda = a.b (mod 2), one per (a|b) row, that make
    each qubit operator i^lambda X(a) Z(b) Hermitian; 0 over other fields."""
    if field.q != 2:
        return (0,) * len(rows)
    n = len(rows[0]) // 2 if rows else 0
    return tuple(sum(r[i] & r[n + i] for i in range(n)) % 2 for r in rows)


def _check_pair(E: PauliOperator, F: PauliOperator):
    if E.field is not F.field or E.n != F.n:
        raise ShapeMismatch("operators act on different spaces")


def pauli_mul(E: PauliOperator, F: PauliOperator) -> PauliOperator:
    """Operator product E*F with exact phase bookkeeping."""
    _check_pair(E, F)
    f = E.field
    a = tuple(f.add(x, y) for x, y in zip(E.a, F.a))
    b = tuple(f.add(x, y) for x, y in zip(E.b, F.b))
    if f.q == 2:
        cross = sum(x & y for x, y in zip(F.a, E.b)) % 2
        phase = (E.phase + F.phase + 2 * cross) % 4
    else:
        prime = field_make(f.p, 1)
        cross = f.trace_to(f.dot(E.b, F.a), prime)
        phase = (E.phase + F.phase + cross) % f.p
    return PauliOperator(f, E.n, a, b, phase)


def commute_phase(E: PauliOperator, F: PauliOperator) -> int:
    """c with E F = w^c F E; zero iff the operators commute."""
    _check_pair(E, F)
    f = E.field
    if f.q == 2:
        return (sum(x & y for x, y in zip(E.a, F.b)) + sum(x & y for x, y in zip(F.a, E.b))) % 2
    prime = field_make(f.p, 1)
    return f.trace_to(f.sub(f.dot(E.b, F.a), f.dot(F.b, E.a)), prime)


def weights(E: PauliOperator) -> tuple[int, int, int]:
    """(quantum weight, X weight, Z weight)."""
    wq = sum(1 for x, y in zip(E.a, E.b) if x or y)
    wx = sum(1 for x in E.a if x)
    wz = sum(1 for y in E.b if y)
    return wq, wx, wz


def error_set_size(n: int, delta: int, q: int, with_phases: bool = False) -> int:
    """Number of error operators of quantum weight <= delta.

    The bar variant (default) counts modulo phases: sum of (q^2-1)^j C(n,j).
    With phases the count gains a factor 4 for qubits and p for qudits.
    """
    pm = _prime_power(q)
    if pm is None:
        raise NotPrime(f"{q} is not a prime power")
    if not 0 <= delta <= n:
        raise BadRange(f"delta must lie in [0, {n}], got {delta}")
    total = sum((q * q - 1) ** j * math.comb(n, j) for j in range(delta + 1))
    if not with_phases:
        return total
    return (4 if q == 2 else pm[0]) * total


def pauli_parse(s: str, field: Field) -> PauliOperator:
    """Parse the qubit letter grammar or the qudit vector grammar."""
    s = s.strip()
    if field.q == 2:
        phase = 0
        body = s
        for prefix, ph in _PREFIX_TO_PHASE.items():
            if prefix and s.startswith(prefix):
                phase, body = ph, s[len(prefix):]
                break
        if not body:
            raise BadSyntax("empty operator string")
        a, b = [], []
        eps = 0
        for ch in body:
            if ch not in _LETTER_TO_AB:
                raise BadAlphabet(f"letter {ch!r} not in I/X/Z/Y")
            ai, bi = _LETTER_TO_AB[ch]
            a.append(ai)
            b.append(bi)
            eps += ai & bi
        return PauliOperator(field, len(a), tuple(a), tuple(b), (phase + eps) % 4)
    parts = s.split(";")
    if len(parts) != 3:
        raise BadSyntax("expected 'X:..;Z:..;w:..'")
    try:
        xs = [p for p in parts if p.startswith("X:")][0][2:]
        zs = [p for p in parts if p.startswith("Z:")][0][2:]
        ws = [p for p in parts if p.startswith("w:")][0][2:]
    except IndexError:
        raise BadSyntax("expected 'X:..;Z:..;w:..'")
    try:
        a = tuple(int(t) for t in xs.split(",")) if xs else ()
        b = tuple(int(t) for t in zs.split(",")) if zs else ()
        phase = int(ws)
    except ValueError:
        raise BadSyntax("entries must be integers")
    if len(a) != len(b):
        raise BadSyntax("X and Z parts differ in length")
    if any(x < 0 or x >= field.q for x in a + b):
        raise BadAlphabet(f"entries must lie in [0, {field.q})")
    return PauliOperator(field, len(a), a, b, phase % field.p)


def pauli_format(E: PauliOperator) -> str:
    """Canonical string form; inverse of pauli_parse."""
    if E.field.q == 2:
        eps = sum(x & y for x, y in zip(E.a, E.b))
        prefix = _PHASE_TO_PREFIX[(E.phase - eps) % 4]
        letters = "".join(_AB_TO_LETTER[(x, y)] for x, y in zip(E.a, E.b))
        return prefix + letters
    return (
        "X:" + ",".join(str(x) for x in E.a)
        + ";Z:" + ",".join(str(y) for y in E.b)
        + f";w:{E.phase}"
    )
