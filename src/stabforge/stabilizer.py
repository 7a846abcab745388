"""Stabilizer-code constructions and parameter certification.

Certifies symplectic self-orthogonal codes and trace-alternating
self-orthogonal additive codes, builds CSS codes from nested classical
pairs (symmetric and asymmetric), applies Steane enlargement, quantum
Construction X, the subcode/lengthen/puncture propagation rules, and the
entanglement-assisted ebit count rank(H H^dagger).

Every distance that reaches a CodeParams carries its enumeration status;
bound-only values are never silently upgraded.

Purity is decided on the stabilizer side: a code is pure when no nonzero
stabilizer word is lighter than d.  A stabilizer C lies in its dual D, so
d(D) = min(d(C), d(D minus C)) and the code is pure iff d(C) >= d; for CSS,
min(d(C1), d(C2)) = min(d(C1^perp), d(C2^perp), d).  Under a partial
budget an exact stabilizer-side value below d is impure, an exact d with
no stabilizer-side value (exact or floor) below it is pure, and anything
else is unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import fmatrix
from .code import (
    DEFAULT_BUDGET,
    EXACT,
    LOWER_BOUND,
    DistanceResult,
    LinearCode,
    SymplecticCode,
    as_additive,
    code_digest,
    dual,
    hull,
    is_subcode,
    min_weight,
    min_weight_diff,
    phi_inv_code,
    quad_ext,
    sum_code,
    symplectic_code,
)
from .errors import (
    BadRule,
    DimensionMismatch,
    EnlargementTooSmall,
    NotDualContaining,
    NotEnlargement,
    NotNested,
    NotSelfOrthogonal,
    StabforgeError,
    WrongFieldOrder,
)
from .gf import _prime_power, field_of_order
from .pauli import hermitian_phases, pauli_format, pauli_from_vector

PURE = "pure"
IMPURE = "impure"
UNKNOWN = "unknown"

AQC_INNER_PRODUCTS = ("euclidean", "trace_euclidean", "hermitian", "trace_hermitian")


@dataclass(frozen=True)
class CodeParams:
    """Certified quantum code parameters.

    Symmetric codes carry `d`; asymmetric ones carry `dz` and `dx`.
    `ebits` is set only by the entanglement-assisted construction, whose
    parameters are exempt from the plain Singleton sanity check.
    """

    q: int
    n: int
    k: int
    d: DistanceResult | None = None
    dz: DistanceResult | None = None
    dx: DistanceResult | None = None
    pure: str = UNKNOWN
    provenance: str = ""
    ebits: int | None = None

    def __post_init__(self):
        if _prime_power(self.q) is None:
            raise StabforgeError(f"q = {self.q} is not a prime power")
        if not 0 <= self.k <= self.n:
            raise StabforgeError(f"invalid logical dimension k={self.k} for n={self.n}")
        if (self.d is None) == (self.dz is None and self.dx is None):
            raise StabforgeError("exactly one of d or (dz, dx) must be set")
        if (self.dz is None) != (self.dx is None):
            raise StabforgeError("dz and dx must be set together")
        if (
            self.ebits is None
            and self.d is not None
            and self.d.status == EXACT
            and self.k > 0
            and self.k > self.n - 2 * self.d.value + 2
        ):
            raise RuntimeError(
                f"internal error: [[{self.n},{self.k},{self.d.value}]] violates the Singleton bound"
            )

    @property
    def is_asymmetric(self) -> bool:
        return self.dz is not None


@dataclass(frozen=True)
class StabilizerCode:
    """A certified stabilizer code with its cached symplectic dual and the
    generator phases of the Hermitian lift (qubit case)."""

    code: SymplecticCode
    dual: SymplecticCode
    params: CodeParams
    phases: tuple[int, ...]

    def __iter__(self):
        # `stab, params = css(...)` still unpacks, for callers written when
        # css returned that pair (bench/baseline.py)
        return iter((self, self.params))


def _stabilizer_min(S: LinearCode, wfn: str, budget: int) -> DistanceResult | None:
    """Minimum weight of the stabilizer-side code S; None if S is zero."""
    return min_weight(S, wfn, budget) if S.k_dim else None


def _purity(*pairs: tuple[DistanceResult, DistanceResult | None]) -> str:
    """Verdict from (distance, stabilizer-side minimum) pairs, the minimum
    None for a zero code: pure iff no minimum is below its distance.  Sound
    under any budget, since neither value exceeds the true one."""
    pairs = [(d, s) for d, s in pairs if s is not None]
    if any(s.is_exact and s.value < d.value for d, s in pairs):
        return IMPURE
    if all(d.is_exact and s.value >= d.value for d, s in pairs):
        return PURE
    return UNKNOWN


def certify_stabilizer(C: SymplecticCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """Certify a symplectic self-orthogonal code as an [[n, k, d]]_q code.

    k = n - dim C and d is the minimum quantum weight of the symplectic
    dual D minus the code itself (of the dual alone when k = 0).  Since
    d(D) = min(d(C), d), the code is pure iff d(C) >= d: purity walks C,
    of dimension n - k, and not D, of dimension n + k.
    """
    witness = C.self_orthogonality_witness()
    if witness is not None:
        raise NotSelfOrthogonal(*witness)
    n = C.half
    k = n - C.k_dim
    D = dual(C, "symplectic")
    tag = f"certify_stabilizer(C:{code_digest(C)})"
    if k > 0:
        d = min_weight_diff(D, C, "quantum", budget)
        pure = _purity((d, _stabilizer_min(C, "quantum", budget)))
    else:
        d = min_weight(C, "quantum", budget)
        pure = PURE
        tag += "|k0-selfdual"
    params = CodeParams(q=C.field.q, n=n, k=k, d=d, pure=pure, provenance=tag)
    phases = hermitian_phases(C.field, C.gen.rows)
    return StabilizerCode(code=C, dual=D, params=params, phases=phases)


def certify_additive(C: LinearCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """Certify a trace-alternating self-orthogonal additive code over
    GF(q^2) by pulling it back through Phi^-1."""
    if C.field.m % 2:
        raise WrongFieldOrder(f"additive certification needs GF(q^2), got GF({C.field.q})")
    A = as_additive(C)
    # Phi carries the trace-alternating pairing to the symplectic one, so
    # certify_stabilizer's check on the preimage is the additive check
    stab = certify_stabilizer(phi_inv_code(A), budget)
    tag = f"certify_additive(C:{code_digest(A)})"
    if stab.params.k == 0:
        tag += "|k0-selfdual"
    return replace(stab, params=replace(stab.params, provenance=tag))


def _check_linear_pair(C1: LinearCode, C2: LinearCode):
    if C1.field is not C2.field or C1.n != C2.n:
        raise DimensionMismatch("ingredient codes live in different ambient spaces")
    if C1.is_additive or C2.is_additive:
        raise StabforgeError("CSS-type constructions take linear ingredient codes")


def _merge_status(*results: DistanceResult) -> str:
    return EXACT if all(r.status == EXACT for r in results) else LOWER_BOUND


def _css_walks(C1, C2, D1, D2, budget: int):
    """(wt(C2 minus D1), wt(C1 minus D2), d(D1), d(D2)) for D_i = C_i^perp,
    the minima None for a zero D_i; when C1 == C2 each is walked once."""
    same = C1 == C2
    w21 = min_weight_diff(C2, D1, "hamming", budget)
    w12 = w21 if same else min_weight_diff(C1, D2, "hamming", budget)
    m1 = _stabilizer_min(D1, "hamming", budget)
    m2 = m1 if same else _stabilizer_min(D2, "hamming", budget)
    return w21, w12, m1, m2


def css(C1: LinearCode, C2: LinearCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """CSS construction from C1^perp_E contained in C2.

    The stabilizer is the block code (C1^perp | 0) + (0 | C2^perp), which the
    nesting makes symplectic self-orthogonal.  For k > 0 its parameters
    [[n, k1 + k2 - n, min(wt(C2 minus C1^perp), wt(C1 minus C2^perp))]]
    come from the two classical coset distances, walked once when C1 == C2.
    Since min(d(C1), d(C2)) = min(d(C1^perp), d(C2^perp), d), the code is
    pure iff d(C1^perp) >= d and d(C2^perp) >= d; each nonzero dual is
    walked once.  For k = 0 the block is certified directly.
    """
    _check_linear_pair(C1, C2)
    n = C1.n
    D1 = dual(C1, "euclidean")
    if not is_subcode(D1, C2):
        raise NotNested("C1^perp_E is not contained in C2")
    D2 = dual(C2, "euclidean")
    f = C1.field
    rows = [tuple(r) + (0,) * n for r in D1.gen.rows]
    rows += [(0,) * n + tuple(r) for r in D2.gen.rows]
    block = symplectic_code(f, rows, half=n)
    k = C1.k_dim + C2.k_dim - n
    tag = f"css(C1:{code_digest(C1)},C2:{code_digest(C2)})"
    if k == 0:
        stab = certify_stabilizer(block, budget)
        return replace(stab, params=replace(stab.params, provenance=tag + "|k0-selfdual"))
    w21, w12, m1, m2 = _css_walks(C1, C2, D1, D2, budget)
    if w21.value <= w12.value:
        sym_wit = tuple(w21.witness) + (0,) * n if w21.witness else None
    else:
        sym_wit = (0,) * n + tuple(w12.witness) if w12.witness else None
    visited = w21.visited if w12 is w21 else w21.visited + w12.visited
    d = DistanceResult(min(w21.value, w12.value), _merge_status(w21, w12), sym_wit, visited)
    pure = _purity((d, m1), (d, m2))
    params = CodeParams(q=f.q, n=n, k=k, d=d, pure=pure, provenance=tag)
    phases = hermitian_phases(f, block.gen.rows)
    return StabilizerCode(code=block, dual=dual(block, "symplectic"), params=params, phases=phases)


def steane_enlarge(C: LinearCode, Cp: LinearCode, budget: int = DEFAULT_BUDGET) -> CodeParams:
    """Steane enlargement of a dual-containing code C by a strict
    enlargement C': [[n, k + k' - n, min(d, ceil((q+1) d'/q))]]_q."""
    _check_linear_pair(C, Cp)
    if not is_subcode(dual(C, "euclidean"), C):
        raise NotDualContaining("C does not contain its Euclidean dual")
    if not is_subcode(C, Cp) or Cp.k_dim <= C.k_dim:
        raise NotEnlargement("C' must strictly enlarge C")
    if Cp.k_dim <= C.k_dim + 1:
        raise EnlargementTooSmall("enlargement needs k' > k + 1")
    q = C.field.q
    d = min_weight(C, budget=budget)
    dp = min_weight(Cp, budget=budget)
    enlarged = math.ceil((q + 1) * dp.value / q)
    value = min(d.value, enlarged)
    result = DistanceResult(value, _merge_status(d, dp), None, d.visited + dp.visited)
    return CodeParams(
        q=q,
        n=C.n,
        k=C.k_dim + Cp.k_dim - C.n,
        d=result,
        pure=PURE if q == 2 else UNKNOWN,
        provenance=f"steane_enlarge(C:{code_digest(C)},C':{code_digest(Cp)})",
    )


def construction_x(C: LinearCode, budget: int = DEFAULT_BUDGET) -> CodeParams:
    """Quantum Construction X on an [n, k]_{q^2} linear code.

    e is the codimension of the Hermitian hull inside C; the output
    [[n+e, n-2k+e]]_q distance is a certified lower bound
    min(d(C^perp_H), d(C + C^perp_H) + 1) and stays bound-only since the
    lengthened stabilizer matrix itself is not synthesized here.
    """
    if C.is_additive:
        raise StabforgeError("Construction X takes a linear code over GF(q^2)")
    if C.field.m % 2:
        raise WrongFieldOrder(f"Construction X needs GF(q^2), got GF({C.field.q})")
    e = C.k_dim - hull(C, "hermitian").k_dim
    tag = f"construction_x(C:{code_digest(C)})"
    if e == 0:
        stab = certify_additive(C, budget)
        return replace(stab.params, provenance=tag + "|e0-stabilizer")
    Dh = dual(C, "hermitian")
    S = sum_code(C, Dh)
    terms = []
    visited = 0
    statuses = []
    if Dh.k_dim > 0:
        dD = min_weight(Dh, budget=budget)
        terms.append(dD.value)
        visited += dD.visited
        statuses.append(dD)
    dS = min_weight(S, budget=budget)
    terms.append(dS.value + 1)
    visited += dS.visited
    statuses.append(dS)
    d = DistanceResult(min(terms), LOWER_BOUND, None, visited)
    sub_q = quad_ext(C.field).sub.q
    return CodeParams(
        q=sub_q,
        n=C.n + e,
        k=C.n - 2 * C.k_dim + e,
        d=d,
        pure=UNKNOWN,
        provenance=tag,
    )


def propagate(p: CodeParams, rule: str) -> CodeParams:
    """Parameter-level propagation: subcode, lengthen, or puncture."""
    if p.is_asymmetric:
        raise BadRule("propagation rules apply to symmetric parameters")
    if rule == "subcode":
        if p.k < 1:
            raise BadRule("subcode construction needs k >= 1")
        n, k, dv = p.n, p.k - 1, p.d.value
    elif rule == "lengthen":
        n, k, dv = p.n + 1, p.k, p.d.value
    elif rule == "puncture":
        if p.n < 2 or p.d.value < 2:
            raise BadRule("puncturing needs n >= 2 and d >= 2")
        n, k, dv = p.n - 1, p.k, p.d.value - 1
    else:
        raise BadRule(f"unknown rule {rule!r}")
    return CodeParams(
        q=p.q,
        n=n,
        k=k,
        d=DistanceResult(dv, LOWER_BOUND, None, 0),
        pure=UNKNOWN,
        provenance=f"{p.provenance}|{rule}" if p.provenance else rule,
    )


def css_aqc(
    C1: LinearCode,
    C2: LinearCode,
    budget: int = DEFAULT_BUDGET,
    ip: str = "euclidean",
) -> CodeParams:
    """Asymmetric CSS-like construction under a chosen inner product.

    d_z is the larger of the two coset distances, d_x the smaller; the
    result is pure exactly when {d_z, d_x} = {d(C1), d(C2)}.  As
    C1^perp < C2 and C2^perp < C1, that holds iff
    d(C1^perp) >= wt(C2 minus C1^perp) and d(C2^perp) >= wt(C1 minus C2^perp),
    so purity walks the duals, each nonzero one once.  When C1 == C2 the
    single coset distance is walked once.
    """
    if ip not in AQC_INNER_PRODUCTS:
        raise StabforgeError(f"inner product must be one of {AQC_INNER_PRODUCTS}")
    _check_linear_pair(C1, C2)
    D1 = dual(C1, ip)
    if not is_subcode(D1, C2):
        raise NotNested(f"C1^perp ({ip}) is not contained in C2")
    D2 = dual(C2, ip)
    w21, w12, m1, m2 = _css_walks(C1, C2, D1, D2, budget)
    dz, dx = (w21, w12) if w21.value >= w12.value else (w12, w21)
    pure = _purity((w21, m1), (w12, m2))
    return CodeParams(
        q=C1.field.q,
        n=C1.n,
        k=C1.k_dim + C2.k_dim - C1.n,
        dz=dz,
        dx=dx,
        pure=pure,
        provenance=f"css_aqc[{ip}](C1:{code_digest(C1)},C2:{code_digest(C2)})",
    )


def ea_ebits(C: LinearCode, budget: int = DEFAULT_BUDGET) -> CodeParams:
    """Entanglement-assisted parameters [[n, 2k - n + c, d; c]]_q from an
    [n, k, d]_{q^2} code, with c the rank of H H^dagger for H the
    Euclidean parity-check matrix."""
    if C.is_additive:
        raise StabforgeError("the EA construction takes a linear code over GF(q^2)")
    f = C.field
    if f.m % 2:
        raise WrongFieldOrder(f"EA construction needs GF(q^2), got GF({f.q})")
    H = dual(C, "euclidean").gen
    conj = fmatrix.entrywise_frob(H, f.m // 2)
    gram = fmatrix.matmul(H, fmatrix.transpose(conj))
    c = fmatrix.rank(gram)
    d = min_weight(C, budget=budget) if C.k_dim else DistanceResult(C.n + 1, EXACT, None, 0)
    sub_q = quad_ext(f).sub.q
    return CodeParams(
        q=sub_q,
        n=C.n,
        k=2 * C.k_dim - C.n + c,
        d=d,
        pure=UNKNOWN,
        provenance=f"ea(C:{code_digest(C)})",
        ebits=c,
    )


# ---------------------------------------------------------------------------
# certificate rendering


def _fmt_distance(r: DistanceResult) -> str:
    return str(r.value) if r.status == EXACT else f">={r.value}"


def format_params(p: CodeParams) -> str:
    """Compact bracket form, e.g. [[5,1,3]]_2 or [[7,3,3,2]]_2."""
    if p.is_asymmetric:
        core = f"[[{p.n},{p.k},{_fmt_distance(p.dz)},{_fmt_distance(p.dx)}]]"
    elif p.ebits is not None:
        core = f"[[{p.n},{p.k},{_fmt_distance(p.d)};{p.ebits}]]"
    else:
        core = f"[[{p.n},{p.k},{_fmt_distance(p.d)}]]"
    return f"{core}_{p.q}"


def _pure_str(p: CodeParams) -> str:
    return {PURE: "true", IMPURE: "false", UNKNOWN: "unknown"}[p.pure]


def _witness_string(p: CodeParams) -> str | None:
    if p.d is None or p.d.witness is None:
        return None
    vec = p.d.witness
    if len(vec) != 2 * p.n:
        return None
    try:
        field = field_of_order(p.q)
    except StabforgeError:
        return None
    return pauli_format(pauli_from_vector(field, vec))


def certificate_kv(p: CodeParams) -> list[str]:
    lines = [f"q={p.q}", f"n={p.n}", f"k={p.k}"]
    if p.is_asymmetric:
        lines += [
            f"dz={p.dz.value}",
            f"dz.status={p.dz.status}",
            f"dx={p.dx.value}",
            f"dx.status={p.dx.status}",
            "d.status=" + _merge_status(p.dz, p.dx),
        ]
    else:
        lines += [f"d={p.d.value}", f"d.status={p.d.status}"]
    if p.ebits is not None:
        lines.append(f"ebits={p.ebits}")
    lines.append(f"pure={_pure_str(p)}")
    lines.append(f"provenance={p.provenance}")
    wit = _witness_string(p)
    if wit is not None:
        lines.append(f"witness={wit}")
    return lines


def certificate_text(p: CodeParams) -> str:
    if p.is_asymmetric:
        status = _merge_status(p.dz, p.dx)
    else:
        status = p.d.status
    head = f"{format_params(p)} pure={_pure_str(p)} d.status={status}"
    lines = [head, f"provenance: {p.provenance}"]
    wit = _witness_string(p)
    if wit is not None:
        lines.append(f"witness: {wit}")
    return "\n".join(lines)
