"""Stabilizer-code constructions and parameter certification.

Certifies symplectic self-orthogonal codes and trace-alternating
self-orthogonal additive codes, builds CSS codes from nested classical
pairs (symmetric and asymmetric), applies Steane enlargement, quantum
Construction X, the subcode/lengthen/puncture propagation rules, and the
entanglement-assisted ebit count rank(H H^dagger).

Every distance that reaches a CodeParams carries its enumeration status;
bound-only values are never silently upgraded.

Purity is decided on the stabilizer side, by `_purity` alone: a code is
pure when no nonzero stabilizer word is lighter than d.  A stabilizer C
lies in its dual D, so d(D) = min(d(C), d(D minus C)) and the code is pure
iff d(C) >= d; for CSS, min(d(C1), d(C2)) = min(d(C1^perp), d(C2^perp), d).
An asymmetric code is pure when {d_z, d_x} = {d(C1), d(C2)}; as
C1^perp < C2 and C2^perp < C1, that holds iff
d(C1^perp) >= wt(C2 minus C1^perp) and d(C2^perp) >= wt(C1 minus C2^perp).
Each construction passes (distance, stabilizer-side code) pairs, and a
zero code sets no condition.  Under a partial budget an exact
stabilizer-side value below d is impure, an exact d with
no stabilizer-side value (exact or floor) below it is pure, and anything
else is unknown.  A stabilizer-side walk only has to tell whether a word
lighter than d exists, so it stops as soon as its floor reaches d (the
printed d, or for `aqc` the coset distance it is compared with): that
floor rules out every lighter word, and the verdict is the one the full
walk gives, at every budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .code import (
    DEFAULT_BUDGET,
    EXACT,
    LOWER_BOUND,
    DistanceResult,
    LinearCode,
    SymplecticCode,
    _stack,
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
)
from .errors import (
    BadRule,
    EnlargementTooSmall,
    NotDualContaining,
    NotEnlargement,
    NotNested,
    StabforgeError,
)
from .gf import _prime_power, field_of_order
from .pauli import not_self_orthogonal, pauli_format, pauli_from_vector

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
        for name in ("d", "dz", "dx"):
            dist = getattr(self, name)
            if dist is not None and dist.value < 1:
                raise StabforgeError(f"distance {name}={dist.value} must be at least 1")
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
    """A certified stabilizer code: the symplectic self-orthogonal code and
    the parameters certified for it.  The symplectic dual is computed when
    it is read; `generator_set(stab.code).phases` gives the generator
    phases of the Hermitian lift."""

    code: SymplecticCode
    params: CodeParams

    @property
    def dual(self) -> SymplecticCode:
        return dual(self.code, "symplectic")

    def __iter__(self):
        # `stab, params = css(...)` still unpacks, for callers written when
        # css returned that pair (bench/baseline.py)
        return iter((self, self.params))


def _purity(wfn: str, budget: int, *pairs: tuple[DistanceResult, LinearCode]) -> str:
    """Purity verdict from (distance d, stabilizer-side code S) pairs: pure
    iff no S has a nonzero word lighter than its d.

    Each distinct nonzero (S, d) is walked once, in argument order, by
    `min_weight` with target d, so the walk stops once its floor reaches d;
    a zero S sets no condition, and d = 1 needs no walk, as no nonzero word
    is lighter than 1.  The verdict is sound under any budget,
    since neither value exceeds the true one, and a floor at or above d
    rules out every lighter word as the exact minimum would, so it is the
    verdict the full walk gives."""
    walks, mins = {}, []
    for d, S in pairs:
        if S.k_dim:
            if (S, d.value) not in walks:
                # no nonzero word is lighter than 1, so d = 1 needs no walk
                walks[S, d.value] = (DistanceResult(1, LOWER_BOUND) if d.value <= 1
                                     else min_weight(S, wfn, budget, target=d.value))
            mins.append((d, walks[S, d.value]))
    if any(s.is_exact and s.value < d.value for d, s in mins):
        return IMPURE
    if all(d.is_exact and s.value >= d.value for d, s in mins):
        return PURE
    return UNKNOWN


def _certify(C: SymplecticCode, budget: int, tag: str) -> StabilizerCode:
    """`certify_stabilizer` with provenance `tag`, `|k0-selfdual` added when k = 0."""
    D = dual(C, "symplectic")
    if not is_subcode(C, D):
        raise not_self_orthogonal(C.field, C.gen.rows)
    n = C.half
    k = n - C.k_dim
    if k > 0:
        d = min_weight_diff(D, C, "quantum", budget)
        pure = _purity("quantum", budget, (d, C))
    else:
        d = min_weight(C, "quantum", budget)
        pure = PURE
        tag += "|k0-selfdual"
    params = CodeParams(q=C.field.q, n=n, k=k, d=d, pure=pure, provenance=tag)
    return StabilizerCode(code=C, params=params)


def certify_stabilizer(C: SymplecticCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """Certify a symplectic self-orthogonal code as an [[n, k, d]]_q code.

    k = n - dim C and d is the minimum quantum weight of the symplectic
    dual D minus the code itself (of the dual alone when k = 0).  Purity
    pairs d with C, of dimension n - k, and not with D, of dimension n + k.
    C is self-orthogonal iff it lies in D, so D, built first, decides that
    as well; `pauli.not_self_orthogonal` then names the first failing pair.
    """
    return _certify(C, budget, f"certify_stabilizer(C:{code_digest(C)})")


def certify_additive(C: LinearCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """Certify a trace-alternating self-orthogonal additive code over
    GF(q^2) by pulling it back through Phi^-1."""
    A = as_additive(C)
    # Phi carries the trace-alternating pairing to the symplectic one, so
    # the symplectic check on the preimage is the additive check
    return _certify(phi_inv_code(A), budget, f"certify_additive(C:{code_digest(A)})")


def _check_linear_pair(C1: LinearCode, C2: LinearCode):
    # a field or length mismatch fails in `is_subcode`, reached before any walk
    if C1.is_additive or C2.is_additive:
        raise StabforgeError("CSS-type constructions take linear ingredient codes")


def _css_pair(C1: LinearCode, C2: LinearCode, ip: str) -> tuple[LinearCode, LinearCode]:
    """(C1^perp, C2^perp) under `ip`, for linear C1 and C2 whose C1^perp lies
    in C2: the one check of what both CSS constructions need."""
    _check_linear_pair(C1, C2)
    D1 = dual(C1, ip)
    if not is_subcode(D1, C2):
        raise NotNested(f"C1^perp ({ip}) is not contained in C2")
    return D1, dual(C2, ip)


def _merge_status(*results: DistanceResult) -> str:
    return EXACT if all(r.status == EXACT for r in results) else LOWER_BOUND


def _css_walks(C1, C2, D1, D2, budget: int):
    """(wt(C2 minus D1), wt(C1 minus D2)) for D_i = C_i^perp; when C1 == C2
    the one coset is walked once."""
    w21 = min_weight_diff(C2, D1, "hamming", budget)
    w12 = w21 if C1 == C2 else min_weight_diff(C1, D2, "hamming", budget)
    return w21, w12


def css(C1: LinearCode, C2: LinearCode, budget: int = DEFAULT_BUDGET) -> StabilizerCode:
    """CSS construction from C1^perp_E contained in C2.

    The stabilizer is the block code (C1^perp | 0) + (0 | C2^perp), which the
    nesting makes symplectic self-orthogonal.  Stacked from the two rref
    bases, it is in rref already, with C1^perp's pivots and then n plus
    C2^perp's; it is built with those pivots recorded, so it is not reduced
    again.  For k > 0 its parameters
    [[n, k1 + k2 - n, min(wt(C2 minus C1^perp), wt(C1 minus C2^perp))]]
    come from the two classical coset distances, walked once when C1 == C2.
    Purity pairs d with C1^perp and with C2^perp.  For k = 0 the block is
    certified directly.
    """
    D1, D2 = _css_pair(C1, C2, "euclidean")
    n, f = C1.n, C1.field
    block = SymplecticCode(f, 2 * n, _stack(D1.basis, D2.basis, n))
    k = C1.k_dim + C2.k_dim - n
    tag = f"css(C1:{code_digest(C1)},C2:{code_digest(C2)})"
    if k == 0:
        return _certify(block, budget, tag)
    w21, w12 = _css_walks(C1, C2, D1, D2, budget)
    # d is the lighter coset's result, the exact one on a tie: no walk's value
    # exceeds its coset's distance, so the other coset is no lighter than d
    w = min(w21, w12, key=lambda r: (r.value, not r.is_exact))
    if w.witness is None:
        sym_wit = None
    else:
        sym_wit = tuple(w.witness) + (0,) * n if w is w21 else (0,) * n + tuple(w.witness)
    visited = w21.visited if w12 is w21 else w21.visited + w12.visited
    d = replace(w, witness=sym_wit, visited=visited)
    pure = _purity("hamming", budget, (d, D1), (d, D2))
    params = CodeParams(q=f.q, n=n, k=k, d=d, pure=pure, provenance=tag)
    return StabilizerCode(code=block, params=params)


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

    e = k - dim hull_H(C) = dim(C + C^perp_H) - dim C^perp_H; the output
    [[n+e, n-2k+e]]_q distance is a certified lower bound
    min(d(C^perp_H), d(C + C^perp_H) + 1) and stays bound-only since the
    lengthened stabilizer matrix itself is not synthesized here.
    """
    if C.is_additive:
        raise StabforgeError("Construction X takes a linear code over GF(q^2)")
    Dh = dual(C, "hermitian")
    S = sum_code(C, Dh)
    e = S.k_dim - Dh.k_dim
    tag = f"construction_x(C:{code_digest(C)})"
    if e == 0:
        stab = certify_additive(C, budget)
        return replace(stab.params, provenance=tag + "|e0-stabilizer")
    # a zero C^perp_H has no word, so only C + C^perp_H bounds d
    dD = min_weight(Dh, budget=budget) if Dh.k_dim else DistanceResult(C.n + 1, EXACT)
    dS = min_weight(S, budget=budget)
    d = DistanceResult(min(dD.value, dS.value + 1), LOWER_BOUND, None, dD.visited + dS.visited)
    return CodeParams(
        q=quad_ext(C.field).sub.q,
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
    if rule in ("subcode", "lengthen") and p.k < 1:  # Calderbank, Rains, Shor, Sloane 1998, Thm 6
        raise BadRule(f"{rule} construction needs k >= 1")
    if rule == "subcode":
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

    d_z is the larger of the two coset distances, d_x the smaller; when
    C1 == C2 the single coset distance is walked once.  Purity pairs
    wt(C2 minus C1^perp) with C1^perp and wt(C1 minus C2^perp) with C2^perp.
    """
    if ip not in AQC_INNER_PRODUCTS:
        raise StabforgeError(f"inner product must be one of {AQC_INNER_PRODUCTS}")
    D1, D2 = _css_pair(C1, C2, ip)
    w21, w12 = _css_walks(C1, C2, D1, D2, budget)
    dz, dx = (w21, w12) if w21.value >= w12.value else (w12, w21)
    pure = _purity("hamming", budget, (w21, D1), (w12, D2))
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
    """Entanglement-assisted [[n, 2k - n + c, d; c]]_q from an [n, k]_{q^2}
    code C.  c = rank(H H^dagger), H the Euclidean parity check, is
    n - k - dim hull_H(C), as hull_H(C^perp) is the conjugate of hull_H(C).
    The hull's errors act trivially, so d = wt(C minus hull) if 0 < dim hull < k."""
    if C.is_additive:
        raise StabforgeError("the EA construction takes a linear code over GF(q^2)")
    Hu = hull(C, "hermitian")
    c = C.n - C.k_dim - Hu.k_dim
    if 0 < Hu.k_dim < C.k_dim:
        d = min_weight_diff(C, Hu, budget=budget)
    else:
        d = min_weight(C, budget=budget) if C.k_dim else DistanceResult(C.n + 1, EXACT, None, 0)
    return CodeParams(
        q=quad_ext(C.field).sub.q,
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
