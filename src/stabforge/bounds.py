"""Parameter bounds as decidable predicates with exact integer slack.

Each check returns a BoundReport rather than a bare boolean so callers see
the two sides of the inequality and why a check may be inapplicable.
Reports refuse to certify from bound-only distances: an uncertain d never
turns into a definite verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadInput, HypothesisViolated
from .gf import _is_prime_power
from .stabilizer import EXACT, PURE, CodeParams

NOT_CERTIFIABLE = "not certifiable from bound-only distance"


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check.

    `holds` is None when the check is inapplicable (see notes).  `lhs`,
    `rhs` are the exact integers compared under `relation`; `slack` is the
    margin by which the bound holds (negative when violated).
    """

    name: str
    holds: bool | None
    lhs: int = 0
    rhs: int = 0
    relation: str = "<="
    slack: int = 0
    qmds: bool | None = None
    perfect: bool | None = None
    exists: bool | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _fmt_bool(b: bool | None) -> str:
    if b is None:
        return "not-certifiable"
    return "true" if b else "false"


def report_line(r: BoundReport) -> str:
    """Single key-value line, e.g. 'bound=hamming holds=true lhs=16 rhs=16'."""
    parts = [f"bound={r.name}", f"holds={_fmt_bool(r.holds)}"]
    if r.holds is not None:
        parts += [f"lhs={r.lhs}", f"rhs={r.rhs}", f"slack={r.slack}"]
        for flag in ("qmds", "perfect", "exists"):
            v = getattr(r, flag)
            if v is not None:
                parts.append(f"{flag}={_fmt_bool(v)}")
    for note in r.notes:
        parts.append(f'note="{note}"')
    return " ".join(parts)


def report_text(r: BoundReport) -> str:
    if r.holds is None:
        return f"{r.name}: inapplicable ({'; '.join(r.notes) or 'see notes'})"
    verdict = "holds" if r.holds else "violated"
    line = f"{r.name}: {r.lhs} {r.relation} {r.rhs} {verdict} (slack {r.slack})"
    flags = [f for f in ("qmds", "perfect", "exists") if getattr(r, f)]
    if flags:
        line += " [" + ", ".join(flags) + "]"
    if r.notes:
        line += "\n  " + "\n  ".join(r.notes)
    return line


def _symmetric_exact(p: CodeParams) -> tuple[bool, tuple[str, ...]]:
    if p.is_asymmetric:
        return False, ("asymmetric parameters; use the asymmetric Singleton check",)
    if p.k <= 0:
        return False, ("bound requires k > 0",)
    if p.d.status != EXACT:
        return False, (NOT_CERTIFIABLE,)
    return True, ()


def singleton(p: CodeParams) -> BoundReport:
    """k <= n - 2d + 2; equality earns the QMDS flag."""
    ok, notes = _symmetric_exact(p)
    if not ok:
        return BoundReport("singleton", None, notes=notes)
    lhs, rhs = p.k, p.n - 2 * p.d.value + 2
    holds = lhs <= rhs
    return BoundReport(
        "singleton", holds, lhs, rhs, "<=", rhs - lhs, qmds=holds and lhs == rhs
    )


def hamming(p: CodeParams) -> BoundReport:
    """sum_j (q^2-1)^j C(n,j) <= q^(n-k) for pure codes; equality = perfect."""
    ok, notes = _symmetric_exact(p)
    if ok and p.pure != PURE:
        ok, notes = False, ("bound applies to pure codes only",)
    if not ok:
        return BoundReport("hamming", None, notes=notes)
    ell = (p.d.value - 1) // 2
    lhs = sum((p.q**2 - 1) ** j * math.comb(p.n, j) for j in range(ell + 1))
    rhs = p.q ** (p.n - p.k)
    holds = lhs <= rhs
    return BoundReport(
        "hamming", holds, lhs, rhs, "<=", rhs - lhs, perfect=holds and lhs == rhs
    )


def gv_exists(q: int, n: int, k: int, d: int) -> BoundReport:
    """Existence of a pure [[n,k,d]]_q code when the strict inequality
    (q^(n-k+2)-1)/(q^2-1) > sum_{j=1}^{d-1} (q^2-1)^(j-1) C(n,j) holds."""
    if not _is_prime_power(q):
        raise HypothesisViolated(f"q = {q} is not a prime power")
    if not n > k:
        raise HypothesisViolated(f"requires n > k, got n = {n}, k = {k}")
    if k < 2:
        raise HypothesisViolated(f"requires k >= 2, got k = {k}")
    if d < 2:
        raise HypothesisViolated(f"requires d >= 2, got d = {d}")
    if (n - k) % 2:
        raise HypothesisViolated(f"requires n = k (mod 2), got n = {n}, k = {k}")
    lhs = (q ** (n - k + 2) - 1) // (q**2 - 1)
    rhs = sum((q**2 - 1) ** (j - 1) * math.comb(n, j) for j in range(1, d))
    holds = lhs > rhs
    return BoundReport("gv", holds, lhs, rhs, ">", lhs - rhs, exists=holds)


def aqc_singleton(p: CodeParams) -> BoundReport:
    """k <= n - (d_z + d_x) + 2 for asymmetric parameters."""
    notes = ("evaluated with d_z + d_x",)
    if not p.is_asymmetric:
        return BoundReport(
            "aqc_singleton", None, notes=("symmetric parameters; use singleton",)
        )
    if p.k <= 0:
        return BoundReport("aqc_singleton", None, notes=("bound requires k > 0",))
    if p.dz.status != EXACT or p.dx.status != EXACT:
        return BoundReport("aqc_singleton", None, notes=(NOT_CERTIFIABLE,))
    lhs = p.k
    rhs = p.n - (p.dz.value + p.dx.value) + 2
    return BoundReport("aqc_singleton", lhs <= rhs, lhs, rhs, "<=", rhs - lhs, notes=notes)


def _is_power_of_two(q: int) -> bool:
    return q >= 2 and (q & (q - 1)) == 0


def aqmds_feasible(q: int, n: int, j: int, k: int) -> tuple[bool, int | None]:
    """Whether a pure CSS asymmetric MDS code [[n, j, d_z, d_x]]_q with
    {d_z, d_x} = {n-k-j+1, k+1} exists, per the seven-case classification
    (assuming the MDS conjecture).  Returns (feasible, first matching case).
    """
    if not _is_prime_power(q):
        raise BadInput(f"q = {q} is not a prime power")
    if n < 2:
        raise BadInput(f"requires n >= 2, got {n}")
    if j < 0:
        raise BadInput(f"requires j >= 0, got {j}")
    if not 1 <= k <= n - 1:
        raise BadInput(f"requires 1 <= k <= n-1, got k = {k}")
    cases = [
        k in (1, n - 1) and j in (0, n - k),
        q == 2 and n % 2 == 0 and k == 1 and j == n - 2,
        q >= 3 and n >= 2 and k == 1 and j == n - 2,
        q >= 3 and 2 <= n <= q and k <= n - 1 and 0 <= j <= n - k,
        q >= 3 and n == q + 1 and k <= n - 1 and (j == 0 or 2 <= j <= n - k),
        _is_power_of_two(q) and n == q + 1 and j == 1 and k in (2, q - 2),
        _is_power_of_two(q)
        and q >= 4
        and n == q + 2
        and (
            (k == 1 and j in (2, q - 2))
            or (k == 3 and j in (0, q - 4, q - 1))
            or (k == q - 1 and j in (0, 3))
        ),
    ]
    for idx, hit in enumerate(cases, start=1):
        if hit:
            return True, idx
    return False, None
