"""Reference checker: compares each item's output with its expected answer.

Runs in the `run.py` process, outside the workload process and its timing.
Certificates are parsed from the text or `--kv` form; printed witnesses are
checked for weight and membership with `bench.gf` linear algebra.
"""

from __future__ import annotations

import re

from gf import dot, gf, in_span, rank, symplectic

CERT_RE = re.compile(
    r"^\[\[(\d+),(\d+),(>=)?(\d+)(?:,(>=)?(\d+))?(?:;(\d+))?\]\]_(\d+) pure=(\w+) d\.status=(\w+)$"
)
LETTERS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


class Mismatch(Exception):
    pass


def parse_cert(out: str) -> dict:
    """{q, n, k, dists: [(name, value, exact)], pure, ebits, witness}."""
    lines = out.strip().splitlines()
    m = CERT_RE.match(lines[0]) if lines else None
    if m:
        n, k, lb1, v1, lb2, v2, eb, q, pure, _ = m.groups()
        dists = [("d", int(v1), lb1 is None)] if v2 is None else [
            ("dz", int(v1), lb1 is None), ("dx", int(v2), lb2 is None)]
        wit = next((ln[len("witness: "):] for ln in lines if ln.startswith("witness: ")), None)
        return {"q": int(q), "n": int(n), "k": int(k), "dists": dists, "pure": pure,
                "ebits": int(eb) if eb else None, "witness": wit}
    kv = dict(ln.split("=", 1) for ln in lines if "=" in ln)
    if "n" not in kv:
        raise Mismatch(f"no certificate in output {out[:80]!r}")
    names = ("dz", "dx") if "dz" in kv else ("d",)
    return {
        "q": int(kv["q"]), "n": int(kv["n"]), "k": int(kv["k"]),
        "dists": [(x, int(kv[x]), kv[x + ".status"] == "exact") for x in names],
        "pure": kv["pure"], "ebits": int(kv["ebits"]) if "ebits" in kv else None,
        "witness": kv.get("witness"),
    }


def parse_pauli(s: str, q: int) -> list[int]:
    """Pauli string -> symplectic vector (a|b); phases are ignored."""
    if q == 2:
        s = s.lstrip("+-1i")
        return [LETTERS[c][0] for c in s] + [LETTERS[c][1] for c in s]
    parts = dict(p.split(":", 1) for p in s.split(";"))
    return [int(x) for x in parts["X"].split(",")] + [int(x) for x in parts["Z"].split(",")]


def qweight(v) -> int:
    n = len(v) // 2
    return sum(1 for i in range(n) if v[i] or v[n + i])


def check_stab_witness(w: list[int], d: int, spec: dict):
    F = gf(spec["q"])
    rows = spec["rows"]
    if qweight(w) != d:
        raise Mismatch(f"witness weight {qweight(w)} != d={d}")
    if any(symplectic(F, w, r) for r in rows):
        raise Mismatch("witness does not commute with the stabilizer")
    if in_span(F, rows, w):
        raise Mismatch("witness lies in the stabilizer")


def check_css_witness(w: list[int], d: int, spec: dict):
    F = gf(spec["q"])
    n = len(w) // 2
    a, b = w[:n], w[n:]
    if any(a) == any(b):
        raise Mismatch("css witness must be purely X or purely Z")
    v, inside, dualof = (a, spec["c2"], spec["c1"]) if any(a) else (b, spec["c1"], spec["c2"])
    if sum(1 for x in v if x) != d:
        raise Mismatch("css witness weight differs from d")
    if not in_span(F, inside, v):
        raise Mismatch("css witness is outside its code")
    if not any(dot(F, v, r) for r in dualof):
        raise Mismatch("css witness lies in the excluded dual")


def check_cert(res: dict, e: dict) -> list[tuple[bool, int, int]]:
    c = parse_cert(res["stdout"])
    for key in ("q", "n", "k"):
        if c[key] != e[key]:
            raise Mismatch(f"{key}={c[key]} but reference {e[key]}")
    refs = {"d": e.get("d"), "dz": e.get("dz"), "dx": e.get("dx")}
    fields = []
    for name, value, exact in c["dists"]:
        ref = refs[name]
        if ref is None:
            raise Mismatch(f"unexpected distance field {name}")
        if e.get("bound_only"):
            if exact or value != ref:
                raise Mismatch(f"{name} should be the bound >={ref}, got {value} exact={exact}")
        elif exact and value != ref:
            raise Mismatch(f"exact {name}={value} but reference {ref}")
        elif not exact and value > ref:
            raise Mismatch(f"lower bound {name}>={value} overclaims reference {ref}")
        fields.append((exact, value, ref))
    if e.get("pure") is not None and all(f[0] for f in fields):
        want = "true" if e["pure"] else "false"
        if c["pure"] != want:
            raise Mismatch(f"pure={c['pure']} but reference {want}")
    if e.get("ebits") is not None and c["ebits"] != e["ebits"]:
        raise Mismatch(f"ebits={c['ebits']} but reference {e['ebits']}")
    spec = e.get("witness")
    if c["witness"] is not None and spec is not None:
        w = parse_pauli(c["witness"], spec["q"])
        (check_stab_witness if spec["type"] == "stab" else check_css_witness)(w, fields[0][1], spec)
    return fields if e.get("scored") else []


def check_kl(res: dict, e: dict):
    line = res["stdout"].strip()
    kv = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
    if e["exit"] == 0:
        if kv.get("kl") != "pass" or int(kv["checked"]) != e["checked"] or int(kv["dim"]) != e["dim"]:
            raise Mismatch(f"kl pass line {line!r} disagrees with checked={e['checked']} dim={e['dim']}")
        return
    if kv.get("kl") != "fail":
        raise Mismatch(f"kl should fail: {line!r}")
    check_stab_witness(parse_pauli(kv["witness"], 2), e["d"], {"q": 2, "rows": e["rows"]})


def _parse_code(text: str):
    head, rows, in_rows = {}, [], False
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if in_rows:
            rows.append([int(x) for x in ln.split()])
        elif ln == "rows":
            in_rows = True
        else:
            key, val = ln.split(None, 1)
            head[key] = val
    return head, rows


def check_dual(res: dict, e: dict):
    head, rows = _parse_code(res["stdout"])
    q = e["q"]
    F = gf(q)
    if head.get("field") != f"GF({q})" or head.get("kind") != e["kind"]:
        raise Mismatch(f"dual header {head} is not GF({q}) {e['kind']}")
    if len(rows) != e["dim"]:
        raise Mismatch(f"dual has {len(rows)} rows, reference dimension {e['dim']}")
    ip, given = e["ip"], e["rows"]
    if ip in ("trace_hermitian", "trace_alternating"):
        gamma = F.p
        given = given + [[int(F.mul[gamma, x]) for x in r] for r in given]
    for u in rows:
        for c in given:
            if ip in ("euclidean", "trace_euclidean"):
                bad = dot(F, u, c)
            elif ip == "hermitian":
                bad = dot(F, u, F.conj(c))
            elif ip == "trace_hermitian":
                h = dot(F, u, F.conj(c))
                bad = int(F.add[h, F.conj(h)])
            elif ip == "trace_alternating":
                bad = int(F.add[dot(F, u, F.conj(c)), F.neg[dot(F, F.conj(u), c)]])
            else:
                bad = symplectic(F, u, c)
            if bad:
                raise Mismatch(f"dual row is not {ip}-orthogonal to the code")
    if e["kind"] == "additive":
        p = F.p
        pre = [[x % p for x in r] + [x // p for x in r] for r in rows]
        r = rank(gf(p), pre)
    else:
        r = rank(F, rows)
    if r != e["dim"]:
        raise Mismatch(f"dual rows have rank {r}, reference {e['dim']}")


def check_info(res: dict, e: dict):
    kv = dict(ln.split("=", 1) for ln in res["stdout"].splitlines() if "=" in ln)
    got = (kv.get("field"), kv.get("kind"), kv.get("length"), kv.get("dim"))
    want = (f"GF({e['q']})", e["kind"], str(e["length"]), str(e["dim"]))
    if got != want:
        raise Mismatch(f"info {got} != reference {want}")


def check_bound(res: dict, e: dict):
    if e["holds"] is None:
        return
    want = "holds=true" if e["holds"] else "holds=false"
    if want not in res["stdout"]:
        raise Mismatch(f"bound output lacks {want}")


def check_error(res: dict, e: dict):
    if e["locator"] and e["locator"] not in res["stderr"]:
        raise Mismatch(f"error message does not name {e['locator']}: {res['stderr'].strip()[:120]!r}")


CHECKS = {"cert": check_cert, "kl": check_kl, "dual": check_dual, "info": check_info,
          "bound": check_bound, "error": check_error}


def check_item(item: dict, res: dict) -> tuple[str | None, list]:
    """(failure reason or None, scored distance fields (exact, value, ref))."""
    e = item["expect"]
    if res.get("raised"):
        return f"raised {res['raised']}", []
    want = e.get("exit", 0)
    if res["exit"] != want:
        return f"exit {res['exit']} != {want}: {res['stderr'].strip()[:120]!r}", []
    try:
        fields = CHECKS[e["check"]](res, e)
    except (Mismatch, KeyError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}", []
    return None, fields or []
