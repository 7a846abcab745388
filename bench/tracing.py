"""Span tracer for the traced run, and the per-layer metrics built from it.

`install()` wraps every public function of the traced `stabforge` modules
and rebinds every module attribute that refers to it, so names imported
with `from .code import min_weight` are traced too.  Spans are kept in
memory as (name, start_ns, end_ns, parent, item, extra) and written out
when the run ends.  Enumeration spans carry the returned `visited`, the
status, the span size of the enumerated code and a digest of its domain.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = ("cli", "stabilizer", "code", "fmatrix", "gf", "statevec", "bounds", "pauli")
ENUM = ("code.min_weight", "code.min_weight_diff")
CONSTRUCTIONS = ("certify_stabilizer", "css", "css_aqc", "steane_enlarge", "construction_x")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = ""
        self.enum_calls = 0
        self.enum_visits = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        sig = inspect.signature(fn) if name in ENUM else None
        kl = name == "statevec.kl_verify"

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sig is not None:
                rec[5] = enum_extra(sig.bind(*args, **kwargs), result)
                self.enum_calls += 1
                self.enum_visits += result.visited
            elif kl:
                rec[5] = {"checked": result.checked}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: sys.modules["stabforge." + m] for m in MODULES}
        everywhere = [sys.modules["stabforge"]] + list(mods.values())
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for m in everywhere:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapper)

    def dump(self, path: str):
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def enum_extra(bound, result) -> dict:
    bound.apply_defaults()
    code = next(iter(bound.arguments.values()))
    wfn = bound.arguments["wfn"]
    base = code.field.q if code.linearity == "linear" else math.isqrt(code.field.q)
    span = base ** code.k_dim
    key = hashlib.sha1(repr((code.field.q, wfn, code.linearity, code.gen.rows)).encode()).hexdigest()[:16]
    return {
        "visited": result.visited,
        "status": result.status,
        "size": span,
        "gf2": base == 2,
        "key": key,
    }


# -- aggregation -------------------------------------------------------------------


def per_layer(spans: list[list], rounds: int, speed: float = 1.0) -> dict:
    """Per-layer metrics from span records, per round; durations are
    multiplied by `speed` to bring them to the reference speed."""
    children = defaultdict(float)
    for name, s, e, parent, item, extra in spans:
        if parent >= 0:
            children[parent] += e - s
    dur = [(e - s) / 1e9 * speed for _, s, e, *_ in spans]
    self_s = [d - children[i] / 1e9 * speed for i, d in enumerate(dur)]
    per = 1.0 / max(rounds, 1)
    out: dict[str, float] = {}

    def total(names):
        return sum(dur[i] for i, sp in enumerate(spans) if sp[0] in names)

    def calls(names):
        return sum(1 for sp in spans if sp[0] in names)

    for mod in ("cli", "stabilizer", "code", "fmatrix"):
        out[f"{mod}.self_s"] = per * sum(v for sp, v in zip(spans, self_s) if sp[0].startswith(mod + "."))
    items_s = total({"cli.run"})
    # enumerations that returned (a call that raised carries no result)
    enum_idx = [i for i, sp in enumerate(spans) if sp[0] in ENUM and sp[5] is not None]
    visits = sum(spans[i][5]["visited"] for i in enum_idx)
    out["code.enum.calls"] = per * len(enum_idx)
    out["code.enum.visits"] = per * visits
    out["code.enum.s"] = per * sum(dur[i] for i in enum_idx)
    out["code.enum.lower_bound_calls"] = per * sum(
        1 for i in enum_idx if spans[i][5]["status"] == "lower_bound")
    rate = defaultdict(lambda: [0, 0.0])
    layered_visits = 0
    gf2_self = 0.0
    for i in enum_idx:
        x = spans[i][5]
        mode = "exhaustive" if x["visited"] == x["size"] - 1 else "layered"
        cls = ("gf2_" if x["gf2"] else "gfq_") + mode
        rate[cls][0] += x["visited"]
        rate[cls][1] += dur[i]
        layered_visits += x["visited"] if mode == "layered" else 0
        gf2_self += self_s[i] if x["gf2"] else 0.0
    for cls in ("gf2_exhaustive", "gf2_layered", "gfq_exhaustive", "gfq_layered"):
        v, t = rate[cls]
        out[f"code.enum.visits_per_s.{cls}"] = v / t if t else 0.0
    seen: dict[str, set] = defaultdict(set)
    repeat = 0
    for i in enum_idx:
        x = spans[i][5]
        item = spans[i][4]
        if x["key"] in seen[item]:
            repeat += x["visited"]
        seen[item].add(x["key"])
    out["code.enum.repeat_visit_frac"] = repeat / visits if visits else 0.0
    out["code.enum.layered_visit_frac"] = layered_visits / visits if visits else 0.0
    out["code.enum.gf2_self_share"] = gf2_self / items_s if items_s else 0.0
    for c in CONSTRUCTIONS:
        n_calls = n_visits = 0
        for i in enum_idx:
            p = spans[i][3]
            while p >= 0 and spans[p][0] != "stabilizer." + c:
                p = spans[p][3]
            if p >= 0:
                n_calls += 1
                n_visits += spans[i][5]["visited"]
        out[f"stabilizer.{c}.enum_calls"] = per * n_calls
        out[f"stabilizer.{c}.visits"] = per * n_visits
    out["code.load_code.s"] = per * total({"code.load_code"})
    out["code.dual.calls"] = per * calls({"code.dual"})
    out["code.dual.s"] = per * total({"code.dual"})
    out["fmatrix.rref.calls"] = per * calls({"fmatrix.rref"})
    out["fmatrix.rref.s"] = per * total({"fmatrix.rref"})
    out["fmatrix.kernel.s"] = per * total({"fmatrix.kernel"})
    out["fmatrix.in_span.calls"] = per * calls({"fmatrix.in_span"})
    out["statevec.kl_verify.s"] = per * total({"statevec.kl_verify"})
    out["statevec.code_basis.s"] = per * total({"statevec.code_basis"})
    kl_s = total({"statevec.kl_verify"})
    checked = sum(sp[5]["checked"] for sp in spans if sp[0] == "statevec.kl_verify")
    out["statevec.kl.ops_per_s"] = checked / kl_s if kl_s else 0.0
    return out


def sanity(spans: list[list], counters: dict, required: list[str]) -> list[str]:
    """Trace self-checks; returns a list of problems (empty when sane)."""
    problems = []
    names = {sp[0] for sp in spans}
    missing = [r for r in required if r not in names]
    if missing:
        problems.append(f"wrapped functions never reached: {missing}")
    enum = [sp for sp in spans if sp[0] in ENUM and sp[5] is not None]
    if len(enum) != counters["enum_calls"] or sum(sp[5]["visited"] for sp in enum) != counters["enum_visits"]:
        problems.append("enumeration counters disagree with the recorded spans")
    for sp in spans:
        if sp[3] >= 0 and spans[sp[3]][0] == sp[0]:
            problems.append(f"span {sp[0]} nests directly in itself (double wrapping)")
            break
    return problems
