"""Layer micro-benchmarks: field ops, rref/kernel, enumeration rates, dense oracle.

    PYTHONPATH=src python3 bench/micro.py          # prints one JSON object

Inputs come from a fixed seed.  Each timing is the median of a few
repetitions, scaled to the reference speed of `calib.py`; every measurement
runs in this one process, so run it fresh.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

import calib

FIELD_QS = (2, 4, 9, 16, 256)
TABLE_QS = (81, 243, 256)
RREF_QS = (2, 4, 9, 256)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def field_ops(q: int, ops: int = 20000) -> tuple[float, float]:
    from stabforge.gf import field_of_order

    f = field_of_order(q)
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(ops)]
    add, mul = f.add, f.mul

    def run_add():
        for a, b in pairs:
            add(a, b)

    def run_mul():
        for a, b in pairs:
            mul(a, b)

    return _median_time(run_add, 5) / ops * 1e9, _median_time(run_mul, 5) / ops * 1e9


def np_tables_ms(q: int) -> float:
    from stabforge.gf import Field, field_of_order

    base = field_of_order(q)
    return _median_time(lambda: Field(base.p, base.m).np_tables(), 3) * 1e3


def random_matrix(q: int, rows: int, cols: int, seed: int):
    from stabforge import fmatrix
    from stabforge.gf import field_of_order

    rng = random.Random(seed)
    return fmatrix.matrix(field_of_order(q), [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], cols)


def rref_kernel_ms(q: int) -> tuple[float, float]:
    from stabforge import fmatrix

    M = random_matrix(q, 32, 64, q)
    return (_median_time(lambda: fmatrix.rref(M), 3) * 1e3,
            _median_time(lambda: fmatrix.kernel(M), 3) * 1e3)


def enumeration_rate(q: int, n: int, k: int, budget: int = 1 << 26) -> tuple[float, int, float]:
    """(visits/s, visits, seconds) of min_weight on a random [n, k]_q code."""
    from stabforge.code import LinearCode, min_weight
    from stabforge import fmatrix

    M = random_matrix(q, k, n, 1000 + q)
    R, rank, _ = fmatrix.rref(M)
    if rank != k:
        raise RuntimeError(f"random [{n},{k}]_{q} generator has rank {rank}")
    C = LinearCode(M.field, n, R)
    t = time.perf_counter()
    res = min_weight(C, budget=budget)
    dt = time.perf_counter() - t
    return res.visited / dt, res.visited, dt


def eigenspace_ms(n: int, g: int) -> float:
    from stabforge import fmatrix
    from stabforge.code import symplectic_pair
    from stabforge.gf import field_make
    from stabforge.statevec import GeneratorSet, eigenspace_dims

    f2 = field_make(2, 1)
    rng = random.Random(n * 100 + g)
    rows: list[tuple[int, ...]] = []
    while len(rows) < g:
        cand = tuple(rng.randrange(2) for _ in range(2 * n))
        if any(cand) and not any(symplectic_pair(f2, cand, r) for r in rows) \
                and fmatrix.rank(fmatrix.matrix(f2, rows + [cand], 2 * n)) == len(rows) + 1:
            rows.append(cand)
    phases = tuple(sum(r[i] & r[n + i] for i in range(n)) % 2 for r in rows)
    G = GeneratorSet(n=n, rows=tuple(rows), phases=phases)
    return _median_time(lambda: eigenspace_dims(G), 3 if n <= 8 else 1) * 1e3


def all_metrics() -> dict:
    """Every micro metric, scaled to the reference speed of `calib.py`."""
    out = {}

    def scaled(fn, *args):
        before = calib.measure(20)
        values = fn(*args)
        f = calib.REF_S / statistics.mean((before, calib.measure(20)))
        return [v * f for v in values] if isinstance(values, tuple) else values * f

    for q in FIELD_QS:
        out[f"gf.add_ns.q{q}"], out[f"gf.mul_ns.q{q}"] = scaled(field_ops, q)
    for q in TABLE_QS:
        out[f"gf.np_tables_ms.q{q}"] = scaled(np_tables_ms, q)
    for q in RREF_QS:
        out[f"fmatrix.rref_ms.q{q}"], out[f"fmatrix.kernel_ms.q{q}"] = scaled(rref_kernel_ms, q)
    for name, (q, n, k) in (("gf2_k20", (2, 40, 20)), ("gf4_k10", (4, 20, 10)), ("gf16_k5", (16, 12, 5))):
        seconds = scaled(lambda: enumeration_rate(q, n, k)[2])
        out[f"code.micro.{name}.visits_per_s"] = (q**k - 1) / seconds
    out["statevec.eigenspace_dims_ms.n8"] = scaled(eigenspace_ms, 8, 4)
    return out


def run_all(env: dict) -> dict:
    """Run the micro-benchmarks in a fresh process and return their metrics."""
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    print(json.dumps(all_metrics()))
