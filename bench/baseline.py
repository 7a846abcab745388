"""Regenerate the ROADMAP baseline table from the layer micro-benchmarks.

    python3 bench/baseline.py            # prints a markdown table (about a minute)

Every row is measured in this process, except the CLI row, which times a
fresh `python -m stabforge certify` process.  Times are as measured; the
last row gives the machine's speed at the time (see calib.py).  `css(RM(3,5), RM(3,5))` runs
at the budget CSS_BUDGET_LOG2 stated in its row, with every enumeration
counted by the benchmark's tracer.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import micro  # noqa: E402
from run import environment  # noqa: E402

CSS_BUDGET_LOG2 = 22
EX512 = """field GF(2)
length 5
kind symplectic
rows
1 1 0 0 0 0 0 1 0 1
0 1 1 0 0 1 0 0 1 0
0 0 1 1 0 0 1 0 0 1
0 0 0 1 1 1 0 1 0 0
"""


def css_rm35() -> tuple[int, int, float, str]:
    """(enumerations, visits, seconds, certificate) of css(RM(3,5), RM(3,5))."""
    import codes
    import stabforge.cli  # noqa: F401  (the tracer wraps every stabforge module)
    import tracing
    from stabforge.code import linear_code
    from stabforge.gf import field_make
    from stabforge.stabilizer import format_params

    tracer = tracing.Tracer()
    tracer.install()
    from stabforge import stabilizer

    C = linear_code(field_make(2, 1), codes.reed_muller(3, 5))
    t = time.perf_counter()
    _, params = stabilizer.css(C, C, 1 << CSS_BUDGET_LOG2)
    dt = time.perf_counter() - t
    return tracer.enum_calls, tracer.enum_visits, dt, format_params(params)


def cli_certify_s(reps: int = 5) -> float:
    work = os.path.join(ROOT, ".bench_work", "baseline")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "ex512.sym")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(EX512)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "stabforge", "certify", "--in", path], env=env,
                       check=True, capture_output=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    rows = []
    r40, _, t40 = micro.enumeration_rate(2, 40, 20)
    r44, _, t44 = micro.enumeration_rate(2, 44, 22)
    rows.append(("GF(2) enumeration (`_search_gf2`)",
                 f"{r40 / 1e6:.1f} / {r44 / 1e6:.1f} M visits/s ([40,20]: {t40:.2f} s, [44,22]: {t44:.2f} s)"))
    r4, _, t4 = micro.enumeration_rate(4, 20, 10)
    rows.append(("GF(4) enumeration (`_search_gfq`)", f"{r4 / 1e6:.2f} M visits/s ([20,10]: {t4:.2f} s)"))
    _, v16, t16 = micro.enumeration_rate(16, 12, 5)
    rows.append(("GF(16) [12,5] exhaustive", f"{t16:.2f} s for {v16 / 1e6:.2f} M visits"))
    calls, visits, dt, cert = css_rm35()
    rows.append((f"`css(RM(3,5), RM(3,5))`, budget 2^{CSS_BUDGET_LOG2}",
                 f"{dt:.1f} s, {visits / 1e6:.1f} M visits in {calls} enumerations, prints {cert}"))
    add9, mul9 = micro.field_ops(9)
    rows.append(("GF(9) `add` vs `mul`", f"{add9 / 1e3:.2f} µs/op vs {mul9 / 1e3:.2f} µs/op"))
    rref = [micro.rref_kernel_ms(q)[0] for q in micro.RREF_QS]
    rows.append(("`rref` 32x64: GF(2) / GF(4) / GF(9) / GF(256)", " / ".join(f"{x:.1f}" for x in rref) + " ms"))
    rows.append(("`eigenspace_dims`, n=10, 6 generators", f"{micro.eigenspace_ms(10, 6) / 1e3:.2f} s"))
    rows.append(("CLI `certify` ex512, end to end", f"{cli_certify_s():.2f} s"))
    rows.append(("machine speed: `calib.py` kernel", f"{calib.measure(50) * 1e3:.2f} ms (reference {calib.REF_S * 1e3:g} ms)"))

    env = environment()
    print(f"## Baseline ({env['nproc']} vCPU {env['cpu']}, Python {env['python']}, numpy {env['numpy']})\n")
    print("| layer / path | number |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
