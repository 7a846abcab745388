"""The workload process: one closed-loop client calling `stabforge.cli.run`.

Started fresh for every run by `run.py`.  It imports `stabforge.cli`, builds
every field the corpus uses (numpy tables included), prints a READY line,
and then runs the corpus round by round, one item after the other, until,
at the end of a round, `--seconds` have passed and `--min-items` items are
done, or until `--rounds` rounds are done.
Results (exit code, stdout, stderr, wall time per item) go to `--out` as JSON,
with the machine-speed calibration samples taken during the loop (`calib.py`).

    python3 bench/worker.py --corpus C.json --out R.json --seconds 20 [--trace SPANS]
    python3 bench/worker.py --corpus C.json --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import calib


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-items", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no cap)")
    ap.add_argument("--trace", help="write spans here and trace the run")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.corpus, encoding="utf-8") as fh:
        corpus = json.load(fh)

    t0 = time.perf_counter()
    import stabforge.cli  # noqa: F401  (the import is what is being timed)
    from stabforge.gf import field_of_order

    t1 = time.perf_counter()
    for q in corpus["fields"]:
        field_of_order(q).np_tables()
    t2 = time.perf_counter()
    print(f"READY {t1 - t0:.6f} {t2 - t1:.6f}", flush=True)
    if args.setup_only:
        return 0

    sampler = calib.Sampler()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(sampler.clock)
        tracer.install()
    cli = sys.modules["stabforge.cli"]

    results = []
    rounds_done = 0
    with sampler:
        start = time.perf_counter()
        for rnd in corpus["rounds"]:
            for item in rnd:
                out, err = io.StringIO(), io.StringIO()
                if tracer is not None:
                    tracer.item = item["id"]
                raised = None
                code = None
                sampler.sample()
                t_item = time.perf_counter()
                c_item = sampler.clock()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.run(item["argv"])
                    except Exception as exc:  # an item that raises is a failed item, not a crash
                        raised = f"{type(exc).__name__}: {exc}"
                ns = sampler.clock() - c_item
                t_end = time.perf_counter()
                sampler.sample()
                results.append({"id": item["id"], "exit": code, "raised": raised, "ns": ns,
                                "t": t_item, "t_end": t_end,
                                "stdout": out.getvalue(), "stderr": err.getvalue()})
            rounds_done += 1
            if args.rounds and rounds_done >= args.rounds:
                break
            if not args.rounds and time.perf_counter() - start >= args.seconds \
                    and len(results) >= args.min_items:
                break
        elapsed = time.perf_counter() - start

    report = {
        "results": results,
        "rounds": rounds_done,
        "elapsed_s": elapsed,
        "calibration": sampler.samples,
        "import_s": t1 - t0,
        "fields_s": t2 - t1,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exhausted": rounds_done == len(corpus["rounds"]),
    }
    if tracer is not None:
        tracer.dump(args.trace)
        report["trace"] = {"enum_calls": tracer.enum_calls, "enum_visits": tracer.enum_visits}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
