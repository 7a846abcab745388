"""Certification benchmark: seeded code corpora through the stabforge CLI.

    python3 bench/run.py --workload qubit-exhaustive --seed 1 --seconds 20 --trace 0

Prepares the workload's corpus and reference answers, then starts a fresh
workload process (`worker.py`) that runs the items closed-loop through
`stabforge.cli.run`.  Every output is checked against its reference here,
outside the workload process.  With `--trace 0` the last stdout line holds
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced re-run of the same items, plus the layer micro-benchmarks.
Artifacts (corpus, results, spans, certificate digests, environment) are
written under `.bench_work/` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402

SETUP_PROBES = 8
MIN_ITEMS = 100  # so the p90 has at least ten samples beyond it
TIMEOUT_S = 150
# Rounds prepared per second of measurement: three times the rate measured
# on a 2-vCPU Intel Xeon VM, so a faster engine still finds enough distinct items.
ROUNDS_PER_S = {"qubit-exhaustive": 0.35, "qudit-small": 3.6, "budget-layered": 1.7}
# Wrapped functions each workload must reach (a trace sanity check).
REQUIRED = {
    "qubit-exhaustive": ["cli.run", "code.load_code", "code.min_weight", "code.min_weight_diff",
                         "stabilizer.certify_stabilizer", "stabilizer.css", "stabilizer.css_aqc",
                         "stabilizer.steane_enlarge", "statevec.kl_verify", "statevec.code_basis",
                         "fmatrix.rref", "fmatrix.kernel"],
    "qudit-small": ["cli.run", "code.load_code", "code.dual", "code.min_weight", "code.min_weight_diff",
                    "stabilizer.certify_stabilizer", "stabilizer.certify_additive", "stabilizer.css",
                    "stabilizer.css_aqc", "stabilizer.construction_x", "stabilizer.ea_ebits",
                    "stabilizer.propagate", "bounds.singleton", "bounds.hamming", "fmatrix.rref",
                    "fmatrix.kernel", "fmatrix.in_span", "code.hull", "code.dump_code"],
    "budget-layered": ["cli.run", "code.min_weight", "code.min_weight_diff", "fmatrix.in_span",
                       "stabilizer.certify_stabilizer", "stabilizer.css", "stabilizer.css_aqc"],
}
END_TO_END = [("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("ok_frac", "ratio"), ("exact_frac", "ratio"), ("floor_frac", "ratio"),
              ("peak_rss_mb", "MB")]


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str]) -> tuple[float, list[float], subprocess.Popen]:
    """Start a worker; returns (seconds until READY, [import_s, fields_s], process)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line.startswith("READY"):
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process did not start (is src/stabforge in the checkout?)")
    return setup, [float(x) for x in line.split()[1:]], proc


def finish(proc: subprocess.Popen):
    try:
        proc.stdout.read()
        if proc.wait(timeout=TIMEOUT_S) != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def run_worker(work: str, name: str, extra: list[str]) -> tuple[float, list[float], dict]:
    """Run a worker; set-up times come back scaled to the reference speed."""
    out = os.path.join(work, name + ".json")
    f = calib.REF_S / calib.measure(20)
    setup, parts, proc = spawn(["--corpus", os.path.join(work, "corpus.json"), "--out", out] + extra)
    finish(proc)
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    for r in report["results"]:
        r["ref_ns"] = r["ns"] * calib.factor(report["calibration"], r["t"], r["t_end"])
    return setup * f, [x * f for x in parts], report


def quantile(values, frac):
    values = sorted(values)
    return values[min(len(values) - 1, int(frac * len(values)))]


def template_medians(items: dict, report: dict) -> list[float]:
    """Each item's time replaced by the median time of its template in this
    run.  Every round repeats the same templates on fresh files of the same
    shape, so this keeps the cost distribution and drops per-call noise."""
    by_template: dict[str, list[float]] = {}
    for r in report["results"]:
        by_template.setdefault(items[r["id"]]["template"], []).append(r["ref_ns"] / 1e6)
    med = {t: statistics.median(v) for t, v in by_template.items()}
    return [med[items[r["id"]]["template"]] for r in report["results"]]


def evaluate(items: dict, report: dict) -> dict:
    """Check every result; returns counts, failures and distance statistics."""
    failed, known_failed, exact, total, gap, ref_sum = [], [], 0, 0, 0, 0
    for res in report["results"]:
        item = items[res["id"]]
        reason, fields = check.check_item(item, res)
        if reason is not None:
            (known_failed if item["known"] else failed).append((item, reason))
        for is_exact, value, ref in fields:
            total += 1
            exact += is_exact
            ref_sum += ref
            gap += 0 if is_exact else ref - value
    return {"failed": failed, "known_failed": known_failed, "exact": exact, "fields": total,
            "floor_gap": gap, "ref_sum": ref_sum}


def cert_digests(report: dict) -> dict:
    return {r["id"]: hashlib.sha256(f"{r['exit']}\n{r['stdout']}".encode()).hexdigest()
            for r in report["results"]}


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "stabforge", "cli.py")):
        print("error: no stabforge sources under src/ in this checkout", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # item paths are relative to the checkout, as a CLI user would type them
    work = os.path.join(".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    rounds = max(4, int(args.seconds * ROUNDS_PER_S[args.workload]) + 2)
    b = corpus.build(args.workload, args.seed, os.path.join(work, "files"), rounds)
    items = {it["id"]: it for rnd in b.rounds for it in rnd}
    with open(os.path.join(work, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": sorted(b.fields),
                   "rounds": [[{"id": it["id"], "argv": it["argv"]} for it in rnd] for rnd in b.rounds]}, fh)

    setups, parts = [], []
    for _ in range(SETUP_PROBES):
        before = calib.measure(20)
        s, p, proc = spawn(["--corpus", os.path.join(work, "corpus.json"), "--setup-only"])
        finish(proc)
        f = calib.REF_S / statistics.mean((before, calib.measure(20)))
        setups.append(s * f)
        parts.append([x * f for x in p])
    s, p, report = run_worker(work, "untraced", ["--seconds", str(args.seconds),
                                                 "--min-items", str(MIN_ITEMS)])
    setups.append(s)
    parts.append(p)

    ev = evaluate(items, report)
    n = len(report["results"])
    ms = [r["ref_ns"] / 1e6 for r in report["results"]]
    raw_ms = [r["ns"] / 1e6 for r in report["results"]]
    typical = template_medians(items, report)
    n_failed = len(ev["failed"]) + len(ev["known_failed"])
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": n / (sum(ms) / 1e3),
        "item_p50_ms": quantile(typical, 0.5),
        "item_p90_ms": quantile(typical, 0.9),
        "ok_frac": (n - n_failed) / n,
        "exact_frac": ev["exact"] / ev["fields"] if ev["fields"] else 1.0,
        "floor_frac": 1 - ev["floor_gap"] / ev["ref_sum"] if ev["ref_sum"] else 1.0,
        "peak_rss_mb": report["maxrss_kb"] / 1024,
    }
    digests = cert_digests(report)
    env = environment()
    with open(os.path.join(work, "certs.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "sha256": digests}, fh, indent=0)
    with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh)

    print(f"workload={args.workload} seed={args.seed} rounds={report['rounds']} items={n} "
          f"elapsed_s={report['elapsed_s']:.3f} corpus_exhausted={report['exhausted']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in END_TO_END:
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    print(f"  times above are at the reference speed (calib.py); as measured: items_per_s "
          f"{n / report['elapsed_s']:.6g} 1/s, item_p50_ms {quantile(raw_ms, 0.5):.6g} ms, "
          f"item_p90_ms {quantile(raw_ms, 0.9):.6g} ms, speed factor {statistics.median(r['ref_ns'] / r['ns'] for r in report['results']):.4f}")
    print(f"  {'failed_frac':<12} {n_failed / n:.6g} ratio  (= 1 - ok_frac)")
    print(f"  {'floor_gap':<12} {ev['floor_gap'] / max(report['rounds'], 1):.6g} distance/round"
          f"  (reference minus certified floor, summed over lower-bound fields)")
    print(f"  samples: {n} item times, {len(setups)} set-ups, {ev['fields']} distance fields")
    all_certs = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    print(f"  certificates sha256={all_certs} ({len(digests)} items, per item in {work}/certs.json)")
    known = {}
    for item, reason in ev["known_failed"]:
        known.setdefault(item["template"], [0, reason])[0] += 1
    for template in sorted({it["template"] for it in items.values() if it["known"]}):
        count, reason = known.get(template, (0, "passes now (defect fixed?)"))
        print(f"  known defect {template}: {count} failed; {reason}")
    for item, reason in ev["failed"][:20]:
        print(f"  FAILED {item['id']} {item['template']} {' '.join(item['argv'])}: {reason}")

    correct = not ev["failed"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        metrics, problems = traced(args, work, report, items, parts)
        for p in problems:
            print(f"  TRACE CHECK FAILED: {p}")
        correct = correct and not problems
    shutil.rmtree(os.path.join(work, "files"))  # thousands of small files; the seed rebuilds them
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(ev["failed"]),
                      "metrics": metrics}))
    return 0


def traced(args, work: str, untraced: dict, items: dict, parts: list) -> tuple[dict, list[str]]:
    import micro
    import tracing

    spans_path = os.path.join(work, "spans.jsonl")
    _, _, report = run_worker(work, "traced", ["--rounds", str(untraced["rounds"]), "--trace", spans_path])
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(ln) for ln in fh]
    problems = tracing.sanity(spans, report["trace"], REQUIRED[args.workload])
    if cert_digests(report) != cert_digests(untraced):
        problems.append("traced certificates differ from the untraced run")
    speed = statistics.median(r["ref_ns"] / r["ns"] for r in report["results"])
    values = tracing.per_layer(spans, report["rounds"], speed)
    values["setup.import_s"] = statistics.median(p[0] for p in parts)
    values["setup.fields_s"] = statistics.median(p[1] for p in parts)
    base = {r["id"]: r["ref_ns"] for r in untraced["results"]}
    diffs = [(r["ref_ns"] - base[r["id"]]) / 1e6 for r in report["results"]]
    values["trace.overhead_ms"] = statistics.median(diffs)
    values["trace.overhead_frac"] = (sum(r["ref_ns"] for r in report["results"])
                                     / sum(base.values()) - 1)
    values.update(micro.run_all(worker_env()))
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    for name in sorted(values):
        print(f"  {name:<44} {values[name]:.6g} {units.get(name, '?')}")
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"per-layer metrics not produced: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    return metrics, problems


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
