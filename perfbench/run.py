#!/usr/bin/env python3
"""The pma benchmark. Run it from the root of a source checkout:

    python3 perfbench/run.py --workload query-e4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs per process, as a closed loop with one client, against
the sources in ``src/``. With ``--trace 0`` the run prints the end-to-end
metrics: set-up and first-op time come from fresh processes, the steady
state from ``--seconds`` of operations in this process. With ``--trace 1``
it runs each operation untraced and then traced, checks that both give the
same counts and transcript digests (or audit verdicts), and prints the
per-layer metrics of the traced runs. Every operation's output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table. ``--workload all`` runs every workload in its own
process and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
FRESH_PROCESSES = 5  # least set-up samples per run, after one discarded warm-up
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="desk-scale inputs, for the benchmark's own smoke test")
    # internal: one fresh process measuring set-up and, with 1, its first op
    ap.add_argument("--fresh", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's sources first on the path and import pma from
    them; any other installed pma is refused."""
    sys.path.insert(0, str(SRC))
    import pma
    if SRC not in Path(pma.__file__).resolve().parents:
        raise SystemExit(f"pma was imported from {pma.__file__}, not from {SRC}")


def _workload(name, smoke):
    import workloads
    w = workloads.WORKLOADS[name]
    return workloads.tiny(w) if smoke else w


def fresh(name, seed, cold, smoke):
    """Body of a fresh process: time importing pma and building the first
    op's inputs, then optionally run and check that first op."""
    with Speedometer() as meter:
        spent = meter.spent
        start = time.perf_counter()
        _import_program()
        import workloads
        w = _workload(name, smoke)
        inp = workloads.op_input(w, seed, 0)
        setup = time.perf_counter() - start - (meter.spent - spent)
        rec = workloads.run_checked(w, inp, meter) if cold else None
    out = {"setup_s": setup / meter.slowdown(start, start + setup)}
    if rec is not None:
        out.update(op_s=_scaled(meter, rec), problems=rec.problems)
    return out


def _scaled(meter, rec):
    """An op's time at the reference machine speed (see speed.py)."""
    return rec.seconds / meter.slowdown(rec.start, rec.start + rec.seconds)


def _spawn_fresh(name, seed, cold, smoke):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--fresh", str(int(cold))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems, label):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)[:300]}")


def tail(samples):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), but never below the median: (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10  # 1-based rank with ten samples above it
    if rank * 2 <= n:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / n


def measure_end_to_end(w, seed, seconds, smoke=False):
    """End-to-end metrics of one workload, with tracing off."""
    import workloads
    tally = Tally()
    _spawn_fresh(w.name, seed, False, smoke)  # writes bytecode caches; not counted
    setups, colds = [], []
    for k in range(max(FRESH_PROCESSES, w.cold_runs - 1)):
        cold = k < w.cold_runs - 1
        out = _spawn_fresh(w.name, seed, cold, smoke)
        setups.append(out["setup_s"])
        if cold:
            colds.append(out["op_s"])
            tally.add(out["problems"], f"fresh op {k}")

    steady = []
    with Speedometer() as meter:
        # this process is fresh for pma too: its first op is a cold sample
        first = workloads.run_checked(w, workloads.op_input(w, seed, 0), meter)
        tally.add(first.problems, "op 0")
        deadline = time.perf_counter() + seconds
        i = 1
        while True:
            rec = workloads.run_checked(w, workloads.op_input(w, seed, i), meter)
            tally.add(rec.problems, f"op {i}")
            steady.append(rec)
            i += 1
            if time.perf_counter() >= deadline:
                break
    colds.append(_scaled(meter, first))
    times = [_scaled(meter, rec) for rec in steady]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_op_s": (statistics.median(colds), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "results_per_s": (sum(rec.results for rec in steady) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    detail = {
        "op_tail_percentile": (tail_pct, "%"),
        "op_samples": (len(times), "count"),
        "cold_samples": (len(colds), "count"),
        "setup_samples": (len(setups), "count"),
        "op_p50_wall_s": (statistics.median(rec.seconds for rec in steady), "s"),
        "slowdown": (meter.slowdown(), "ratio"),
        "speed_samples": (len(meter.samples), "count"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
    }
    if not w.is_audit:
        detail["counts_per_s"] = metrics["results_per_s"]
        for key, name in (("download_symbols", "download_symbols"),
                          ("upload_symbols", "upload_symbols"),
                          ("randomness_symbols", "randomness_symbols"),
                          ("accounted_total", "accounted_symbols"),
                          ("storage_symbols", "storage_symbols")):
            detail[name] = ((first.cost or {}).get(key), "symbols")
    return metrics, detail, tally


def measure_layers(w, seed, seconds, spans_path=None):
    """Per-layer metrics: each op runs untraced, then traced on the same
    inputs; both must give the same counts and digests."""
    import pma
    import tracing
    import workloads
    tracer = tracing.Tracer(pma)
    tally = Tally()
    pairs = []
    with Speedometer() as meter:
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            inp = workloads.op_input(w, seed, i)
            plain = workloads.run_checked(w, inp, meter)
            tally.add(plain.problems, f"op {i}")
            traced = workloads.run_checked(w, inp, meter, trace_op=tracer.op(i))
            problems = list(traced.problems)
            if not problems and traced.fingerprint != plain.fingerprint:
                problems.append(
                    "traced counts or digests differ from the untraced run")
            tally.add(problems, f"traced op {i}")
            pairs.append((plain, traced))
            i += 1
            if time.perf_counter() >= deadline:
                break
    slowdowns = [meter.slowdown(t.start, t.start + t.seconds) for _, t in pairs]
    results = [t.results or p.results for p, t in pairs]
    metrics = {name: (value, tracing.METRICS[name][0])
               for name, value in tracer.medians(results, slowdowns).items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(_scaled(meter, t) for _, t in pairs)
        / statistics.median(_scaled(meter, p) for p, _ in pairs), "ratio")
    detail = {
        "traced_ops": (len(pairs), "count"),
        "slowdown": (meter.slowdown(), "ratio"),
        "absent_layers": (tracer.absent(), "names"),
    }
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        detail["spans_file"] = (str(spans_path.relative_to(ROOT)), "path")
    return metrics, detail, tally


def result_line(metrics, tally):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<34} {shown} {unit}")


def run_all(args):
    import workloads
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pma" / "__init__.py").is_file():
        print(f"error: no pma sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.fresh is not None:
        print(json.dumps(fresh(args.workload, args.seed, args.fresh, args.smoke)))
        return 0
    _import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    w = _workload(args.workload, args.smoke)
    if args.trace:
        spans = SPANS_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        metrics, detail, tally = measure_layers(w, args.seed, args.seconds, spans)
    else:
        metrics, detail, tally = measure_end_to_end(w, args.seed, args.seconds,
                                                    args.smoke)
    print_table(f"{w.name} seed={args.seed} trace={args.trace}",
                {**metrics, **detail})
    for line in tally.problems:
        print(f"  FAILED {line}")
    print(json.dumps(result_line(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
