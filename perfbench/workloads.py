"""Workloads of the pma benchmark: inputs, one operation and its check.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked. The inputs of
operation ``i`` are derived from the workload name, the seed and ``i``, so
every process (fresh, steady, traced or untraced) sees the same inputs for
the same operation. The benchmark reaches the program only through
``pma.harness``'s public functions and reads only their reports.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

from pma import harness


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str = ""  # "" marks the audit-suite workload
    m: int = 0
    e: int = 0
    t: int = 0
    sweep: bool = False  # theta=None: one op decodes every index
    dataset_dict: bool = False  # pass a generated dataset dict (the --datasets path)
    selector: str = "all"  # audit-suite selector
    cold_runs: int = 5  # processes whose first op gives cold_op_s

    @property
    def is_audit(self) -> bool:
        return not self.variant


# A selector naming the cases one by one checks exactly those cases; "all"
# checks the full suite as it stands at the commit that defined the
# benchmark: 13 positive cases and 8 controls.
SUITE_CASES = (
    "query-privacy:pma1", "query-privacy:spma1", "query-privacy:spma2",
    "blind-estimation:pma1", "blind-estimation:spma1",
    "symmetric-privacy:spma1", "symmetric-privacy:spma2",
    "storage-security:spma2", "storage-security:spma2-min",
    "eavesdropper:pma1", "eavesdropper:spma1", "eavesdropper:spma2",
    "interparty-dealing:pma1",
    "control:unprotected-query", "control:zero-masks-blind",
    "control:pma1-symmetric", "control:zero-blinding-symmetric",
    "control:zero-storage-noise", "control:overbudget-storage",
    "control:overbudget-eavesdropper", "control:overbudget-collusion-type2",
)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("query-e4", variant="pma1", m=10, e=10_000, t=1),
    Workload("sweep-spma2", variant="spma2", m=10, e=150, t=1, sweep=True,
             dataset_dict=True),
    Workload("collusion-wide", variant="spma1", m=2, e=2, t=63, sweep=True,
             cold_runs=9),
    Workload("audit-suite", cold_runs=3),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at desk scale, for the benchmark's smoke test."""
    if w.is_audit:
        return replace(w, selector="storage-security:spma2-min,"
                                   "control:unprotected-query")
    return replace(w, e=min(w.e, 8), cold_runs=1)


def op_input(w: Workload, seed: int, i: int):
    """Inputs of operation ``i``: a RunConfig, or the audit selector."""
    if w.is_audit:
        return w.selector
    r = random.Random(f"{w.name}:{seed}:{i}")
    config = harness.RunConfig(variant=w.variant, t=w.t, seed=r.getrandbits(32))
    if w.dataset_dict:
        universe = [f"el{k:05d}" for k in range(w.e)]
        r.shuffle(universe)
        config.datasets = {
            "universe": universe,
            "parties": [[x for x in universe if r.random() < 0.5]
                        for _ in range(w.m)],
        }
    else:
        config.m, config.e = w.m, w.e
    if not w.sweep:
        config.theta = r.randint(1, w.e)
    return config


def run_op(w: Workload, inp) -> dict:
    """One operation. Looks the entry point up at call time, so a tracer
    that wrapped it is used."""
    if w.is_audit:
        return harness.run_audit_suite(inp)
    return harness.run_protocol(inp)


@dataclass
class OpRecord:
    start: float  # perf_counter at the start of the op
    seconds: float  # wall time, less the time of speed samples taken meanwhile
    results: int  # decoded counts, or audit verdicts, that passed the check
    problems: list
    fingerprint: tuple = ()
    cost: dict | None = None


def run_checked(w: Workload, inp, meter, trace_op=None) -> OpRecord:
    """Time one operation, then check its report outside the timed region.

    An exception from the program fails the operation instead of ending
    the run. ``meter`` is the active speed.Speedometer; ``trace_op`` is a
    context manager that traces the call.
    """
    gc.collect()
    with nullcontext() if trace_op is None else trace_op:
        spent = meter.spent
        start = time.perf_counter()
        try:
            report = run_op(w, inp)
        except Exception as exc:  # the program failed this op; keep measuring
            report, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start - (meter.spent - spent)
    if report is None:
        return OpRecord(start, seconds, 0, [error])
    try:
        problems, results = check(w, inp, report)
        fingerprint = _fingerprint(w, report)
    except Exception as exc:  # a report the check cannot read is a failure
        return OpRecord(start, seconds, 0, [f"unreadable report: {exc!r}"])
    return OpRecord(start, seconds, 0 if problems else results, problems,
                    fingerprint, None if w.is_audit else report["cost"])


def _fingerprint(w: Workload, report: dict) -> tuple:
    """What a traced run must reproduce exactly."""
    if w.is_audit:
        return tuple((c["name"], c["verdict"], c.get("enumerated_assignments"))
                     for c in report["cases"])
    return tuple((r["theta"], r["count"], r["transcript_digest"])
                 for r in report["results"])


def check(w: Workload, inp, report: dict) -> tuple[list, int]:
    """Problems found in one report, and the number of checked results."""
    if w.is_audit:
        return _check_audit(inp, report)
    return _check_protocol(w, inp, report)


def _check_audit(selector: str, report: dict) -> tuple[list, int]:
    cases = report["cases"]
    wanted = SUITE_CASES if selector == "all" else tuple(selector.split(","))
    problems = [f"audit case {name} missing"
                for name in sorted(set(wanted) - {c["name"] for c in cases})]
    for c in cases:
        expected = "fail" if c["name"].startswith("control:") else "pass"
        if c["verdict"] != expected or c["expected"] != expected or not c["ok"]:
            problems.append(f"audit case {c['name']}: verdict {c['verdict']}, "
                            f"expected {expected}")
    if report["all_ok"] is not True:
        problems.append("audit suite all_ok is not true")
    return problems, len(cases)


def _oracle(config) -> dict:
    """True count per queried index, computed by the benchmark itself."""
    if config.datasets is not None:
        order = sorted(config.datasets["universe"])
        parties = [set(p) for p in config.datasets["parties"]]
        return {k: sum(name in p for p in parties)
                for k, name in enumerate(order, start=1)}
    # generated memberships: rebuild the run's datasets from its seed
    params, datasets, _, _ = harness.resolve_config(config)
    return {k: sum(k in d.members for d in datasets)
            for k in range(1, params.e + 1)}


def expected_cost(w: Workload) -> dict:
    """Symbols per query from the paper's cost formulas (Y=0, T2=1)."""
    if w.variant == "spma2":
        n = next(n for n in range(1, 1025) if w.m * n >= n + w.t * n + 1)
        n_eff = n + w.t * n + 1
        cost = {"download_symbols": n_eff, "upload_symbols": n_eff * w.e,
                "randomness_symbols": n_eff - 1,
                "storage_symbols": w.m * n_eff * w.e}
    else:
        n = w.t + 1
        blinding = n - 1 if w.variant == "spma1" else 0
        cost = {"download_symbols": w.m * n, "upload_symbols": w.m * n * w.e,
                "randomness_symbols": (w.m - 1) * n + blinding,
                "storage_symbols": 0}
    cost["accounted_total"] = (cost["download_symbols"] + cost["upload_symbols"]
                               + cost["randomness_symbols"])
    return cost


def _check_protocol(w: Workload, config, report: dict) -> tuple[list, int]:
    results = report["results"]
    problems = []
    thetas = [r["theta"] for r in results]
    wanted = list(range(1, w.e + 1)) if w.sweep else [config.theta]
    if thetas != wanted:
        problems.append(f"decoded indices {thetas[:5]}... are not {wanted[:5]}...")
    truth = _oracle(config)
    for r in results:
        if r["count"] != truth.get(r["theta"]):
            problems.append(f"theta {r['theta']}: count {r['count']} != "
                            f"oracle {truth.get(r['theta'])}")
    cost = report["cost"]
    if cost["bound_met"] is not True:
        problems.append("download exceeds the theorem bound")
    if cost["remark_applicable"] and cost["remark_match"] is not True:
        problems.append("accounted total differs from the closed form")
    for key, value in expected_cost(w).items():
        if cost[key] != value:
            problems.append(f"{key} {cost[key]} != {value}")
    return problems, len(results)
