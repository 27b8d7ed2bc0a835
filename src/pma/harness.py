"""Run orchestration, communication-cost accounting and the audit suite.

Accounting convention: one symbol is one field element on one link.
Uploads are the query vectors (E symbols each), downloads the scalar
answers, randomness sharing the dealt mask/noise symbols as billed by the
schemes. Type-II storage-share distribution is recorded in the transcript
but reported separately from the accounted total.

The audit suite is one table: each ``SuiteCase`` row names its audit
function, a parameter shape built once per suite, the audit's positional
arguments and keyword options. A case named ``control:...`` must fail.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

from . import audit, pma1, spma2
from .errors import IntegrityError, ParameterError
from .model import (RandomSource, SchemeParams, generate_datasets, load_datasets,
                    make_params, true_count)
from .transcript import (ANSWER, MASK_SHARE, NOISE_SHARE, QUERY, STORAGE_SHARE,
                         Transcript)

RUN_SCHEMA = "pma-run/1"
AUDIT_SCHEMA = "pma-audit-suite/1"
COSTS_SCHEMA = "pma-costs/1"


@dataclass
class RunConfig:
    """Everything needed to reproduce a protocol run."""

    variant: str
    m: int | None = None
    e: int | None = None
    t: int = 0
    y: int | Sequence[int] = 0
    t2: int = 1
    n: int | None = None
    p: int | None = None
    theta: int | None = None  # None sweeps every index
    seed: int = 0
    datasets: dict | str | None = None
    gen_probs: float | Sequence[float] = 0.5

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "variant" not in obj:
            raise ParameterError("config requires 'variant'")
        return cls(**obj)

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def theorem_bound(params: SchemeParams) -> int:
    return params.n_eff if params.is_type2 else params.m * (params.mu + 1)


def remark_total(params: SchemeParams) -> tuple[int, bool]:
    """Closed-form total communication per variant, and whether the form
    applies to these parameters.

    The type-II closed form (E+1)(N+TN+1) + N+NT assumes the collusion term
    dominates the eavesdropping budgets and one communicating party.
    """
    m, n, e = params.m, params.n, params.e
    if not params.is_type2:
        return (m - 1) * n + e * m * n + params.blinding_depth + m * n, True
    total = (e + 1) * (n + params.t * n + 1) + n + n * params.t
    applies = params.t2 == 1 and params.t * n >= max(params.y)
    return total, applies


def measure_costs(transcript: Transcript, params: SchemeParams) -> dict:
    """Symbols per link category, checked against the bound and the
    closed form."""
    tally = transcript.symbols_by_category()
    download, upload, storage = tally[ANSWER], tally[QUERY], tally[STORAGE_SHARE]
    randomness = tally[MASK_SHARE] + tally[NOISE_SHARE]
    accounted = download + upload + randomness
    bound = theorem_bound(params)
    remark, applies = remark_total(params)
    return {
        "download_symbols": download,
        "upload_symbols": upload,
        "randomness_symbols": randomness,
        "storage_symbols": storage,
        "accounted_total": accounted,
        "theorem_bound": bound,
        "bound_met": download <= bound,
        "remark_total": remark,
        "remark_applicable": applies,
        "remark_match": (accounted == remark) if applies else None,
    }


def resolve_config(config: RunConfig):
    """Build validated params, the datasets and the run's randomness source.

    Dataset generation consumes the source first, so a seeded run is fully
    reproducible end to end. ``make_params`` checks the chosen values, or
    the dataset's shape where M or E is not given, and derives the None
    values; a given M or E must then match the dataset.
    """
    rng = RandomSource(config.seed)
    universe = datasets = None
    m, e = config.m, config.e
    if config.datasets is not None:
        universe, datasets = load_datasets(config.datasets)
        m = len(datasets) if m is None else m
        e = len(universe) if e is None else e
    elif m is None or e is None:
        raise ParameterError("m and e are required when no dataset file is given")
    params = make_params(config.variant, m, e, t=config.t, y=config.y,
                         n=config.n, p=config.p, t2=config.t2)
    if datasets is None:
        datasets = generate_datasets(params, config.gen_probs, rng)
    elif (m, e) != (len(datasets), len(universe)):
        raise ParameterError(f"M={m}, E={e} do not match the dataset's "
                             f"{len(datasets)} parties and {len(universe)} elements")
    return params, datasets, universe, rng


def run_protocol(config: RunConfig) -> dict:
    """Execute the configured scheme for one index or a full sweep.

    The decoded count is checked against the brute-force oracle on every
    run; a mismatch raises IntegrityError.
    """
    params, datasets, universe, rng = resolve_config(config)
    runner = spma2.run if params.is_type2 else pma1.run
    if config.theta is not None:
        thetas = [config.theta]
    else:
        thetas = list(range(1, params.e + 1))
    results = []
    cost = None
    for theta in thetas:
        outcome = runner(params, datasets, theta, rng)
        transcript = outcome.transcript
        oracle = true_count(theta, datasets, params.e)
        if outcome.count != oracle:
            raise IntegrityError(
                f"decoded count {outcome.count} != oracle {oracle} at theta={theta}")
        if cost is None:
            cost = measure_costs(transcript, params)
        entry = {
            "theta": theta,
            "count": outcome.count,
            "oracle_count": oracle,
            "match": True,
            "transcript_digest": transcript.digest(),
        }
        if universe is not None:
            entry["element"] = universe[theta - 1]
        results.append(entry)
    return {
        "schema": RUN_SCHEMA,
        "config": config.to_dict(),
        "params": params.summary(),
        "results": results,
        "cost": cost,
        "work": {"hash_calls": rng.position},  # every hash call, datasets too
    }


def cost_table(variant: str, m_values: Sequence[int], *, t: int = 0, y=0,
               e: int = 2, n: int | None = None, seed: int = 0,
               exp_k: int = 2) -> dict:
    """Measured download per party count, checked against the closed form.

    Each row is one oracle-checked ``run_protocol`` call at index 1; a Y list
    has an entry per party of the largest M, and row M uses the first M.
    Type-I downloads must be exactly linear in M (zero residual); the
    exponential reference column M**K * (K-1) is reported for contrast
    only, with K in 1..max(M).
    """
    if not m_values:
        raise ParameterError("cost sweep needs at least one party count")
    if not (type(exp_k) is int and 1 <= exp_k <= max(m_values)):  # K-PSI: K of the M parties
        raise ParameterError(
            f"exponential reference K must be at least 1, an int, and at most the "
            f"largest party count {max(m_values)}, got {exp_k!r}")
    if isinstance(y, (list, tuple)) and len(y) != max(m_values):
        raise ParameterError(f"a cost sweep's Y list needs {max(m_values)} entries, "
                             f"one per party of the largest M; got {len(y)}")
    rows = []
    for m in m_values:
        report = run_protocol(RunConfig(variant, m=m, e=e, t=t, n=n, theta=1, seed=seed,
                                        y=y[:m] if isinstance(y, (list, tuple)) else y))
        params, cost = report["params"], report["cost"]
        row = {
            "m": m,
            "n": params["n"],
            "download": cost["download_symbols"],
            "bound": cost["theorem_bound"],
            "bound_exact": cost["download_symbols"] == cost["theorem_bound"],
            "exp_reference": m ** exp_k * (exp_k - 1),
        }
        if "n_eff" in params:
            row["n_eff"] = params["n_eff"]
        rows.append(row)
    out = {"schema": COSTS_SCHEMA, "variant": variant, "t": t,
           "y": list(y) if isinstance(y, (list, tuple)) else y, "e": e,
           "exp_k": exp_k, "rows": rows}
    if params["variant"] != "spma2":
        m0, d0 = rows[0]["m"], rows[0]["download"]
        linear = all(r["download"] * m0 == d0 * r["m"] for r in rows)
        out["linear_in_m"] = linear
        out["per_party_coefficient"] = d0 // m0 if linear and d0 % m0 == 0 else None
        out["zero_residual"] = linear and d0 % m0 == 0
    else:
        downloads = {r["download"] for r in rows}
        out["constant_download"] = len(downloads) <= 1
    return out


# ---------------------------------------------------------------------------
# audit suite

@dataclass
class SuiteCase:
    """One suite row: ``audit(params, *args, cap=cap, **options)``. A case
    named ``control:...`` runs a broken scheme and must fail; every other
    case must pass."""

    name: str
    lemma: str | None
    audit: Callable[..., audit.AuditResult]
    params: SchemeParams
    args: tuple = ()
    options: dict = field(default_factory=dict)
    note: str = ""

    @property
    def expect_pass(self) -> bool:
        return not self.name.startswith("control:")

    def build(self, cap: int) -> audit.AuditResult:
        return self.audit(self.params, *self.args, cap=cap, **self.options)


def build_audit_suite() -> list[SuiteCase]:
    """Positive audits at minimal feasible parameters plus the designated
    broken-scheme controls, one row each over eight shapes built here."""
    with warnings.catch_warnings():  # no noise budget on purpose: queries in the clear
        warnings.filterwarnings("ignore", "query noise depth is 0", UserWarning)
        clear_t1 = make_params("pma1", 2, 2, t=0, y=0, p=3)
        clear_t2 = make_params("spma2", 2, 1, t=0, y=0, p=3)
    pma1_t1, spma1_t1 = (make_params(v, 2, 2, t=1, p=3) for v in ("pma1", "spma1"))
    pma1_y1, spma1_y1 = (make_params(v, 2, 2, y=1, p=3) for v in ("pma1", "spma1"))
    t2_y0, t2_y1 = (make_params("spma2", 3, 2, t=1, y=y, p=5) for y in (0, 1))
    query, blind, symmetric, storage, eaves, dealing = (
        audit.audit_query_privacy, audit.audit_blind_estimation,
        audit.audit_symmetric_privacy, audit.audit_storage_security,
        audit.audit_eavesdropper, audit.audit_interparty_dealing)
    return [
        SuiteCase("query-privacy:pma1", "lemma4", query, pma1_t1, ([1],)),
        SuiteCase("query-privacy:spma1", "lemma4", query, spma1_t1, ([1],)),
        SuiteCase("query-privacy:spma2", "lemma3", query, t2_y0, ([1],),
                  note="type-II budget is T*N pooled databases"),
        SuiteCase("blind-estimation:pma1", "lemma2", blind, pma1_t1),
        SuiteCase("blind-estimation:spma1", "lemma2", blind, spma1_t1),
        SuiteCase("symmetric-privacy:spma1", "lemma1", symmetric, spma1_t1),
        SuiteCase("symmetric-privacy:spma2", "lemma1", symmetric, t2_y0),
        SuiteCase("storage-security:spma2", "lemma5", storage, t2_y0),
        SuiteCase("storage-security:spma2-min", "lemma5", storage, clear_t2,
                  note="single-share uniformity at the smallest feasible field"),
        SuiteCase("eavesdropper:pma1", "lemma6", eaves, pma1_y1, ([1],)),
        SuiteCase("eavesdropper:spma1", "lemma6", eaves, spma1_y1, ([1],)),
        SuiteCase("eavesdropper:spma2", "lemma7", eaves, t2_y1, ([1],)),
        SuiteCase("interparty-dealing:pma1", None, dealing, pma1_t1),
        SuiteCase("control:unprotected-query", "lemma4", query, clear_t1, ([1],),
                  note="no noise budget: a single colluder reads the index"),
        SuiteCase("control:zero-masks-blind", "lemma2", blind, pma1_t1,
                  options={"zero_masks": True},
                  note="without masks the answers expose per-party bits"),
        SuiteCase("control:pma1-symmetric", "lemma1", symmetric, pma1_t1,
                  note="the non-symmetric scheme leaks through interference"),
        SuiteCase("control:zero-blinding-symmetric", "lemma1", symmetric, spma1_t1,
                  options={"zero_blinding": True}),
        SuiteCase("control:zero-blinding-symmetric-spma2", "lemma1", symmetric, t2_y0,
                  options={"zero_blinding": True}),
        SuiteCase("control:zero-storage-noise", "lemma5", storage, t2_y0,
                  options={"zero_storage_noise": True}),
        SuiteCase("control:overbudget-storage", "lemma5", storage, t2_y0,
                  options={"subset_size": t2_y0.t2 * t2_y0.n + 1},
                  note="one share beyond the depth interpolates the vector"),
        SuiteCase("control:overbudget-eavesdropper", "lemma6", eaves, pma1_y1, ([1, 2],),
                  {"zero_masks": True},
                  note="N taps with depth < N interpolate query and answer"),
        SuiteCase("control:overbudget-collusion-type2", "lemma3", query, t2_y0, ([1, 2],),
                  note="a pair exceeds the T*N = 1 budget here"),
        SuiteCase("control:dataset-dependent-dealing", None, dealing, pma1_t1,
                  options={"leak_incidence": True},
                  note="senders also write their incidence vectors to party M"),
    ]


def select_cases(cases: Sequence[SuiteCase], selector: str) -> list[SuiteCase]:
    if selector == "all":
        return list(cases)
    if selector == "positive":
        return [c for c in cases if c.expect_pass]
    if selector == "controls":
        return [c for c in cases if not c.expect_pass]
    wanted = [s.strip() for s in selector.split(",") if s.strip()]
    if not wanted:
        raise ParameterError(f"audit selector {selector!r} selects no audit")
    out = []
    for w in wanted:
        hits = [c for c in cases if c.name == w or c.lemma == w]
        if not hits:
            known = sorted({c.name for c in cases} | {c.lemma for c in cases if c.lemma})
            raise ParameterError(f"unknown audit selector {w!r}; known: {known}")
        out.extend(h for h in hits if h not in out)
    return out


def run_audit_suite(selector: str = "all", cap: int | None = None) -> dict:
    """Run the selected audits; a case is OK when its verdict matches the
    expectation (controls are expected to fail). A case whose coset laws
    would exceed ``cap`` view evaluations is reported as infeasible and
    the suite continues; ``cap`` defaults to ``audit.DEFAULT_CAP``. ``ms``
    is each case's wall time."""
    cap = audit.DEFAULT_CAP if cap is None else cap
    if type(cap) is not int or cap < 1:
        raise ParameterError(f"cap must be at least 1 and an int, got {cap!r}")
    cases = select_cases(build_audit_suite(), selector)
    entries = []
    for case in cases:
        entry = {
            "name": case.name,
            "lemma": case.lemma,
            "expected": "pass" if case.expect_pass else "fail",
        }
        if case.note:
            entry["note"] = case.note
        start = time.perf_counter()
        try:
            result = case.build(cap)
        except audit.AuditInfeasibleError as exc:
            entry.update(verdict="infeasible", ok=False, error=str(exc),
                         ms=(time.perf_counter() - start) * 1e3)
            entries.append(entry)
            continue
        entry.update(
            verdict="pass" if result.passed else "fail",
            ok=result.passed == case.expect_pass,
            method=audit.METHOD,
            dims=result.dims,
            rank=result.rank,
            secrets=result.secrets,
            params=result.detail,
            ms=(time.perf_counter() - start) * 1e3,
        )
        if result.witness is not None:
            entry["witness"] = result.witness
        entries.append(entry)
    return {
        "schema": AUDIT_SCHEMA,
        "selected": selector,
        "cases": entries,
        "all_ok": all(e["ok"] for e in entries),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
