"""Run orchestration, cost accounting and the audit suite driver."""

import ast
import hashlib
import json
import warnings

import pytest
from hypothesis import example, given, settings

from pma.errors import IntegrityError, ParameterError
from pma.harness import (RunConfig, build_audit_suite, cost_table, measure_costs,
                         remark_total, resolve_config, run_audit_suite, run_protocol,
                         select_cases, theorem_bound, to_json)
from pma.model import PartyDataset, RandomSource, make_params
from pma import harness, pma1, spma1, spma2
from pma.transcript import NOISE_SHARE
from tests.configs import BASES, check_accepted_run, patched_configs

PAPER_DATA = {
    "universe": ["a", "b", "c", "d", "e"],
    "parties": [["a", "b", "c", "d", "e"], ["b", "c", "d"]],
}


# Seeded outputs: (theta, count, transcript digest) per result and a
# SHA-256 of the sorted member sets. The counts and member sets were
# recorded when the sampler began to read one byte per value for a modulus
# up to 128, and memberships from 56-bit words read lazily. The digests
# were re-recorded when the digest began to hash a payload of values in
# 0..255 one byte each, under its own tag, and again when every sampler
# became one hash call cut into rows and a modulus in 129..2^15 began to
# read 2-byte words: type-I masks at M >= 3, spma1 blinding and noise of
# depth 2 or more moved, the counts and member sets did not. A change here
# changes every seeded report. The counts (2, 1, 1, 3) and member sets of
# spma2-dataset-dict are those of its dataset dict, which does not depend
# on the seed, and must never move. The word widths each have a pin: one
# byte (p = 23 at pma1-e2000), 2 bytes (p = 131 at spma1-deep-blinding)
# and 8 bytes (pma1-p32771).
_GOLDEN = {
    "pma1-e2000": (
        RunConfig("pma1", m=10, e=2000, t=1, theta=1234, seed=2024),
        [(1234, 7, "d18fedd664697da4dff69a82ae4d0f6134b1bbd83e5261c5308de6e1074a8e0f")],
        "11592c046e97b925e2cac70ba2e5c7080f6175b5a1794440370b049568a62426"),
    "pma1-p32771": (
        RunConfig("pma1", m=10, e=300, t=1, theta=7, p=32771, seed=2026),
        [(7, 5, "2d1587f47f000d49620399c6a5cae8dee94b2c3c1dbade03bdc72c046f407a7a")],
        "2bd2d672277285185e8e4353b1be4f368eac336608d4565447418b243c325cfc"),
    "spma1-per-element-probs": (
        RunConfig("spma1", m=3, e=6, t=1, seed=31, gen_probs=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
        [(1, 0, "4d1bdd036ae8a9bdd09c24f400acb370198553461737ce6060aa2080be44ed27"),
         (2, 1, "91bab32c45f45a045967edcddcaa5ae364b1c9cc3fcbfaabb8ee5eb9d8336ae9"),
         (3, 1, "961268edf65b0be7e4fe0887f8e344cd962b7f1c5051fe4810e22d199161f2ed"),
         (4, 2, "515a923a4073a224eef32abc7ccd518335f872b2289a434bdb2a9de6b194236f"),
         (5, 2, "4823df9cb5f1ba826590ed4a370a8bff1b32b47af8a427a33b8041e7b8e49ec1"),
         (6, 3, "b75c951f89df6bd78221fe8b54a1108c1cd9200f6ad4c830f94082e005f499ae")],
        "97cf8ba366564e27247f310ca6a63c1133d0ca0e3620a7acfa7e0ecb7d0a18dd"),
    "spma2-dataset-dict": (
        RunConfig("spma2", t=1, seed=47, datasets={
            "universe": ["ant", "bee", "cat", "dog"],
            "parties": [["ant", "dog"], ["bee", "cat", "dog"], ["dog"], [], ["ant"]]}),
        [(1, 2, "5aad2cbeb9a2b91066e8e8cd8aad5534e506e2daa0137cba051cb5ca5743aa23"),
         (2, 1, "f87345fbc25eac0936487c35663ce8d41f0a67f00d8d0a4798e1073c6f8986fe"),
         (3, 1, "2bd5d4f8ee0d32ae5fb933c7ed3afa934e847fd426737211ffcf2f24f09de1a1"),
         (4, 3, "b0ac19bb2af3ded02ad8b7e991b27692ac73a56ba16c8a0eae35b789c92905fe")],
        "cdf0d222bb1d9882bffca3d20f492b46ee5ee75c6ebfdae2ef2c427a3d7ba135"),
    # deep noise: more noise rows than the vectors have entries (N=64 and
    # blinding depth 63 on E=2; query depth 3 on E=2)
    "spma1-deep-blinding": (
        RunConfig("spma1", m=2, e=2, t=63, seed=7),
        [(1, 1, "844166e1668848ce2327bdd3f80642f83eb6fc46fd53dbb3aa0d39e063977ef6"),
         (2, 1, "0cd21848d98256eb5670aa6cc90800f6044dbbd64d6e626d0b944ff1619ba3d4")],
        "9d4bf863bdfab8810c92c615f7f0114dcc7559b0fc22391789867353edc9e8e7"),
    "spma2-deep-query": (
        RunConfig("spma2", m=5, e=2, t=3, seed=7),
        [(1, 2, "e87a9ba7c7c60167d6c6c6d716deec15923ddd41e4322734aa201ff893efbdb7"),
         (2, 3, "e4617db81b6912b11063e4c1f6fdb0050f1bd38f317923d4a99490155ff16ce1")],
        "130c40cbbad2b6fcec38ec2dd3c5fb88964057d6d943e460dd014c8dc75153cf"),
    # p = 263: the answer group opens with a payload of one byte and holds a
    # wider one after it, so one group's payloads take both forms
    "spma2-p263-mixed-group": (
        RunConfig("spma2", m=4, e=20, t=1, p=263, theta=1, seed=9),
        [(1, 2, "06a3e21da1ec9dfcb8bace5e90fad6b1691dd9687ccce8d1a9fcdc292cc19b09")],
        "2da382ba01a317cffb1b659d30c2d6ebc64a06c143beea0b9dfac7de852ad3d4"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_seeded_outputs_are_pinned(name):
    config, results, members_sha = _GOLDEN[name]
    report = run_protocol(config)
    assert [(r["theta"], r["count"], r["transcript_digest"])
            for r in report["results"]] == results
    _, datasets, _, _ = resolve_config(config)
    members = json.dumps([sorted(d.members) for d in datasets]).encode()
    assert hashlib.sha256(members).hexdigest() == members_sha


def test_a_pin_holds_a_group_of_byte_then_word_payloads():
    config = _GOLDEN["spma2-p263-mixed-group"][0]
    params, datasets, _, rng = resolve_config(config)
    run = spma2.run(params, datasets, config.theta, rng)
    answers = [ev.values for ev in run.transcript.events if ev.category == "answer"]
    assert max(answers[0]) < 256 <= max(max(a) for a in answers[1:])


# Parameter summaries and cost tables recorded while the evaluation points
# were a stored field and a type-I Y an int; deriving them must not change
# a report.
_SUMMARIES = [
    (("pma1", 3, 4, {"t": 1, "y": 2}),
     {"variant": "pma1", "m": 3, "n": 3, "t": 1, "y": 2, "e": 4, "p": 11,
      "alphas": [1, 2, 3]}),
    (("spma1", 4, 5, {"t": 2, "y": [1, 1, 1, 1]}),
     {"variant": "spma1", "m": 4, "n": 3, "t": 2, "y": 1, "e": 5, "p": 17,
      "alphas": [1, 2, 3]}),
    (("spma2", 5, 3, {"t": 1, "y": [1, 0, 2, 0, 1]}),
     {"variant": "spma2", "m": 5, "n": 1, "t": 1, "y": [1, 0, 2, 0, 1], "e": 3, "p": 7,
      "alphas": [1, 2, 3, 4], "t2": 1, "n_eff": 4, "idle_databases": 1}),
    (("pma2", 3, 2, {"t": 1}),
     {"variant": "spma2", "m": 3, "n": 1, "t": 1, "y": [0, 0, 0], "e": 2, "p": 5,
      "alphas": [1, 2, 3], "t2": 1, "n_eff": 3, "idle_databases": 0}),
]


@pytest.mark.parametrize("args,summary", _SUMMARIES,
                         ids=["pma1", "spma1", "spma2", "pma2-alias"])
def test_param_summaries_are_pinned(args, summary):
    variant, m, e, kwargs = args
    assert make_params(variant, m, e, **kwargs).summary() == summary


def test_cost_tables_are_pinned():
    assert cost_table("pma1", [2, 3, 4], t=1) == {
        "schema": "pma-costs/1", "variant": "pma1", "t": 1, "y": 0, "e": 2, "exp_k": 2,
        "rows": [{"m": m, "n": 2, "download": 2 * m, "bound": 2 * m, "bound_exact": True,
                  "exp_reference": m * m} for m in (2, 3, 4)],
        "linear_in_m": True, "per_party_coefficient": 2, "zero_residual": True}
    assert cost_table("spma2", [3, 4, 5], t=1, y=[0, 1, 0, 1, 0]) == {
        "schema": "pma-costs/1", "variant": "spma2", "t": 1, "y": [0, 1, 0, 1, 0],
        "e": 2, "exp_k": 2,
        "rows": [{"m": m, "n": 1, "download": 3, "bound": 3, "bound_exact": True,
                  "exp_reference": m * m, "n_eff": 3} for m in (3, 4, 5)],
        "constant_download": True}


def test_run_config_round_trip():
    config = RunConfig(variant="pma1", m=2, e=5, t=1, theta=3, seed=7)
    assert RunConfig.from_dict(config.to_dict()) == config


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown config keys"):
        RunConfig.from_dict({"variant": "pma1", "bogus": 1})
    with pytest.raises(ParameterError, match="variant"):
        RunConfig.from_dict({"m": 2})


def test_run_protocol_paper_vectors():
    config = RunConfig(variant="pma1", t=1, theta=3, seed=7, datasets=PAPER_DATA)
    report = run_protocol(config)
    (entry,) = report["results"]
    assert entry["count"] == 2
    assert entry["match"] is True
    assert entry["element"] == "c"
    cost = report["cost"]
    m, n = report["params"]["m"], report["params"]["n"]
    assert cost["download_symbols"] == m * n == theorem_bound(
        make_params("pma1", 2, 5, t=1, y=0))


def test_run_protocol_sweep_checks_every_index():
    config = RunConfig(variant="spma1", t=1, seed=3, datasets=PAPER_DATA)
    report = run_protocol(config)
    assert [r["theta"] for r in report["results"]] == [1, 2, 3, 4, 5]
    assert [r["count"] for r in report["results"]] == [1, 2, 2, 2, 1]
    assert all(r["match"] for r in report["results"])


def test_run_protocol_spma2_download_three():
    config = RunConfig(variant="spma2", m=3, e=2, t=1, theta=1, seed=1)
    report = run_protocol(config)
    assert report["cost"]["download_symbols"] == 3  # 1 + 1*1 + 1


def test_run_protocol_single_element_universe():
    config = RunConfig(variant="pma1", t=1, theta=1, seed=0,
                       datasets={"universe": ["x"], "parties": [["x"], []]})
    report = run_protocol(config)
    assert report["results"][0]["count"] == 1


def test_run_protocol_pma2_alias():
    config = RunConfig(variant="pma2", m=3, e=2, t=1, theta=2, seed=5)
    report = run_protocol(config)
    assert report["params"]["variant"] == "spma2"


def test_run_protocol_config_conflicts():
    with pytest.raises(ParameterError, match="parties"):
        run_protocol(RunConfig(variant="pma1", m=3, t=1, datasets=PAPER_DATA))
    with pytest.raises(ParameterError, match="m and e are required"):
        run_protocol(RunConfig(variant="pma1", t=1))


def test_remark_totals_measured_exactly():
    # plain type I: (M-1)N + EMN + MN
    config = RunConfig(variant="pma1", m=3, e=4, t=1, theta=1, seed=2)
    cost = run_protocol(config)["cost"]
    assert cost["accounted_total"] == 2 * 2 + 4 * 3 * 2 + 3 * 2
    assert cost["remark_match"] is True
    # symmetric type I adds N-1 provisioning symbols
    config = RunConfig(variant="spma1", m=3, e=4, t=1, theta=1, seed=2)
    cost = run_protocol(config)["cost"]
    assert cost["accounted_total"] == 2 * 2 + 4 * 3 * 2 + 1 + 3 * 2
    assert cost["remark_match"] is True
    # type II: (E+1)(N+TN+1) + N+NT when collusion dominates
    config = RunConfig(variant="spma2", m=3, e=4, t=1, theta=1, seed=2)
    cost = run_protocol(config)["cost"]
    assert cost["accounted_total"] == 5 * 3 + 2
    assert cost["remark_match"] is True


def test_remark_type2_not_applicable_when_eavesdropping_dominates():
    params = make_params("spma2", 3, 2, t=0, y=(2, 2, 2))
    total, applies = remark_total(params)
    assert not applies


def test_storage_symbols_reported_but_not_accounted():
    config = RunConfig(variant="spma2", m=3, e=2, t=1, theta=1, seed=0)
    cost = run_protocol(config)["cost"]
    assert cost["storage_symbols"] == 3 * 3 * 2  # M * n_eff * E
    assert cost["accounted_total"] == (cost["download_symbols"]
                                       + cost["upload_symbols"]
                                       + cost["randomness_symbols"])


def test_cost_table_linear_type1():
    table = cost_table("pma1", range(2, 7), t=1, y=0, e=2)
    assert [r["download"] for r in table["rows"]] == [4, 6, 8, 10, 12]
    assert table["zero_residual"] is True
    assert table["per_party_coefficient"] == 2
    spma = cost_table("spma1", range(2, 7), t=1, y=0, e=2)
    assert [r["download"] for r in spma["rows"]] == \
        [r["download"] for r in table["rows"]]


def test_cost_table_type2_constant_in_m():
    table = cost_table("spma2", range(3, 7), t=1, y=0, e=2, n=1)
    assert {r["download"] for r in table["rows"]} == {3}
    assert table["constant_download"] is True


def test_cost_table_checks_counts_against_the_oracle(monkeypatch):
    original = pma1.decode
    monkeypatch.setattr(pma1, "decode", lambda answers, params: (
        original(answers, params) + 1) % (params.m + 1))
    with pytest.raises(IntegrityError, match="!= oracle"):
        cost_table("pma1", range(2, 5), t=1)


def test_cost_table_y_list_is_cut_per_row(monkeypatch):
    seen = []
    original = run_protocol

    def spy(config):
        seen.append(config.y)
        return original(config)

    monkeypatch.setattr(harness, "run_protocol", spy)
    table = cost_table("spma2", [3, 4], t=1, y=(0, 1, 0, 1), n=2)
    assert seen == [(0, 1, 0), (0, 1, 0, 1)]
    assert [r["m"] for r in table["rows"]] == [3, 4]
    seen.clear()
    for bad in ((0, 1, 0), (0, 1, 0, 1, 0)):
        with pytest.raises(ParameterError, match="needs 4 entries"):
            cost_table("spma2", [3, 4], t=1, y=bad)
    assert seen == []  # rejected before any row runs


def test_cost_table_exponential_reference_column():
    table = cost_table("pma1", [2, 3], t=1, y=0, e=2, exp_k=3)
    assert [r["exp_reference"] for r in table["rows"]] == [2 ** 3 * 2, 3 ** 3 * 2]


def test_reports_are_deterministic():
    config = RunConfig(variant="spma1", m=2, e=3, t=1, theta=2, seed=11)
    a = to_json(run_protocol(config))
    b = to_json(run_protocol(config))
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == "pma-run/1"


def test_report_counts_every_hash_call():
    # the collusion-wide shape (N = 64, p = 131): per index, each party's 63
    # query-noise rows are one call, the masks one and the blinding one;
    # the datasets take one call per party and, at this seed, no tie read
    # and no rejection refill
    config = RunConfig("spma1", m=2, e=2, t=63, seed=5)
    _, _, _, rng = resolve_config(config)
    assert rng.position == 2
    report = run_protocol(config)
    assert report["params"]["p"] == 131
    assert report["work"] == {"hash_calls": 2 + 4 * 2}


def test_different_seeds_change_transcripts_not_counts():
    base = dict(variant="pma1", m=2, e=3, t=1, theta=1,
                datasets={"universe": ["a", "b", "c"],
                          "parties": [["a"], ["a", "b"]]})
    r1 = run_protocol(RunConfig(**base, seed=1))
    r2 = run_protocol(RunConfig(**base, seed=2))
    assert r1["results"][0]["count"] == r2["results"][0]["count"] == 2
    assert r1["results"][0]["transcript_digest"] != \
        r2["results"][0]["transcript_digest"]


def test_measure_costs_bound_flag():
    with pytest.warns(UserWarning, match="extra databases"):
        with pytest.warns(UserWarning, match="in the clear"):
            params = make_params("pma1", 2, 2, t=0, y=0, n=2)
    datasets = [PartyDataset(frozenset({1})), PartyDataset(frozenset())]
    run = pma1.run(params, datasets, 1, RandomSource(0))
    cost = measure_costs(run.transcript, params)
    assert cost["download_symbols"] == 4
    assert cost["theorem_bound"] == 2
    assert cost["bound_met"] is False  # oversized N is allowed but wasteful


def test_suite_selectors():
    cases = build_audit_suite()
    for selector in ("", ",", " , "):
        with pytest.raises(ParameterError, match="selects no audit"):
            select_cases(cases, selector)
    with pytest.raises(ParameterError, match="unknown audit selector 'none'"):
        select_cases(cases, "none")
    assert len(select_cases(cases, "all")) == len(cases)
    positives = select_cases(cases, "positive")
    controls = select_cases(cases, "controls")
    assert len(positives) + len(controls) == len(cases)
    lemma5 = select_cases(cases, "lemma5")
    assert {c.lemma for c in lemma5} == {"lemma5"}
    named = select_cases(cases, "query-privacy:pma1,storage-security:spma2")
    assert [c.name for c in named] == ["query-privacy:pma1", "storage-security:spma2"]
    with pytest.raises(ParameterError, match="unknown audit selector"):
        select_cases(cases, "lemma99")


def test_run_audit_suite_empty_selector():
    for selector in ("none", ""):
        with pytest.raises(ParameterError):
            run_audit_suite(selector)


def test_run_audit_suite_single_lemma():
    report = run_audit_suite("lemma5")
    assert report["all_ok"] is True
    names = {c["name"] for c in report["cases"]}
    assert "storage-security:spma2" in names
    assert "control:zero-storage-noise" in names


def test_run_audit_suite_reports_method_dims_rank_and_time():
    report = run_audit_suite("storage-security:spma2,control:dataset-dependent-dealing")
    assert report["all_ok"] is True
    storage, dealing = report["cases"]
    assert storage["method"] == dealing["method"] == "coset"
    # T2*N = 1 noise vector of E = 2 symbols, one share, 4 incidence vectors
    # in each of the n_eff = 3 single-share subsets
    assert (storage["dims"], storage["rank"], storage["secrets"]) == (2, 2, 12)
    assert "enumerated_assignments" not in storage
    assert dealing["verdict"] == "fail" and dealing["lemma"] is None
    assert all(c["ms"] >= 0 for c in report["cases"])


@pytest.mark.parametrize("control,positive,failed_class", [
    ("control:zero-masks-blind", "blind-estimation:pma1", {"kappa": 1}),
    ("control:pma1-symmetric", "symmetric-privacy:spma1",
     {"kappa": 0, "realization": "one"}),
    ("control:overbudget-storage", "storage-security:spma2", {"subset": [1, 2]}),
])
def test_failed_audit_params_name_the_failing_class(control, positive, failed_class):
    """A failed audit reports the class of secrets whose laws differ; a
    passed one names no class."""
    failed, passed = run_audit_suite(f"{control},{positive}")["cases"]
    assert (failed["verdict"], passed["verdict"]) == ("fail", "pass")
    assert {k: failed["params"].get(k) for k in failed_class} == failed_class
    assert not set(failed_class) & set(passed["params"])
    # both witness labels lie in the named class
    for key in ("config_a", "config_b"):
        label = ast.literal_eval(failed["witness"][key])
        if "realization" in failed_class:
            bits = label[label.index("bits") + 1]
            assert label[1] == failed_class["realization"]
            assert sum(row[0] for row in bits) == failed_class["kappa"]
        elif "kappa" in failed_class:
            assert len(label[label.index("placement") + 1]) == failed_class["kappa"]


# (dims, rank, secrets) per suite case; a control's secrets count the laws
# built up to its first class of secrets whose laws differ
SUITE_LAWS = {
    "query-privacy:pma1": (4, 2, 2),
    "query-privacy:spma1": (4, 2, 2),
    "query-privacy:spma2": (2, 2, 2),
    "blind-estimation:pma1": (6, 3, 16),
    "blind-estimation:spma1": (8, 3, 16),
    "symmetric-privacy:spma1": (4, 3, 32),
    "symmetric-privacy:spma2": (2, 2, 32),
    "storage-security:spma2": (2, 2, 12),
    "storage-security:spma2-min": (1, 1, 4),
    "eavesdropper:pma1": (4, 3, 8),
    "eavesdropper:spma1": (5, 3, 8),
    "eavesdropper:spma2": (4, 3, 32),
    "interparty-dealing:pma1": (2, 2, 16),
    "control:unprotected-query": (0, 0, 2),
    "control:zero-masks-blind": (4, 1, 2),
    "control:pma1-symmetric": (2, 2, 20),
    "control:zero-blinding-symmetric": (2, 2, 20),
    "control:zero-blinding-symmetric-spma2": (0, 0, 20),
    "control:zero-storage-noise": (0, 0, 4),
    "control:overbudget-storage": (2, 2, 4),
    "control:overbudget-eavesdropper": (2, 2, 8),
    "control:overbudget-collusion-type2": (2, 2, 2),
    "control:dataset-dependent-dealing": (2, 2, 16),
}


def test_suite_reports_laws_per_case():
    report = run_audit_suite("all")
    assert report["all_ok"] is True
    assert {c["name"]: (c["dims"], c["rank"], c["secrets"])
            for c in report["cases"]} == SUITE_LAWS


def test_run_audit_suite_reports_infeasible_and_continues():
    report = run_audit_suite("lemma4,lemma5", cap=1)
    verdicts = {c["name"]: c["verdict"] for c in report["cases"]}
    assert "infeasible" in verdicts.values()
    assert report["all_ok"] is False


@pytest.mark.parametrize("variant,scheme,redrawn", [
    ("pma1", pma1, lambda run: (run.queries.noise, run.masks)),
    ("spma1", spma1, lambda run: (run.masks, run.blinding)),
    ("spma2", spma2, lambda run: (run.queries.noise, run.blinding)),
], ids=("pma1", "spma1", "spma2"))
def test_consecutive_runs_redraw_per_query_randomness(variant, scheme, redrawn):
    """Two runs on one source, as in a sweep, draw each piece of per-query
    randomness afresh."""
    params = make_params(variant, 3, 4, t=1, p=131)
    datasets = [PartyDataset(frozenset({1, 2})), PartyDataset(frozenset({2})),
                PartyDataset(frozenset())]
    rng = RandomSource(5)
    first = scheme.run(params, datasets, 2, rng)
    second = scheme.run(params, datasets, 2, rng)
    assert first.count == second.count == 2
    for a, b in zip(redrawn(first), redrawn(second)):
        assert a != b


@pytest.mark.parametrize("variant,scheme,t,depth", [
    ("pma1", pma1, 2, 0),  # N = 3, no blinding
    ("spma1", spma1, 2, 2),  # N - 1 per party, N = 3
    ("spma2", spma2, 1, 2),  # n_eff - 1 shared, n_eff = 3
], ids=("pma1", "spma1", "spma2"))
def test_blinding_drawn_and_billed_at_blinding_depth(variant, scheme, t, depth):
    """The blinding rows a run draws and the noise-share symbols it bills
    both equal the parameters' blinding depth."""
    params = make_params(variant, 3, 2, t=t, p=131)
    assert params.blinding_depth == depth
    datasets = [PartyDataset(frozenset({1})), PartyDataset(frozenset({1, 2})),
                PartyDataset(frozenset())]
    run = scheme.run(params, datasets, 1, RandomSource(3))
    rows = (run.blinding,) if params.is_type2 else run.blinding  # type I: a row per party
    assert len(rows) == (1 if params.is_type2 else params.m)
    assert all(len(row) == depth for row in rows)
    assert run.transcript.symbols_by_category()[NOISE_SHARE] == depth


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _leaves(x)
    elif isinstance(obj, spma2.StorageShare):
        yield from _leaves((obj.noise, obj.shares))
    else:
        yield obj


# the vectors each scheme's run builds; none of them is re-checked by the
# kernels that consume it
_BUILT_VECTORS = {
    "pma1": ("queries", "masks", "answers"),
    "spma1": ("queries", "masks", "blinding", "answers"),
    "spma2": ("queries", "storage", "aggregated", "blinding", "answers"),
}


@pytest.mark.parametrize("p", [None, 2 ** 61 - 1])
@pytest.mark.parametrize("variant", sorted(_BUILT_VECTORS))
def test_every_vector_a_run_builds_lies_in_the_field(variant, p):
    params = make_params(variant, 3, 6, t=1, p=p)
    rng = RandomSource(29)
    datasets = [PartyDataset(frozenset({1, 2, k})) for k in (3, 4, 6)]
    run = {"pma1": pma1.run, "spma1": spma1.run, "spma2": spma2.run}[variant](
        params, datasets, 2, rng)
    assert run.count == 3
    for name in _BUILT_VECTORS[variant]:
        value = getattr(run, name)
        if name == "queries":
            value = (value.noise, value.queries)
        leaves = list(_leaves(value))
        assert leaves, name
        assert all(type(x) is int and 0 <= x < params.p for x in leaves), name


@settings(max_examples=300)
@given(patched_configs())
@example({"variant": "spma1", "t": 1, "seed": 5, "theta": 2,
          "datasets": {"universe": ["b", "a"], "parties": [["a", "b"], ["b"], []]}})
@example(dict(BASES[0], seed=True))
@example(dict(BASES[4], gen_probs=False))
@example(dict(BASES[0], y=[False, 0]))
def test_any_json_config_runs_to_the_oracle_or_is_a_parameter_error(config):
    # parameter warnings (queries in the clear, idle databases) are recorded,
    # so that they cannot stop an accepted run; any other kind fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = RunConfig.from_dict(config)
            report = run_protocol(cfg)
        except ParameterError:
            report = None
    assert all(w.category is UserWarning for w in caught), caught
    if report is not None:
        check_accepted_run(config, report)
