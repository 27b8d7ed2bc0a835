"""Coset audits: exact laws, positive claims, the sensitivity of every
audit to its designated broken scheme, and agreement with the exhaustive
enumeration oracle."""

import sys
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pma import audit, model, pma1, spma1, spma2
from pma.errors import AuditInfeasibleError, IntegrityError, ParameterError
from pma.field import Upsilon
from pma.harness import RunConfig, build_audit_suite, run_audit_suite, run_protocol
from pma.model import RandomSource, SchemeParams, make_params, query_vectors
from tests.oracles import oracle_polynomial_expand


def t1(variant="pma1", **kw):
    defaults = dict(t=1, y=0, p=3)
    defaults.update(kw)
    return make_params(variant, 2, 2, **defaults)


def t2(**kw):
    defaults = dict(t=1, y=0, p=5)
    defaults.update(kw)
    return make_params("spma2", 3, 2, **defaults)


# ---------------------------------------------------------------------------
# the enumeration oracle itself

def test_enumerate_uniform_pad():
    # a single uniform mask symbol: exact one-time-pad pmf
    dist = audit.enumerate_distribution(lambda a: (a[0],), 1, 3)
    assert dist == {(0,): Fraction(1, 3), (1,): Fraction(1, 3), (2,): Fraction(1, 3)}


def test_enumerate_empty_view_point_mass():
    dist = audit.enumerate_distribution(lambda a: (), 0, 3)
    assert dist == {(): Fraction(1, 1)}


def test_enumerate_probabilities_sum_to_one_exactly():
    dist = audit.enumerate_distribution(lambda a: (sum(a) % 3,), 4, 3)
    assert sum(dist.values()) == Fraction(1, 1)


def test_enumerate_single_query_uniform():
    # one noisy query vector at depth 1 is an affine bijection of the noise
    params = t1()

    def view(assignment):
        return query_vectors(1, [assignment], params)[0]  # at the first point

    dist = audit.enumerate_distribution(view, 2, 3)
    assert len(dist) == 9
    assert set(dist.values()) == {Fraction(1, 9)}


def test_enumerate_cap():
    with pytest.raises(AuditInfeasibleError, match="assignments"):
        audit.enumerate_distribution(lambda a: (), 10, 3, cap=100)


# ---------------------------------------------------------------------------
# coset laws

def test_coset_canonical_form_ignores_spanning_set_and_offset_choice():
    a = audit.Coset(5, [(1, 2, 0), (0, 1, 1)], (3, 3, 3))
    # other generators of the same span, a zero column, and an offset
    # moved by a span element
    b = audit.Coset(5, [(1, 3, 1), (0, 0, 0), (2, 4, 0)], (3, 4, 4))
    assert a == b
    assert a.rank == 2
    assert a.offset[a.pivots[0]] == a.offset[a.pivots[1]] == 0


def test_coset_outside_names_a_separating_view():
    a = audit.Coset(5, [(1, 2, 0), (0, 1, 1)], (3, 3, 3))
    shifted = audit.Coset(5, [(1, 2, 0), (0, 1, 1)], (3, 3, 4))
    line = audit.Coset(5, [(1, 2, 0)], (3, 3, 3))
    assert a != shifted
    v = a.outside(shifted)
    assert v in a and v not in shifted
    assert line.outside(a) is None  # the line lies inside the plane
    v = a.outside(line)
    assert v in a and v not in line


def test_coset_law_refuses_a_view_whose_length_changes():
    # one symbol at zero, two at the second unit vector
    with pytest.raises(IntegrityError, match="audit demo: view length changes from 1 to 2 "
                                             "at unit vector 1"):
        audit.coset_law(lambda a: (a[0],) * (1 + a[1]), 2, 5, "demo")


def test_compare_all_witness_comes_from_the_larger_coset():
    # the line lies inside the plane: no view of the line is outside it, so
    # the witness is a view of the plane, which the line never gives
    plane = audit.Coset(5, [(1, 2, 0), (0, 1, 1)], (3, 3, 3))
    line = audit.Coset(5, [(1, 2, 0)], (3, 3, 3))
    for laws in ({"line": line, "plane": plane}, {"plane": plane, "line": line}):
        witness = audit._compare_all(laws)
        view = tuple(witness.pop("view"))
        assert view in plane and view not in line
        assert witness == {"config_a": "'plane'", "config_b": "'line'",
                           "prob_a": "1/25", "prob_b": "0"}


def test_non_affine_view_raises_naming_point():
    with pytest.raises(IntegrityError, match=r"audit demo: .*not affine.*\[1, 1\]"):
        audit.coset_law(lambda a: (a[0] * a[1] % 3,), 2, 3, "demo")


def test_non_affine_scheme_fails_the_affinity_check(monkeypatch):
    # the pad that pma1.gen_queries calls, so the shipped sampler goes non-affine
    def squared(theta, noise_rows, params):
        return tuple(tuple(x * x % params.p for x in q)
                     for q in query_vectors(theta, noise_rows, params))

    monkeypatch.setattr(pma1, "query_vectors", squared)
    with pytest.raises(IntegrityError, match="audit query-privacy: .*point"):
        audit.audit_query_privacy(t1(), [1])


def test_cap_bounds_view_evaluations():
    # 2 secrets x (offset + 4 unit vectors, both parties' noise, + 3 affinity probes)
    assert audit.audit_query_privacy(t1(), [1], cap=16).passed
    with pytest.raises(AuditInfeasibleError, match="view evaluations"):
        audit.audit_query_privacy(t1(), [1], cap=15)


def _affine_map(rows, p, calls, assignment):
    """The view ``row[0] + row[1:] . assignment`` mod p per row, counting its calls."""
    calls.append(assignment)
    return tuple((b + sum(map(mul, assignment, row))) % p for b, *row in rows)


@given(st.data())
def test_a_join_law_is_the_law_of_its_joined_view(data):
    """Assembled from its blocks' affine data, a join's law is coset_law of
    the concatenated view; each block is evaluated once per memo, and a
    block that is not affine raises as a whole view would."""
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11)), label="p")
    dims = data.draw(st.integers(0, 4), label="dims")
    row = st.lists(st.integers(0, p - 1), min_size=dims + 1, max_size=dims + 1)
    maps = data.draw(st.lists(st.lists(row, max_size=3), min_size=1, max_size=3), label="maps")
    calls = []
    blocks = tuple(partial(_affine_map, rows, p, calls) for rows in maps)
    memo = {}
    law = audit.coset_law(audit._Join(blocks, memo), dims, p, "demo")
    assert law == audit.coset_law(lambda a: sum((b(a) for b in blocks), ()), dims, p, "demo")
    calls.clear()
    assert audit.coset_law(audit._Join(blocks[::-1], memo), dims, p, "demo") == \
        audit.coset_law(lambda a: sum((b(a) for b in blocks[::-1]), ()), dims, p, "demo")
    assert len(calls) == len(blocks) * (dims + 4)  # the joined view's; the join read the memo
    broken = [k for k, rows in enumerate(maps) if rows]
    if dims >= 2 and broken:
        k = data.draw(st.sampled_from(broken), label="broken block")

        def bent(a):  # block k plus a0 * a1 on its first symbol
            first, *rest = blocks[k](a)
            return ((first + a[0] * a[1]) % p, *rest)

        join = audit._Join(blocks[:k] + (bent,) + blocks[k + 1:], {})
        with pytest.raises(IntegrityError, match=r"^audit demo: view is not affine"):
            audit.coset_law(join, dims, p, "demo")


class _Pmf:
    """An enumerated pmf behind the interface the comparison reads."""

    def __init__(self, view, dims, p):
        self.p = p
        self.dist = audit.enumerate_distribution(view, dims, p)
        self.rank = 0
        while p ** self.rank < len(self.dist):
            self.rank += 1

    def __eq__(self, other):
        return self.dist == other.dist

    def outside(self, other):
        return next((v for v, pr in self.dist.items()
                     if other.dist.get(v, 0) != pr), None)


def _recorded(case, monkeypatch, make_law):
    """Build ``case`` with ``make_law`` as the law; return the result, the
    laws in the order they were made and the last compared mapping."""
    laws, compared = [], []
    compare = audit._compare_all

    def law(view, dims, p, name):
        laws.append(make_law(view, dims, p, name))
        return laws[-1]

    def spy(mapping):
        compared.append(mapping)
        return compare(mapping)

    with monkeypatch.context() as patched, warnings.catch_warnings():
        patched.setattr(audit, "coset_law", law)
        patched.setattr(audit, "_compare_all", spy)
        warnings.simplefilter("ignore")
        result = case.build(audit.DEFAULT_CAP)
    return result, laws, compared[-1]


@pytest.mark.parametrize("case", build_audit_suite(), ids=lambda c: c.name)
def test_suite_case_matches_enumeration_oracle(case, monkeypatch):
    result, cosets, last = _recorded(case, monkeypatch, audit.coset_law)
    oracle, pmfs, oracle_last = _recorded(
        case, monkeypatch, lambda view, dims, p, name: _Pmf(view, dims, p))
    assert result.passed == oracle.passed == case.expect_pass
    assert (result.dims, result.rank, result.secrets, result.detail) == \
        (oracle.dims, oracle.rank, oracle.secrets, oracle.detail)
    assert len(cosets) == len(pmfs)
    assert len(cosets) == result.secrets  # every law went through coset_law
    # each law is uniform on exactly the enumerated support
    for law, pmf in zip(cosets, pmfs):
        assert set(pmf.dist.values()) == {Fraction(1, law.p ** law.rank)}
        assert len(pmf.dist) == law.p ** law.rank
        assert all(key in law for key in pmf.dist)
    if result.witness is not None:
        labels = {repr(k): k for k in last}
        w = result.witness
        view = tuple(w["view"])
        dist_a = oracle_last[labels[w["config_a"]]].dist
        dist_b = oracle_last[labels[w["config_b"]]].dist
        assert dist_a.get(view, 0) == Fraction(w["prob_a"]) > 0
        assert w["prob_b"] == "0" and view not in dist_b


# ---------------------------------------------------------------------------
# parameters the enumeration oracle cannot reach at its default cap

@pytest.mark.parametrize("run,passes", [
    pytest.param(
        lambda: audit.audit_eavesdropper(make_params("spma2", 4, 3, y=1, p=101), [1]),
        True, id="eavesdropper:spma2 M=4 E=3 Y=1"),
    pytest.param(
        lambda: audit.audit_blind_estimation(make_params("spma1", 3, 2, t=1, p=101)),
        True, id="blind-estimation:spma1 M=3 E=2 T=1"),
    pytest.param(
        lambda: audit.audit_query_privacy(make_params("pma1", 4, 4, t=1, p=101), [1]),
        True, id="query-privacy:pma1 M=4 E=4 T=1 one tap"),
    pytest.param(
        lambda: audit.audit_query_privacy(make_params("pma1", 4, 4, t=1, p=101), [1, 2]),
        False, id="query-privacy:pma1 M=4 E=4 T=1 two taps"),
])
def test_beyond_enumeration(run, passes):
    result = run()
    assert result.passed is passes
    assert 101 ** result.dims > audit.DEFAULT_CAP
    assert (result.witness is None) is passes


# ---------------------------------------------------------------------------
# type-I lemmas 1 and 2 at four parties, a reach no suite case has

def _four_parties(variant):
    """``variant`` at M=4, E=2, T=1 with the derived N = 2 and p = 11."""
    params = make_params(variant, 4, 2, t=1)
    assert (params.n, params.p) == (2, 11)
    return params


@pytest.mark.parametrize("run,passes,secrets", [
    pytest.param(lambda: audit.audit_blind_estimation(_four_parties("spma1")), True, 448,
                 id="blind-estimation:spma1"),
    pytest.param(lambda: audit.audit_blind_estimation(_four_parties("spma1"),
                                                      zero_masks=True), False, None,
                 id="blind-estimation:spma1 zero masks"),
    pytest.param(lambda: audit.audit_symmetric_privacy(_four_parties("spma1")), True, 512,
                 id="symmetric-privacy:spma1"),
    pytest.param(lambda: audit.audit_symmetric_privacy(_four_parties("spma1"),
                                                       zero_blinding=True), False, None,
                 id="symmetric-privacy:spma1 zero blinding"),
    pytest.param(lambda: audit.audit_symmetric_privacy(_four_parties("pma1")), False, None,
                 id="symmetric-privacy:pma1"),
])
def test_type1_lemmas_1_and_2_at_four_parties(run, passes, secrets):
    result = run()
    assert result.passed is passes
    assert (result.witness is None) is passes
    if passes:
        assert result.secrets == secrets


# ---------------------------------------------------------------------------
# type II at N = 2, a shape no suite case has

def _n2(**kw):
    """spma2 at M=3, E=2, N=2, T=1, p=11: query noise T*N = 2, storage
    noise T2*N = 2, n_eff = 5."""
    return make_params("spma2", 3, 2, t=1, n=2, p=11, **kw)


@pytest.mark.parametrize("run,passes", [
    pytest.param(lambda: audit.audit_query_privacy(_n2(), [1, 2]), True,
                 id="query-privacy T*N=2 taps"),
    pytest.param(lambda: audit.audit_query_privacy(_n2(), [1, 2, 3]), False,
                 id="query-privacy 3 taps"),
    pytest.param(lambda: audit.audit_storage_security(_n2()), True,
                 id="storage-security T2*N=2 shares"),
    pytest.param(lambda: audit.audit_storage_security(_n2(), subset_size=3), False,
                 id="storage-security 3 shares"),
    pytest.param(lambda: audit.audit_symmetric_privacy(_n2()), True,
                 id="symmetric-privacy"),
    pytest.param(lambda: audit.audit_eavesdropper(_n2(y=1), [1]), True,
                 id="eavesdropper Y=1 one tap"),
])
def test_type2_audits_at_two_databases_per_party(run, passes):
    params = _n2()
    assert (params.mu, params.storage_depth, params.n_eff) == (2, 2, 5)
    result = run()
    assert result.passed is passes
    assert (result.witness is None) is passes


def test_type2_query_noise_without_the_factor_n_fails_query_privacy(monkeypatch):
    """Type-II query noise of depth max(T, Y), without the factor N, lets
    the T*N = 2 pooled databases of this shape read the index."""
    monkeypatch.setattr(SchemeParams, "mu",
                        property(lambda params: max(params.t, max(params.y))))
    params = _n2()
    assert (params.mu, params.n_eff) == (1, 4)
    assert not audit.audit_query_privacy(params, [1, 2]).passed


# ---------------------------------------------------------------------------
# type-I collusion at T = 2, a depth no suite case has

def _t2_collusion(variant):
    """``variant`` at M=2, E=2, T=2, p=5: query noise depth 2, N = 3."""
    return make_params(variant, 2, 2, t=2, p=5)


@pytest.mark.parametrize("variant", ["pma1", "spma1"])
@pytest.mark.parametrize("taps,passes", [([1, 2], True), ([1, 2, 3], False)],
                         ids=("T=2 taps", "3 taps"))
def test_type1_query_privacy_at_two_colluders(variant, taps, passes):
    params = _t2_collusion(variant)
    assert (params.n, params.mu) == (3, 2)
    result = audit.audit_query_privacy(params, taps)
    assert result.passed is passes
    assert (result.witness is None) is passes


def test_query_pad_that_weights_every_noise_row_by_x_fails_only_at_depth_two(monkeypatch):
    """A query pad that weights every noise row by x^1 rather than by
    x^1..x^mu is exact at depth 1, so every suite case passes; two
    colluders at T = 2 see e_theta + x * (N_1 + N_2) at two points and
    read the index."""
    pad = model.noise_pad_vector

    def first_power(upsilon, base, noise_rows):
        summed = [tuple(sum(column) % upsilon.p for column in zip(*noise_rows))]
        return pad(upsilon, base, summed if noise_rows else ())

    monkeypatch.setattr(model, "noise_pad_vector", first_power)
    assert run_audit_suite("all")["all_ok"] is True
    for variant in ("pma1", "spma1"):
        assert not audit.audit_query_privacy(_t2_collusion(variant), [1, 2]).passed


# ---------------------------------------------------------------------------
# collusion resistance

def test_query_privacy_passes_within_budget():
    result = audit.audit_query_privacy(t1(), [1])
    assert result.passed
    assert result.lemma == "lemma4"
    assert result.witness is None
    # gen_queries draws both parties' noise; party 1's taps read half of it
    assert (result.secrets, result.dims, result.rank) == (2, 4, 2)


def test_query_privacy_type2_budget():
    result = audit.audit_query_privacy(t2(), [1])
    assert result.passed
    assert result.lemma == "lemma3"


def test_query_privacy_unprotected_fails_with_witness():
    with pytest.warns(UserWarning):
        params = make_params("pma1", 2, 2, t=0, y=0, p=3)
    result = audit.audit_query_privacy(params, [1])
    assert not result.passed
    # the leaked view is the bare unit vector
    assert result.witness["view"] in ([1, 0], [0, 1])


def test_query_privacy_type2_overbudget_fails():
    assert not audit.audit_query_privacy(t2(), [1, 2]).passed


def test_query_privacy_rejects_bad_db_index():
    with pytest.raises(ParameterError):
        audit.audit_query_privacy(t1(), [3])


@pytest.mark.parametrize("build,match", [
    (lambda: audit.audit_query_privacy(t1(), [1, 1]),
     r"database index 1 named twice in \[1, 1\]"),
    (lambda: audit.audit_query_privacy(t2(), [2, 1, 2]), "database index 2 named twice"),
    (lambda: audit.audit_eavesdropper(t1("pma1", t=0, y=1), [2, 2], zero_masks=True),
     "database index 2 named twice"),
    (lambda: audit.audit_eavesdropper(t1("pma1", t=0, y=1), [True]),
     r"database index True outside 1\.\.2"),
], ids=["query-repeated-tap", "type2-query-repeated-tap", "eavesdropper-repeated-tap",
        "eavesdropper-bool-tap"])
def test_audits_refuse_repeated_and_bool_taps(build, match):
    # a repeated tap audits fewer databases than it names, and a bool is
    # not an index, though it compares equal to one
    with pytest.raises(ParameterError, match=match):
        build()


# ---------------------------------------------------------------------------
# blind estimation

def test_blind_estimation_passes_both_type1_variants():
    assert audit.audit_blind_estimation(t1("pma1")).passed
    assert audit.audit_blind_estimation(t1("spma1")).passed


def test_blind_estimation_zero_masks_fails():
    result = audit.audit_blind_estimation(t1("pma1"), zero_masks=True)
    assert not result.passed
    assert result.witness is not None


def test_blind_estimation_rejects_type2():
    with pytest.raises(ParameterError):
        audit.audit_blind_estimation(t2())


# ---------------------------------------------------------------------------
# symmetric privacy

def test_symmetric_privacy_spma1_passes():
    assert audit.audit_symmetric_privacy(t1("spma1")).passed


def test_symmetric_privacy_spma2_passes():
    assert audit.audit_symmetric_privacy(t2()).passed


def test_symmetric_privacy_pma1_fails():
    # the unblinded scheme leaks non-queried contents through interference
    assert not audit.audit_symmetric_privacy(t1("pma1")).passed


def test_symmetric_privacy_zero_blinding_fails():
    assert not audit.audit_symmetric_privacy(t1("spma1"), zero_blinding=True).passed
    assert not audit.audit_symmetric_privacy(t2(), zero_blinding=True).passed


def test_blinding_kernel_that_drops_its_deepest_scalar_fails_symmetric_privacy(monkeypatch):
    """Runs and audit views blind through one kernel, so a broken kernel
    reaches both: the runs still decode, since blinding touches only the
    non-constant coefficients, and the lemma-1 audit fails."""
    blind = Upsilon.blind
    monkeypatch.setattr(Upsilon, "blind", lambda ups, scalars: blind(ups, scalars[:-1]))
    for config in (RunConfig("spma1", m=3, e=4, t=2, seed=11),
                   RunConfig("spma2", m=4, e=3, t=1, seed=11)):
        report = run_protocol(config)  # raises on a count that is not the oracle's
        assert [r["count"] for r in report["results"]] == \
            [r["oracle_count"] for r in report["results"]]
    report = run_audit_suite("symmetric-privacy:spma1")
    assert [(c["name"], c["verdict"]) for c in report["cases"]] == \
        [("symmetric-privacy:spma1", "fail")]


_DECODED = (RunConfig("pma1", m=3, e=4, t=1, seed=11),
            RunConfig("spma1", m=3, e=4, t=2, seed=11),
            RunConfig("spma2", m=4, e=3, t=1, seed=11))


@pytest.mark.parametrize("broken,variants,failing", [
    ("masks", {"pma1", "spma1"},
     {"blind-estimation:pma1", "blind-estimation:spma1", "symmetric-privacy:spma1",
      "eavesdropper:pma1"}),
    ("type-I blinding", {"spma1"}, {"symmetric-privacy:spma1"}),
    ("type-II blinding", {"spma2"}, {"symmetric-privacy:spma2", "eavesdropper:spma2"}),
])
def test_answers_without_masks_or_blinding_decode_and_fail_their_audits(
        monkeypatch, broken, variants, failing):
    """Runs and audit views answer through pma1.answer and spma2.answer, so
    an answer that drops its masks or its blinding reaches both. The runs
    still decode every count, since masks cancel in the aligned sums and
    blinding touches only the non-constant coefficients; they send other
    answers, and the audits of the lemmas that rest on what was dropped
    fail."""
    intact = [run_protocol(config) for config in _DECODED]
    answer1, answer2 = pma1.answer, spma2.answer
    if broken == "masks":
        monkeypatch.setattr(pma1, "answer", lambda bits, queries, mask, blinding, params:
                            answer1(bits, queries, (0,) * len(mask), blinding, params))
    elif broken == "type-I blinding":
        monkeypatch.setattr(pma1, "answer", lambda bits, queries, mask, blinding, params:
                            answer1(bits, queries, mask, (), params))
    else:
        monkeypatch.setattr(spma2, "answer", lambda aggregated, queries, blinding, params:
                            answer2(aggregated, queries, (), params))
    _assert_decodes_and_fails(intact, variants, failing)


def _assert_decodes_and_fails(intact, variants, failing):
    """The seeded runs still decode every count, the runs of ``variants``
    send other transcripts than ``intact``, and exactly the ``failing``
    positive suite cases fail."""
    for config, before in zip(_DECODED, intact):
        report = run_protocol(config)  # raises on a count that is not the oracle's
        assert [r["count"] for r in report["results"]] == \
            [r["oracle_count"] for r in before["results"]]
        digests = [[r["transcript_digest"] for r in rep["results"]]
                   for rep in (report, before)]
        assert (digests[0] != digests[1]) == (config.variant in variants), config.variant
    report = run_audit_suite("positive")
    assert {c["name"] for c in report["cases"] if c["verdict"] == "fail"} == failing


class _RowShort:
    """A source whose every ``rows`` call draws one row fewer than asked."""

    def __init__(self, rng):
        self.rng = rng

    def rows(self, modulus, r, k):
        return self.rng.rows(modulus, r - 1, k)


def _row_short(gen_queries):
    """``gen_queries`` padding with one query-noise row fewer."""
    return lambda theta, params, rng: gen_queries(theta, params, _RowShort(rng))


@pytest.mark.parametrize("scheme,sampler,broken,variants,failing", [
    (pma1, "gen_queries", _row_short(pma1.gen_queries),
     {"pma1", "spma1"}, {"query-privacy:pma1", "query-privacy:spma1"}),
    (spma2, "gen_queries", _row_short(spma2.gen_queries),
     {"spma2"}, {"query-privacy:spma2", "eavesdropper:spma2"}),
    (pma1, "draw_party_noise", lambda params, rng: ((),) * params.m,
     {"spma1"}, {"symmetric-privacy:spma1"}),
    (spma2, "draw_global_noise", lambda params, rng: (),
     {"spma2"}, {"symmetric-privacy:spma2", "eavesdropper:spma2"}),
    (pma1, "gen_masks", lambda params, rng: ((0,) * params.n,) * params.m,
     {"pma1", "spma1"},
     {"blind-estimation:pma1", "blind-estimation:spma1", "symmetric-privacy:spma1"}),
], ids=("pma1 queries one noise row short", "spma2 queries one noise row short",
        "no type-I blinding drawn", "no type-II blinding drawn", "zero masks dealt"))
def test_broken_samplers_decode_and_fail_their_audits(
        monkeypatch, scheme, sampler, broken, variants, failing):
    """Runs and audit views draw their query noise, masks and blinding
    through the same samplers, so a sampler that draws too little reaches
    both: the runs still decode every count, and the audits of the lemmas
    that rest on the missing draw fail."""
    intact = [run_protocol(config) for config in _DECODED]
    monkeypatch.setattr(scheme, sampler, broken)
    _assert_decodes_and_fails(intact, variants, failing)


# the modules of the schemes' samplers, the only code that may draw from a
# view's cursor
_SAMPLERS = ("pma.pma1", "pma.spma2")


def test_every_suite_view_draws_exactly_its_dims_symbols(monkeypatch):
    """Each view of every suite case draws its whole assignment, the dims
    symbols its case reports: a dims formula that over-declares would
    leave symbols that no view reads. A view without randomness may read
    a fixed realization in their place. Views share one draw per
    evaluation point within an audit call, so a view call makes at most
    one cursor, each cursor is drawn to its end and equals the assignment
    of the call that made it, and every assignment a law evaluates is
    drawn in full by some cursor of its case. The check wraps what the
    suite's laws evaluate: each block of a join, once per audit call, and
    every other view whole; each of a case's ``secrets`` laws must have
    had all of its blocks checked.

    Every draw comes from a pma1 or spma2 sampler, directly or through
    RandomSource.rows, so no view drifts back to drawing by itself. The
    one exception is lemma 6's type-I view: it draws party 1's share
    alone, since the full-round samplers would add party 2's noise to dims
    and pad twice per evaluation, and lemmas 4, 2 and 1 certify them."""
    made, self_drawn, case = [], set(), None
    evaluated, drawn = set(), set()  # assignments of the case's laws, and of its cursors

    class Spy(audit._Cursor):
        def __init__(self, flat):
            super().__init__(flat)
            made.append(self)

        def draw_vector(self, modulus, k):
            caller = sys._getframe(1)
            if caller.f_code is RandomSource.rows.__code__:  # on its way from a sampler
                caller = caller.f_back
            if caller.f_globals["__name__"] not in _SAMPLERS:
                self_drawn.add(case.name)
            return super().draw_vector(modulus, k)

    affine, coset_law = audit._affine, audit.coset_law
    checked_views, laws = set(), []  # views the check saw; per law, whether it saw them all

    def checked_affine(view, dims, p, name):  # each block of a join, or a whole view
        def checked(assignment):
            made.clear()
            out = view(assignment)
            assert len(made) <= 1, name
            for cursor in made:
                assert cursor.i == len(cursor.flat), name
                assert cursor.flat == assignment or not dims, name
                drawn.add(assignment)
            if dims:
                evaluated.add(assignment)
            return out
        data = affine(checked, dims, p, name)
        checked_views.add(view)
        return data

    def counted_law(view, dims, p, name):
        law = coset_law(view, dims, p, name)
        laws.append(set(getattr(view, "blocks", (view,))) <= checked_views)
        return law

    monkeypatch.setattr(audit, "_Cursor", Spy)
    monkeypatch.setattr(audit, "_affine", checked_affine)
    monkeypatch.setattr(audit, "coset_law", counted_law)
    cases = build_audit_suite()
    assert len(cases) == 23
    for case in cases:
        evaluated.clear()
        drawn.clear()
        laws.clear()
        result = case.build(audit.DEFAULT_CAP)
        assert result.passed is case.expect_pass, case.name
        assert evaluated <= drawn, case.name
        assert laws == [True] * result.secrets, case.name
    assert self_drawn == {c.name for c in cases if c.lemma == "lemma6"}


def test_blind_estimation_draws_queries_once_per_evaluation_point_and_theta(monkeypatch):
    """Lemma 2's laws share one draw per (assignment, theta): gen_queries
    runs dims + 4 times for each theta, not once per law and point. A
    draw keyed without theta would pass every lemma-2 case and fail here."""
    params = make_params("pma1", 2, 2, t=1, p=3)
    calls = Counter()
    gen_queries = pma1.gen_queries

    def counted(theta, params, rng):
        calls[theta] += 1
        return gen_queries(theta, params, rng)

    monkeypatch.setattr(pma1, "gen_queries", counted)
    result = audit.audit_blind_estimation(params)
    assert result.passed and result.dims + 4 == 10
    assert calls == {1: 10, 2: 10}


@pytest.mark.parametrize("build,variant,answers", [
    (audit.audit_blind_estimation, "pma1", 160),
    (audit.audit_blind_estimation, "spma1", 192),
    (audit.audit_symmetric_privacy, "spma1", 128),
], ids=("blind-estimation:pma1", "blind-estimation:spma1", "symmetric-privacy:spma1"))
def test_type1_answer_laws_answer_once_per_party_row_and_point(monkeypatch, build, variant,
                                                               answers):
    """The type-I laws of lemmas 1 and 2 join one block per (theta or
    realization, party, row): pma1.answer runs once per block and
    evaluation point, 2 * M * 2^E = 16 blocks here, not once per law,
    party and point."""
    params = make_params(variant, 2, 2, t=1, p=3)
    calls = []
    answer = pma1.answer

    def counted(*args):
        calls.append(args[0])
        return answer(*args)

    monkeypatch.setattr(pma1, "answer", counted)
    result = build(params)
    assert result.passed
    assert len(calls) == 16 * (result.dims + 4) == answers


def test_symmetric_privacy_single_element_vacuous():
    params = make_params("spma1", 2, 1, t=1, y=0, p=3)
    assert audit.audit_symmetric_privacy(params).passed


# ---------------------------------------------------------------------------
# storage security

def test_storage_security_passes():
    assert audit.audit_storage_security(t2()).passed


def test_storage_security_minimal_field():
    with pytest.warns(UserWarning, match="in the clear"):
        params = make_params("spma2", 2, 1, t=0, y=0, p=3)
    result = audit.audit_storage_security(params)
    assert result.passed


def test_storage_security_zero_noise_fails():
    assert not audit.audit_storage_security(t2(), zero_storage_noise=True).passed


def test_storage_security_overbudget_fails():
    params = t2()
    result = audit.audit_storage_security(params,
                                          subset_size=params.storage_depth + 1)
    assert not result.passed


def test_storage_audit_sizes_its_subset_from_the_threat_model(monkeypatch):
    """An encoding whose noise depth drops the factor N cannot shrink its
    own default audit: the subset stays at T2*N shares, and fails."""
    monkeypatch.setattr(SchemeParams, "storage_depth", property(lambda params: params.t2))
    params = _n2()
    assert (params.storage_depth, params.n_eff) == (1, 4)
    result = audit.audit_storage_security(params)
    assert not result.passed
    assert result.detail["subset_size"] == 2


def test_storage_security_rejects_subset_sizes_outside_1_to_n_eff():
    params = t2()
    for size in (0, params.n_eff + 1, True):  # a bool is not a size
        with pytest.raises(ParameterError, match=f"share subset size {size} outside "
                                                 f"1..{params.n_eff}"):
            audit.audit_storage_security(params, subset_size=size)


def test_storage_security_rejects_type1():
    with pytest.raises(ParameterError):
        audit.audit_storage_security(t1())


# ---------------------------------------------------------------------------
# eavesdropper security

def test_eavesdropper_type1_passes():
    params = t1("pma1", t=0, y=1)
    assert audit.audit_eavesdropper(params, [1]).passed
    params = t1("spma1", t=0, y=1)
    assert audit.audit_eavesdropper(params, [2]).passed


def test_eavesdropper_type2_passes():
    assert audit.audit_eavesdropper(t2(y=1), [1]).passed


def test_eavesdropper_overbudget_fails():
    params = t1("pma1", t=0, y=1)
    result = audit.audit_eavesdropper(params, [1, 2], zero_masks=True)
    assert not result.passed


def test_eavesdropper_type2_overbudget_fails():
    assert not audit.audit_eavesdropper(t2(y=1), [1, 2, 3]).passed


def test_eavesdropper_type2_refuses_zero_masks():
    # type-II answers carry no masks, so the type-I control switch is refused
    params = make_params("spma2", 3, 2, t=1, y=1, p=5)
    with pytest.raises(ParameterError, match="zero_masks applies to the type-I"):
        audit.audit_eavesdropper(params, [1], zero_masks=True)


def test_cursor_draws_in_order_and_not_past_its_assignment():
    # the schemes' samplers draw from it as from a RandomSource
    params = t1("spma1")
    flat = tuple(range(3)) * 4
    cursor = audit._Cursor(flat)
    queries = pma1.gen_queries(1, params, cursor)
    assert queries.noise == ((flat[0:2],), (flat[2:4],))
    assert pma1.gen_masks(params, cursor) == (flat[4:6], tuple(-v % 3 for v in flat[4:6]))
    assert spma1.draw_party_noise(params, cursor) == (flat[6:7], flat[7:8])
    assert cursor.draw_vector(3, 4) == flat[8:12]
    with pytest.raises(IntegrityError, match="past the 12 of its assignment"):
        cursor.draw_vector(3, 1)
    # type II, in spma2.run's order: each party's storage noise, the query
    # noise, the global blinding; seeded reports rely on this order
    params = t2()
    depth, mu, blind = params.storage_depth, params.mu, params.blinding_depth
    assert (params.m, params.e, depth, mu, blind) == (3, 2, 1, 1, 2)
    flat = tuple(range(5)) * 2
    cursor = audit._Cursor(flat)
    assert [spma2.encode_storage((1, 0), params, cursor).noise for _ in range(3)] == \
        [(flat[0:2],), (flat[2:4],), (flat[4:6],)]
    assert spma2.gen_queries(1, params, cursor).noise == (flat[6:8],)
    assert spma2.draw_global_noise(params, cursor) == flat[8:10]
    with pytest.raises(IntegrityError, match="past the 10 of its assignment"):
        cursor.draw_vector(5, 1)


def test_zero_taps_vacuous_pass():
    assert audit.audit_eavesdropper(t1("pma1", t=0, y=1), []).passed


# ---------------------------------------------------------------------------
# inter-party dealing

def test_interparty_dealing_independent():
    assert audit.audit_interparty_dealing(t1("pma1")).passed


def test_interparty_dealing_rejects_type2():
    with pytest.raises(ParameterError, match="applies to the type-I variants"):
        audit.audit_interparty_dealing(t2())


# ---------------------------------------------------------------------------
# expansion oracle

def test_expand_degree_additivity():
    lhs = [(1, 0), (2, 1)]  # degree 1
    rhs = [(0, 1), (1, 1), (3, 0)]  # degree 2
    assert len(oracle_polynomial_expand(lhs, rhs, 7)) == 4


def test_expand_noise_free_single_coefficient():
    assert oracle_polynomial_expand([(1, 1, 0)], [(0, 1, 0)], 7) == (1,)


def test_expand_matches_evaluate_interpolate():
    # independent oracle: evaluate the product at three points, then
    # interpolate back through the exact solver
    from pma.field import PrimeField, build_upsilon, solve_linear
    f = PrimeField(7)
    lhs = [(2, 3), (1, 5)]
    rhs = [(4, 1), (0, 6)]
    coeffs = oracle_polynomial_expand(lhs, rhs, 7)
    alphas = (1, 2, 3)
    evals = []
    for a in alphas:
        x = (1 + a) % 7
        lhs_at = tuple((lhs[0][k] + x * lhs[1][k]) % 7 for k in range(2))
        rhs_at = tuple((rhs[0][k] + x * rhs[1][k]) % 7 for k in range(2))
        evals.append(f.dot(lhs_at, rhs_at))
    ups = build_upsilon(f, alphas)
    assert tuple(solve_linear(f, ups, evals)) == coeffs


def test_expand_rejects_empty():
    with pytest.raises(ParameterError):
        oracle_polynomial_expand([], [(1,)], 7)


# ---------------------------------------------------------------------------
# determinism and reporting

def test_audit_results_deterministic():
    a = audit.audit_query_privacy(t1(), [1])
    b = audit.audit_query_privacy(t1(), [1])
    assert a == b


def test_audit_result_shape():
    result = audit.audit_storage_security(t2())
    assert result.passed and result.witness is None
    assert result.lemma == "lemma5"
    assert result.detail["variant"] == "spma2"
    assert result.secrets > 0
    assert 0 < result.rank <= result.dims
