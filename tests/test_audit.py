"""Coset audits: exact laws, positive claims, the sensitivity of every
audit to its designated broken scheme, and agreement with the exhaustive
enumeration oracle."""

import warnings
from fractions import Fraction

import pytest

from pma import audit
from pma.errors import AuditInfeasibleError, IntegrityError, ParameterError
from pma.harness import build_audit_suite
from pma.model import make_params, query_vectors
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
        return query_vectors(1, params.upsilon[:1], [assignment], params)[0]

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


def test_non_affine_view_raises_naming_point():
    with pytest.raises(IntegrityError, match=r"audit demo: .*not affine.*\[1, 1\]"):
        audit.coset_law(lambda a: (a[0] * a[1] % 3,), 2, 3, "demo")


def test_non_affine_scheme_fails_the_affinity_check(monkeypatch):
    def squared(theta, powers, noise_rows, params):
        return tuple(tuple(x * x % params.p for x in q)
                     for q in query_vectors(theta, powers, noise_rows, params))

    monkeypatch.setattr(audit, "query_vectors", squared)
    with pytest.raises(IntegrityError, match="audit query-privacy: .*point"):
        audit.audit_query_privacy(t1(), [1])


def test_cap_bounds_view_evaluations():
    # 2 secrets x (offset + 2 unit vectors + 3 affinity probes)
    assert audit.audit_query_privacy(t1(), [1], cap=12).passed
    with pytest.raises(AuditInfeasibleError, match="view evaluations"):
        audit.audit_query_privacy(t1(), [1], cap=11)


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
# collusion resistance

def test_query_privacy_passes_within_budget():
    result = audit.audit_query_privacy(t1(), [1])
    assert result.passed
    assert result.lemma == "lemma4"
    assert result.witness is None
    assert (result.secrets, result.dims) == (2, 2)


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


def test_zero_taps_vacuous_pass():
    assert audit.audit_eavesdropper(t1("pma1", t=0, y=1), []).passed


# ---------------------------------------------------------------------------
# inter-party dealing

def test_interparty_dealing_independent():
    assert audit.audit_interparty_dealing(t1("pma1")).passed


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
