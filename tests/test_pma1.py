"""Type-I scheme without symmetric privacy: queries, masks, answers, decode."""

import itertools

import pytest

from pma import audit, pma1
from pma.errors import IntegrityError, ParameterError
from pma.model import (PartyDataset, RandomSource, generate_datasets, incidence,
                       make_params, query_vectors, true_count)
from pma.transcript import ANSWER, MASK_SHARE, NOISE_SHARE, QUERY
from tests.oracles import oracle_polynomial_expand, unit_vector

P1 = PartyDataset.from_members({1, 2, 3, 4, 5}, 5)
P2 = PartyDataset.from_members({2, 3, 4}, 5)


def params_small(**kw):
    defaults = dict(t=1, y=0)
    defaults.update(kw)
    return make_params("pma1", defaults.pop("m", 2), defaults.pop("e", 5), **defaults)


def test_zero_noise_queries_are_unit_vectors():
    params = params_small()
    qs = pma1.gen_queries(3, params, audit._Cursor((0,) * (params.m * params.mu * params.e)))
    for i in range(params.m):
        for j in range(params.n):
            assert qs.queries[i][j] == unit_vector(3, params.e)


def test_query_vector_direct_evaluation():
    # e_1 + (1+1)^1 * (1,2) = (1,0) + (2,4) = (0,1) over GF(3), at the
    # Upsilon row (1, 2) of alpha = 1; the row (1, 1) of alpha = 0 gives
    # (1,0) + (1,2) = (2,2)
    params = make_params("pma1", 2, 2, t=1, y=0, p=3)
    assert params.upsilon == ((1, 2), (1, 1))
    assert query_vectors(1, [(1, 2)], params) == ((0, 1), (2, 2))


def test_queries_deterministic_per_seed():
    params = params_small()
    a = pma1.gen_queries(2, params, RandomSource(9))
    b = pma1.gen_queries(2, params, RandomSource(9))
    assert a == b


def test_masks_two_party_cancellation():
    params = params_small()
    masks = pma1.gen_masks(params, RandomSource(4))
    f = params.field
    assert masks[1] == tuple(-v % f.p for v in masks[0])


def test_masks_completion_example():
    # S3 = -(S1 + S2) = -(4, 0) = (1, 0) over GF(5)
    params = make_params("pma1", 3, 1, t=1, y=0, n=2, p=5)
    masks = pma1.gen_masks(params, audit._Cursor((1, 2, 3, 3)))
    assert masks == ((1, 2), (3, 3), (1, 0))


def test_masks_sum_to_zero_any_seed():
    params = params_small(m=4)
    f = params.field
    for seed in range(6):
        masks = pma1.gen_masks(params, RandomSource(seed))
        for j in range(params.n):
            assert sum(masks[i][j] for i in range(params.m)) % f.p == 0


def test_answer_examples():
    """A party's answers, one per database: member sum plus mask."""
    params = make_params("pma1", 2, 5, t=1, p=11)
    assert params.n == 2
    e1, e3 = unit_vector(1, 5), unit_vector(3, 5)
    assert pma1.answer((1, 1, 1, 1, 1), (e3, e1), (0, 0), (), params) == (1, 1)
    assert pma1.answer((0, 1, 1, 1, 0), (e1, e3), (0, 7), (), params) == (0, 8)
    assert pma1.answer((0, 1, 1, 1, 0), ((0,) * 5,) * 2, (7, 10), (), params) == (7, 10)
    # bytes queries are summed in byte lanes, to the same values
    assert pma1.answer(bytes((0, 1, 1, 1, 0)), (bytes(e1), bytes(e3)), (0, 7), (),
                       params) == (0, 8)


@pytest.mark.parametrize("form", (tuple, bytes))
def test_answer_refuses_bits_of_another_length(form):
    """Bits shorter or longer than the queries raise, in the tuple form as
    in the bytes form, instead of summing a truncated vector."""
    params = make_params("pma1", 2, 3, t=1, p=5)
    queries = (form((1, 2, 3)),) * params.n
    for bits in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ParameterError, match="vector length mismatch"):
            pma1.answer(form(bits), queries, (0,) * params.n, (), params)


def test_decode_paper_style_vectors():
    params = params_small()
    run = pma1.run(params, [P1, P2], 2, RandomSource(17))
    assert run.count == true_count(2, [P1, P2], 5) == 2


def test_decode_all_empty():
    params = params_small(m=3)
    empty = [PartyDataset(bytes(5))] * 3
    assert pma1.run(params, empty, 4, RandomSource(0)).count == 0


def test_decode_identity_when_no_budget():
    with pytest.warns(UserWarning):
        params = make_params("pma1", 2, 3, t=0, y=0)
    datasets = [PartyDataset.from_members({1, 3}, 3), PartyDataset.from_members({3}, 3)]
    run = pma1.run(params, datasets, 3, RandomSource(2))
    assert run.count == sum(incidence(d, 3)[2] for d in datasets) == 2


def test_decode_rejects_count_above_m():
    with pytest.warns(UserWarning):
        params = make_params("pma1", 2, 2, t=0, y=0, p=5)
    with pytest.raises(IntegrityError, match="outside 0..2"):
        pma1.decode([(4,), (0,)], params)


def test_decode_shape_check():
    params = params_small()
    with pytest.raises(ParameterError):
        pma1.decode([(0, 0)], params)


@pytest.mark.parametrize("bad", ["neg", "p", "float"])
def test_decode_rejects_non_element_answers(bad):
    params = params_small()
    value = {"neg": -1, "p": params.p, "float": 1.0}[bad]
    with pytest.raises(ParameterError):
        pma1.decode(((0, 0), (0, value)), params)


def test_answer_decomposition_against_expansion_oracle():
    """Each answer must evaluate the per-party polynomial whose constant
    coefficient is that party's bit, shifted by the mask."""
    params = params_small(m=3, t=2)
    rng = RandomSource(23)
    datasets = generate_datasets(params, 0.5, rng)
    theta = 4
    run = pma1.run(params, datasets, theta, rng)
    for i in range(params.m):
        bits = incidence(datasets[i], params.e)
        coeffs = oracle_polynomial_expand(
            [bits], [unit_vector(theta, params.e), *run.queries.noise[i]], params.p)
        assert coeffs[0] == bits[theta - 1]
        for j in range(params.n):
            x = (1 + params.alphas_used[j]) % params.p
            value = 0  # independent Horner evaluation
            for c in reversed(coeffs):
                value = (value * x + c) % params.p
            assert run.answers[i][j] == (value + run.masks[i][j]) % params.p


@pytest.mark.parametrize("variant", ["pma1", "spma1"])
def test_correctness_exhaustive_tiny(variant):
    params = make_params(variant, 2, 2, t=1, y=0, p=5)
    for bits_a in itertools.product((0, 1), repeat=2):
        for bits_b in itertools.product((0, 1), repeat=2):
            datasets = [PartyDataset(bits_a), PartyDataset(bits_b)]
            for theta in (1, 2):
                for seed in (0, 1):
                    run = pma1.run(params, datasets, theta, RandomSource(seed))
                    assert run.count == true_count(theta, datasets, 2)


def test_transcript_symbol_counts():
    params = params_small()
    run = pma1.run(params, [P1, P2], 1, RandomSource(3))
    tally = run.transcript.symbols_by_category()
    m, n, e = params.m, params.n, params.e
    assert tally == {ANSWER: m * n, QUERY: e * m * n, MASK_SHARE: (m - 1) * n}
    assert tally[NOISE_SHARE] == 0  # pma1 draws no blinding


def test_run_validates_inputs():
    params = params_small()
    with pytest.raises(ParameterError, match="expected 2 datasets"):
        pma1.run(params, [P1], 1, RandomSource(0))
    type2_params = make_params("spma2", 3, 5, t=1, y=0)
    with pytest.raises(ParameterError, match="type-I"):
        pma1.run(type2_params, [P1, P2, P2], 1, RandomSource(0))
