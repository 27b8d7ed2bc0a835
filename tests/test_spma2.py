"""Type-II scheme: storage sharing, aggregation, global blinding, decode."""

import itertools

import pytest

from pma import audit, pma1, spma1, spma2
from pma.errors import IntegrityError, ParameterError
from pma.field import build_upsilon
from pma.model import (PartyDataset, RandomSource, generate_datasets, incidence,
                       make_params, true_count)
from pma.transcript import ANSWER, NOISE_SHARE, QUERY, STORAGE_SHARE
from tests.oracles import oracle_polynomial_expand, unit_vector

P1 = PartyDataset.from_members({1, 2, 3, 4, 5}, 5)
P2 = PartyDataset.from_members({2, 3, 4}, 5)


def params_small(**kw):
    defaults = dict(t=1, y=0)
    defaults.update(kw)
    return make_params("spma2", defaults.pop("m", 3), defaults.pop("e", 5), **defaults)


def test_effective_db_count_examples():
    assert params_small(e=2).n_eff == 3  # 1 + 1 + 1
    five = make_params("spma2", 3, 2, t=1, y=0, n=2)
    assert five.n_eff == 5  # 2 + 2 + 1 <= 6
    with pytest.warns(UserWarning):
        trivial = make_params("spma2", 2, 2, t=0, y=0)
    assert trivial.n_eff == trivial.n + 1


def test_storage_encode_zero_noise_replicates():
    params = params_small(e=3)
    bits = (1, 0, 1)
    enc = spma2.encode_storage(bits, params, audit._Cursor((0,) * (3 * params.storage_depth)))
    assert all(share == bits for share in enc.shares)


def test_storage_encode_direct_evaluation():
    # 1 + (1+1)^1 * 2 = 0 over GF(5)
    with pytest.warns(UserWarning, match="in the clear"):
        params = make_params("spma2", 2, 1, t=0, y=0, p=5, n=1)
    assert params.alphas_used == (1, 2)
    enc = spma2.encode_storage((1,), params, audit._Cursor((2,)))
    assert enc.shares[0] == (0,)


def test_storage_encode_reproducible():
    params = params_small()
    a = spma2.encode_storage((1, 0, 1, 1, 0), params, RandomSource(3))
    b = spma2.encode_storage((1, 0, 1, 1, 0), params, RandomSource(3))
    assert a == b


def test_storage_encode_noise_count_checked():
    # storage-depth noise vectors of length E, one share of length E per
    # participating database; a source that runs short is caught
    params = params_small(m=3, e=2, t=1, n=2)
    assert params.storage_depth == 2
    flat = tuple(range(1, 5))
    enc = spma2.encode_storage((1, 0), params, audit._Cursor(flat))
    assert enc.noise == (flat[0:2], flat[2:4])
    assert len(enc.shares) == params.n_eff and {len(s) for s in enc.shares} == {2}
    with pytest.raises(IntegrityError, match="past the 3 of its assignment"):
        spma2.encode_storage((1, 0), params, audit._Cursor(flat[:3]))


def test_aggregate_single_party():
    params = make_params("spma2", 2, 3, t=0, y=(1, 1), n=2)
    share = (1, 2, 0)
    assert spma2.aggregate([share, (0, 0, 0)], params) == share


def test_aggregate_zero_noise_componentwise_sum():
    params = make_params("spma2", 2, 5, t=0, y=(1, 1), n=2, p=11)
    a = incidence(P1, 5)
    b = incidence(P2, 5)
    assert spma2.aggregate([a, b], params) == (1, 2, 2, 2, 1)


def test_aggregate_missing_share_is_protocol_error():
    params = params_small()
    with pytest.raises(IntegrityError, match="one share per party"):
        spma2.aggregate([(0,) * 5], params)


@pytest.mark.parametrize("length", (4, 6, 0))
def test_aggregate_rejects_a_share_not_of_length_e(length):
    params = params_small()
    with pytest.raises(ParameterError, match=f"share length {length} != E=5"):
        spma2.aggregate([(0,) * 5, (0,) * 5, (0,) * length], params)


@pytest.mark.parametrize("bad", ["neg", "p", "float"])
def test_aggregate_rejects_non_elements(bad):
    params = params_small(e=2)
    value = {"neg": -1, "p": params.p, "float": 1.0}[bad]
    with pytest.raises(ParameterError):
        spma2.aggregate([(0, 1), (1, 0), (value, 0)], params)


def test_queries_zero_noise_and_mu():
    params = params_small(e=2)
    assert params.mu == 1  # max(N*T, Y) = max(1, 0)
    qs = spma2.gen_queries(1, params, audit._Cursor((0,) * (params.mu * params.e)))
    assert all(q == unit_vector(1, 2) for q in qs.queries)
    assert len(qs.queries) == params.n_eff


def test_queries_reproducible():
    params = params_small()
    assert spma2.gen_queries(2, params, RandomSource(6)) == \
        spma2.gen_queries(2, params, RandomSource(6))


def test_answer_degenerate_cases():
    params = params_small(e=2, p=7)
    assert params.alphas_used == (1, 2, 3) and params.blinding_depth == 2
    # all noise zero: every answer is the aggregated bit at theta
    assert spma2.answer(((2, 1),) * 3, ((1, 0),) * 3, (0, 0), params) == (2, 2, 2)
    # zero storage and query: only the blinding polynomial remains
    zp = (3, 4)
    expected = tuple((x * 3 + x * x * 4) % 7 for x in (2, 3, 4))  # x = 1 + alpha
    assert spma2.answer(((0, 0),) * 3, ((0, 0),) * 3, zp, params) == expected


def test_decode_round_trip_constant_coefficient():
    # answers = Upsilon_3 * (2, r1, r2): decode must return 2
    params = params_small(e=2, p=7)
    f = params.field
    ups = build_upsilon(f, params.alphas_used)
    answers = [f.dot(row, (2, 5, 1)) for row in ups]
    assert spma2.decode(list(answers), params) == 2


def test_decode_count_range_checked():
    params = params_small(e=2, p=7)
    f = params.field
    ups = build_upsilon(f, params.alphas_used)
    answers = [f.dot(row, (6, 0, 0)) for row in ups]
    with pytest.raises(IntegrityError, match="outside 0..3"):
        spma2.decode(list(answers), params)


def test_decode_requires_all_answers():
    params = params_small(e=2)
    with pytest.raises(ParameterError):
        spma2.decode([0, 0], params)


@pytest.mark.parametrize("bad", ["neg", "p", "float"])
def test_decode_rejects_non_element_answers(bad):
    params = params_small()
    value = {"neg": -1, "p": params.p, "float": 1.0}[bad]
    with pytest.raises(ParameterError):
        spma2.decode([0] * (params.n_eff - 1) + [value], params)


def test_paper_style_vectors():
    params = params_small(m=2, t=0, y=(1, 1))
    run = spma2.run(params, [P1, P2], 2, RandomSource(12))
    assert run.count == true_count(2, [P1, P2], 5) == 2


def test_correctness_exhaustive_tiny():
    params = make_params("spma2", 3, 2, t=1, y=0, p=5)
    for all_bits in itertools.product(itertools.product((0, 1), repeat=2), repeat=3):
        datasets = [PartyDataset(bits) for bits in all_bits]
        for theta in (1, 2):
            run = spma2.run(params, datasets, theta, RandomSource(theta))
            assert run.count == true_count(theta, datasets, 2)


def test_zero_count_case():
    params = params_small()
    run = spma2.run(params, [PartyDataset(bytes(5))] * 3, 3, RandomSource(0))
    assert run.count == 0


def test_degree_accounting_against_expansion_oracle():
    """The product of a storage polynomial and a query polynomial has
    exactly n_eff coefficients, constant term equal to the count, and its
    evaluations reproduce the unblinded answers."""
    params = params_small(e=3)
    rng = RandomSource(9)
    datasets = generate_datasets(params, 0.5, rng)
    theta = 2
    run = spma2.run(params, datasets, theta, rng)
    agg_bits = tuple(
        sum(incidence(d, params.e)[k] for d in datasets) % params.p
        for k in range(params.e))
    agg_noise = tuple(
        tuple(sum(enc.noise[l][k] for enc in run.storage) % params.p
              for k in range(params.e))
        for l in range(params.storage_depth))
    coeffs = oracle_polynomial_expand(
        [agg_bits, *agg_noise],
        [unit_vector(theta, params.e), *run.queries.noise], params.p)
    assert len(coeffs) == params.n_eff
    assert coeffs[0] == true_count(theta, datasets, params.e) % params.p
    assert spma2.answer(run.aggregated, run.queries.queries, run.blinding,
                        params) == run.answers
    unblinded = spma2.answer(run.aggregated, run.queries.queries, (), params)
    for n in range(params.n_eff):
        x = (1 + params.alphas_used[n]) % params.p
        value = 0
        for c in reversed(coeffs):
            value = (value * x + c) % params.p
        assert value == unblinded[n]


def test_idle_databases_receive_nothing():
    params = make_params("spma2", 3, 5, t=1, y=0, n=2)
    assert params.n_eff == 5
    run = spma2.run(params, [P1, P2, PartyDataset.from_members({1}, 5)], 1,
                    RandomSource(4))
    for ev in run.transcript.events:
        for name in (ev.sender, ev.receiver):
            if name.startswith("d"):
                assert int(name[1:]) <= params.n_eff


def test_transcript_symbol_counts():
    params = params_small(e=2)
    datasets = [PartyDataset(b"\1\0"), PartyDataset(b"\1\1"), PartyDataset(b"\0\0")]
    run = spma2.run(params, datasets, 1, RandomSource(0))
    n_eff, e, m = params.n_eff, params.e, params.m
    assert run.transcript.symbols_by_category() == {
        ANSWER: n_eff, QUERY: e * n_eff, NOISE_SHARE: n_eff - 1, STORAGE_SHARE: m * n_eff * e}


def test_noise_share_events_carry_no_values():
    datasets = [PartyDataset(b"\1\0"), PartyDataset(b"\1\1"), PartyDataset(b"\0\0")]
    runs = [pma1.run(make_params("pma1", 3, 2, t=1), datasets, 1, RandomSource(0)),
            spma1.run(make_params("spma1", 3, 2, t=1), datasets, 1, RandomSource(0)),
            spma2.run(params_small(e=2), datasets, 1, RandomSource(0))]
    billed = 0
    for run in runs:
        for ev in run.transcript.events:
            if ev.category == NOISE_SHARE:
                assert ev.values == (), ev
                billed += ev.symbols
    assert billed > 0


def test_run_validates_variant():
    params = make_params("pma1", 2, 5, t=1, y=0)
    with pytest.raises(ParameterError):
        spma2.run(params, [P1, P2], 1, RandomSource(0))


@pytest.mark.parametrize("count", (2, 4))
def test_run_needs_one_dataset_per_party(count):
    params = params_small()
    rng = RandomSource(0)
    with pytest.raises(ParameterError, match=f"expected 3 datasets, got {count}"):
        spma2.run(params, [P1, P2, P1, P2][:count], 1, rng)
    assert rng.position == 0  # refused before any draw
