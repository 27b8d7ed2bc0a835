"""Symmetric type-I scheme: blinding noise, reduction to the plain scheme."""

import itertools

import pytest

from pma import pma1, spma1
from pma.errors import ParameterError
from pma.field import PrimeField, noise_pad_scalar
from pma.model import (PartyDataset, RandomSource, generate_datasets, make_params,
                       true_count, unit_vector)
from pma.transcript import MASK_SHARE, NOISE_SHARE, QUERY
from tests.oracles import members_of

P1 = PartyDataset(frozenset({1, 2, 3, 4, 5}))
P2 = PartyDataset(frozenset({2, 3, 4}))


def params_small(**kw):
    defaults = dict(t=1, y=0)
    defaults.update(kw)
    return make_params("spma1", defaults.pop("m", 2), defaults.pop("e", 5), **defaults)


def test_noise_shape():
    params = params_small(m=2)
    noise = spma1.draw_party_noise(params, RandomSource(0))
    assert len(noise) == 2
    assert all(len(row) == params.n - 1 for row in noise)
    assert all(0 <= v < params.p for row in noise for v in row)


def test_noise_empty_when_single_database():
    with pytest.warns(UserWarning):
        params = make_params("spma1", 2, 3, t=0, y=0)
    noise = spma1.draw_party_noise(params, RandomSource(0))
    assert noise == ((), ())


def test_noise_reproducible():
    params = params_small()
    assert spma1.draw_party_noise(params, RandomSource(5)) == \
        spma1.draw_party_noise(params, RandomSource(5))


def test_answer_reduces_to_unblinded_with_zero_noise():
    f = PrimeField(11)
    bits = (0, 1, 1, 1, 0)
    q = unit_vector(2, 5)
    powers = (1, 2)  # the Upsilon row at alpha = 1: (1+1)^0, (1+1)^1
    assert spma1.answer(bits, q, (0,), 3, powers, f) == pma1.answer(bits, q, 3, f)


def test_answer_direct_evaluation():
    # <P, e1> + (1+1)^1 * 2 = 1 + 4 = 0 over GF(5)
    f = PrimeField(5)
    assert spma1.answer((1, 0), (1, 0), (2,), 0, (1, 2), f) == 0


def test_answer_noise_only_passthrough():
    # with a zero query and mask, only the power-weighted noise remains
    f = PrimeField(7)
    zrow = (3, 5)
    x = 2  # 1 + alpha with alpha = 1
    expected = (x * 3 + x * x * 5) % 7
    assert spma1.answer((1, 1), (0, 0), zrow, 0, (1, x, x * x % 7), f) == expected


def test_decode_is_shared_with_plain_scheme():
    assert spma1.decode is pma1.decode


def test_paper_style_vectors_theta4():
    params = params_small()
    run = spma1.run(params, [P1, P2], 4, RandomSource(31))
    assert run.count == true_count(4, [P1, P2], 5) == 2


def test_all_empty_parties():
    params = params_small(m=3)
    run = spma1.run(params, [PartyDataset(frozenset())] * 3, 1, RandomSource(1))
    assert run.count == 0


def test_correctness_exhaustive_tiny():
    params = make_params("spma1", 2, 2, t=1, y=0, p=5)
    for bits_a in itertools.product((0, 1), repeat=2):
        for bits_b in itertools.product((0, 1), repeat=2):
            datasets = [members_of(bits_a), members_of(bits_b)]
            for theta in (1, 2):
                run = spma1.run(params, datasets, theta, RandomSource(theta))
                assert run.count == true_count(theta, datasets, 2)


def test_blinded_run_is_plain_run_plus_blinding():
    """Same seed: the symmetric run sends the plain run's queries and masks,
    decodes the same count, and each answer is the plain answer plus its
    party's power-weighted blinding."""
    for seed in range(5):
        pp = make_params("pma1", 3, 4, t=1, y=1)
        sp = make_params("spma1", 3, 4, t=1, y=1)
        datasets = generate_datasets(pp, 0.5, RandomSource(seed + 100))
        run_plain = pma1.run(pp, datasets, 2, RandomSource(seed))
        run_sym = spma1.run(sp, datasets, 2, RandomSource(seed))
        assert run_plain.count == run_sym.count
        assert [ev for ev in run_plain.transcript.events
                if ev.category in (QUERY, MASK_SHARE)] == \
            [ev for ev in run_sym.transcript.events
             if ev.category in (QUERY, MASK_SHARE)]
        for i, row in enumerate(run_sym.answers):
            for j, a in enumerate(row):
                pad = noise_pad_scalar(sp.field, 0, sp.upsilon[j], run_sym.blinding[i])
                assert a == (run_plain.answers[i][j] + pad) % sp.p


def test_blinding_changes_answers_but_not_count():
    params = params_small()
    plain_params = make_params("pma1", 2, 5, t=1, y=0)
    datasets = [P1, P2]
    blinded = spma1.run(params, datasets, 3, RandomSource(8))
    plain = pma1.run(plain_params, datasets, 3, RandomSource(8))
    assert blinded.count == plain.count
    assert blinded.answers != plain.answers  # nonzero blinding at this seed


def test_noise_share_billed_once():
    params = params_small()
    run = spma1.run(params, [P1, P2], 1, RandomSource(0))
    noise_events = [ev for ev in run.transcript.events if ev.category == NOISE_SHARE]
    assert len(noise_events) == 1
    assert noise_events[0].symbols == params.n - 1
    assert noise_events[0].values == ()


def test_run_validates_variant():
    params = make_params("pma1", 2, 5, t=1, y=0)
    with pytest.raises(ParameterError):
        spma1.run(params, [P1, P2], 1, RandomSource(0))
