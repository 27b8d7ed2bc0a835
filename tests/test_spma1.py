"""Symmetric type-I scheme: blinding noise, reduction to the plain scheme."""

from contextlib import nullcontext

import pytest

from pma import pma1, spma1
from pma.errors import ParameterError
from pma.field import PrimeField, noise_pad_scalar
from pma.model import (PartyDataset, RandomSource, generate_datasets, incidence,
                       make_params, true_count)
from pma.transcript import MASK_SHARE, NOISE_SHARE, QUERY
from tests.oracles import unit_vector

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


def test_run_and_blinding_draw_are_the_plain_schemes():
    """One type-I run: spma1 re-exports pma1's, by identity, so a wrapper
    installed on either name is the one that runs."""
    assert spma1.run is pma1.run
    assert spma1.draw_party_noise is pma1.draw_party_noise


def test_paper_style_vectors_theta4():
    params = params_small()
    run = spma1.run(params, [P1, P2], 4, RandomSource(31))
    assert run.count == true_count(4, [P1, P2], 5) == 2


def test_all_empty_parties():
    params = params_small(m=3)
    run = spma1.run(params, [PartyDataset(frozenset())] * 3, 1, RandomSource(1))
    assert run.count == 0


def test_depth_zero_run_is_plain_run():
    """At T=0 (N=1) the blinding depth is 0: the symmetric run draws and
    bills nothing more than the plain run on the same seed."""
    with pytest.warns(UserWarning, match="in the clear"):
        sp = make_params("spma1", 3, 5, t=0, y=0)
        pp = make_params("pma1", 3, 5, t=0, y=0)
    assert sp.blinding_depth == 0
    datasets = generate_datasets(pp, 0.5, RandomSource(40))
    rng_sym, rng_plain = RandomSource(4), RandomSource(4)
    sym = spma1.run(sp, datasets, 2, rng_sym)
    plain = pma1.run(pp, datasets, 2, rng_plain)
    assert sym.answers == plain.answers and sym.count == plain.count
    assert rng_sym.position == rng_plain.position
    assert sym.blinding == ((),) * 3
    assert not [ev for ev in sym.transcript.events if ev.category == NOISE_SHARE]


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


@pytest.mark.parametrize("m,e,t,p", [
    (2, 2, 63, 131),  # the collusion-wide shape: deep blinding, packed
    (3, 5, 2, 2 ** 61 - 1),  # packed, with slots wider than a machine word
    (2, 3, 0, None),  # N=1: no blinding scalars at all
])
def test_packed_blinding_matches_scalar_reference(m, e, t, p):
    """run pads a party's blinding at every point in one call; each answer
    is still the plain answer plus the scalar pad of its Upsilon row."""
    with pytest.warns(UserWarning, match="in the clear") if t == 0 else nullcontext():
        params = make_params("spma1", m, e, t=t, p=p)
    f, ups = params.field, params.upsilon
    datasets = generate_datasets(params, 0.5, RandomSource(7))
    run = spma1.run(params, datasets, 1, RandomSource(3))
    assert run.count == true_count(1, datasets, e)
    assert params.n == len(ups) == t + 1 and {len(z) for z in run.blinding} == {t}
    for i, d in enumerate(datasets):
        bits = incidence(d, e)
        for j, a in enumerate(run.answers[i]):
            plain = pma1.answer(bits, run.queries.queries[i][j], run.masks[i][j], f)
            assert a == (plain + noise_pad_scalar(f, 0, ups[j], run.blinding[i])) % params.p


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
    """spma1.run is pma1.run: it takes both type-I variants and refuses
    type-II parameters."""
    params = make_params("spma2", 3, 5, t=1, y=0)
    with pytest.raises(ParameterError, match="type-I"):
        spma1.run(params, [P1, P2, P2], 1, RandomSource(0))
