"""Whole runs on both sides of the byte-lane bounds (``pma.field``'s
representation rule), recomputed with plain ints.

Every vector a run emits is rebuilt from its inputs one int at a time: each
query from the unit vector and the query noise, each stored share from the
party's bits and the storage noise, each answer from its query, the bits or
the aggregated shares, and its offset. The digest is recomputed with every
payload as a tuple, through the 64-bit word packing.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pma import pma1, spma2
from pma.model import RandomSource, generate_datasets, incidence, make_params, true_count
from pma.transcript import ANSWER, QUERY, STORAGE_SHARE, Transcript
from tests.oracles import ref_query_vectors


def weighted(p, base, weights, rows):
    """base + sum_l weights[l-1] * rows[l-1] mod p, as a tuple of plain ints:
    a storage share, whose base is not a unit vector."""
    return tuple((a + sum(w * row[k] for w, row in zip(weights, rows))) % p
                 for k, a in enumerate(base))


def payloads(run, category):
    return {ev.link: tuple(ev.values) for ev in run.transcript.events
            if ev.category == category}


# E around the lane length bound (16) and around 256; p on both sides of 128
@pytest.mark.parametrize("e", (15, 16, 255, 256, 257))
@pytest.mark.parametrize("variant", ("pma1", "spma1", "spma2"))
@settings(derandomize=True, max_examples=16, deadline=None)
@given(p=st.sampled_from((5, 23, 127, 131)), probs=st.sampled_from((0.0, 0.02, 0.5, 1.0)),
       data=st.data(), seed=st.integers(0, 2 ** 64 - 1))
def test_runs_match_a_plain_int_recomputation(variant, e, p, probs, data, seed):
    with warnings.catch_warnings():  # T=1 with N derived: no warning is expected
        warnings.simplefilter("error")
        params = make_params(variant, 3 if variant == "spma2" else 2, e, t=1, p=p)
    theta = data.draw(st.integers(1, e))
    rng = RandomSource(seed)
    datasets = generate_datasets(params, probs, rng)
    run = (spma2.run if params.is_type2 else pma1.run)(params, datasets, theta, rng)
    assert run.count == true_count(theta, datasets, e)
    bits = [tuple(incidence(d, e)) for d in datasets]
    assert {type(incidence(d, e)) for d in datasets} == {bytes}
    ups = params.upsilon
    queries, answers = payloads(run, QUERY), payloads(run, ANSWER)
    # the noise rows are bytes exactly when they are long at a small modulus:
    # one bound, the pads', decides the draws too
    noise = [*run.queries.noise, *(row for enc in run.storage for row in enc.noise)] \
        if params.is_type2 else [row for rows in run.queries.noise for row in rows]
    assert {type(row) for row in noise} == {bytes if p <= 128 and e >= 16 else tuple}
    # the queries are bytes exactly when the pad takes the lanes: p and E decide
    assert {type(ev.values) for ev in run.transcript.events if ev.category == QUERY} == \
        {bytes if p <= 128 and e >= 16 else tuple}
    if params.is_type2:
        shares = payloads(run, STORAGE_SHARE)
        for n in range(params.n_eff):
            link = f"user:d{n + 1}"
            stored = []
            for i, enc in enumerate(run.storage):
                stored.append(weighted(p, bits[i], ups[n][1:], enc.noise))
                assert shares[f"p{i + 1}:d{n + 1}"] == stored[-1]
            ptilde = [sum(column) % p for column in zip(*stored)]
            assert queries[link] == ref_query_vectors(theta, e, [ups[n]], run.queries.noise, p)[0]
            expected = (sum(a * q for a, q in zip(ptilde, queries[link]))
                        + sum(w * z for w, z in zip(ups[n][1:], run.blinding))) % p
            assert answers[link] == (expected,) == (run.answers[n],)
    else:
        for i in range(params.m):
            expected_queries = ref_query_vectors(theta, e, ups, run.queries.noise[i], p)
            for j in range(params.n):
                link = f"user:p{i + 1}.d{j + 1}"
                assert queries[link] == expected_queries[j]
                offset = run.masks[i][j] + sum(
                    w * z for w, z in zip(ups[j][1:], run.blinding[i]))
                expected = (sum(q * b for q, b in zip(queries[link], bits[i])) + offset) % p
                assert answers[link] == (expected,) == (run.answers[i][j],)
    plain = Transcript()
    for ev in run.transcript.events:
        plain.emit(ev.round, ev.sender, ev.receiver, ev.link, ev.category,
                   tuple(ev.values), ev.symbols)
    assert {type(ev.values) for ev in plain.events} == {tuple}
    assert plain.digest() == run.transcript.digest()


# a draw's rows are bytes exactly when each has 16 values or more at a
# modulus up to 128, however long the draw they are cut from
@pytest.mark.parametrize("p", (2, 127, 128, 129, 131, 32771))
@pytest.mark.parametrize("r,k", ((1, 255), (1, 256), (2, 128), (3, 100), (2, 300), (300, 1),
                                 (1, 15), (2, 15), (1, 16), (2, 16), (1, 17)))
def test_rows_are_bytes_exactly_when_long_at_a_small_modulus(p, r, k):
    rows = RandomSource(5).rows(p, r, k)
    assert len(rows) == r and {len(row) for row in rows} == {k}
    assert {type(row) for row in rows} == {bytes if p <= 128 and k >= 16 else tuple}
