"""Every sampler makes one draw and cuts it into rows in order (README
"Randomness and reproducibility"). Each is checked value by value against
the documented stream read one word at a time, with the hash calls it
makes, at every word width: 1 byte (p <= 128), 2 bytes (p <= 2^15) and
8 bytes."""

import warnings

import pytest

from pma import pma1, spma2
from pma.model import RandomSource, make_params
from tests.oracles import ref_draw

SEED = 2026
# one modulus per word width
WIDTHS = pytest.mark.parametrize("p", (23, 131, 32771), ids=("1-byte", "2-byte", "8-byte"))


def reference_rows(p, shapes):
    """Consecutive draws of r*k values from the reference stream, each cut
    into r rows of k in order, and the hash calls they take."""
    counter, draws = 0, []
    for r, k in shapes:
        values, counter = ref_draw(SEED, p, r * k, counter)
        draws.append(tuple(values[i * k:i * k + k] for i in range(r)))
    return draws, counter


@WIDTHS
def test_type1_samplers_cut_one_draw_each_into_rows(p):
    # E = 150 and mu = 3: each party's query noise is one draw of 450
    # values cut into rows of 150, bytes at p = 23; the masks and blinding
    # rows, of N = 4 and 3 values, are tuples
    params = make_params("spma1", 2, 150, t=3, p=p)
    m, n, mu, e = params.m, params.n, params.mu, params.e
    assert (mu, n, params.blinding_depth) == (3, 4, 3)
    rng = RandomSource(SEED)
    queries = pma1.gen_queries(1, params, rng)
    masks = pma1.gen_masks(params, rng)
    blinding = pma1.draw_party_noise(params, rng)
    draws, calls = reference_rows(p, [(mu, e)] * m + [(m - 1, n), (m, n - 1)])
    noise = [row for rows in queries.noise for row in rows]
    assert [tuple(row) for row in noise] == [row for rows in draws[:m] for row in rows]
    assert masks[:-1] == draws[m]
    assert blinding == draws[m + 1]
    assert rng.position == calls
    assert {type(row) for row in noise} == {bytes if p <= 128 else tuple}
    assert {type(row) for row in (*masks, *blinding)} == {tuple}


@WIDTHS
def test_type2_samplers_cut_one_draw_each_into_rows(p):
    # storage depth 2 and mu 3 on E = 150: draws of 300 and 450 values
    params = make_params("spma2", 4, 150, t=1, y=3, p=p)
    depth, mu, e = params.storage_depth, params.mu, params.e
    assert (depth, mu, params.blinding_depth) == (2, 3, 5)
    rng = RandomSource(SEED)
    storage = [spma2.encode_storage(bytes(e), params, rng) for _ in range(params.m)]
    queries = spma2.gen_queries(1, params, rng)
    blinding = spma2.draw_global_noise(params, rng)
    draws, calls = reference_rows(
        p, [(depth, e)] * params.m + [(mu, e), (1, params.blinding_depth)])
    # rows of E = 150 values are bytes at p = 23; blinding, of 5, a tuple
    long_rows = [*(row for enc in storage for row in enc.noise), *queries.noise]
    assert [tuple(row) for row in long_rows] == [row for rows in draws[:-1] for row in rows]
    assert (blinding,) == draws[params.m + 1]
    assert rng.position == calls
    assert {type(row) for row in long_rows} == {bytes if p <= 128 else tuple}
    assert type(blinding) is tuple


def test_empty_rows_make_no_hash_call():
    with warnings.catch_warnings():  # noise depth 0: queries in the clear
        warnings.simplefilter("ignore")
        type1 = make_params("pma1", 2, 5)
        type2 = make_params("spma2", 3, 5)
    assert type1.mu == type1.blinding_depth == type2.mu == 0
    rng = RandomSource(SEED)
    assert pma1.gen_queries(1, type1, rng).noise == ((), ())
    assert pma1.draw_party_noise(type1, rng) == ((), ())
    assert spma2.gen_queries(1, type2, rng).noise == ()
    assert rng.rows(23, 0, 5) == () and rng.rows(131, 3, 0) == ((), (), ())
    assert rng.position == 0
