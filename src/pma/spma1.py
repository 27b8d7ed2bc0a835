"""Symmetric variant of the type-I count protocol.

Queries, masks, the answer loop, decoding and the run record are pma1's.
Additionally, the N databases of each party share N-1 blinding scalars,
added to every answer with the same power-of-(1+alpha) weights as the
query noise. The blinding lands on the interference coefficients of the
decoded polynomial and makes them uniform, so the user learns nothing
beyond the count — at zero extra download.

The blinding scalars are derived from the parties' pre-shared randomness;
the accounting bills their provisioning once, at N-1 symbols, via a
payload-free transcript event (no per-party values cross a tappable link).
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from . import pma1
from .errors import ParameterError
from .field import noise_pad_scalar
from .model import PartyDataset, RandomSource, SchemeParams, incidence
from .transcript import NOISE_SHARE, ROUND_SETUP, Transcript

decode = pma1.decode  # identical contract; blinding only touches interference


def draw_party_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    """The blinding scalars of each party, shared by its databases;
    independent across parties and of everything else."""
    return tuple(rng.draw_vector(params.p, params.blinding_depth)
                 for _ in range(params.m))


def answer(bits: Sequence[int], query: Sequence[int], zrow: Sequence[int],
           mask_symbol: int, powers: Sequence[int], field) -> int:
    """pma1.answer plus the blinding scalars weighted by ``powers``, the
    database's row of Upsilon; a zero zrow adds nothing."""
    padded_mask = noise_pad_scalar(field, mask_symbol, powers, zrow)
    return (sum(compress(query, bits)) + padded_mask) % field.p


def run(params: SchemeParams, datasets: Sequence[PartyDataset], theta: int,
        rng: RandomSource) -> pma1.ProtocolRun:
    if params.variant != "spma1":
        raise ParameterError(f"expected spma1 parameters, got {params.variant!r}")
    if len(datasets) != params.m:
        raise ParameterError(f"expected {params.m} datasets, got {len(datasets)}")
    tr = Transcript()
    bits = [incidence(d, params.e) for d in datasets]
    queries = pma1.gen_queries(theta, params, rng)
    masks = pma1.gen_masks(params, rng)
    # drawn after the queries and masks, so those match pma1's on one seed
    blinding = draw_party_noise(params, rng)
    pma1.emit_mask_events(params, masks, tr)
    if params.blinding_depth:
        tr.emit(ROUND_SETUP, "srand", "parties", "srand:parties", NOISE_SHARE,
                values=(), symbols=params.blinding_depth)
    pma1.emit_query_events(params, queries, tr)
    f = params.field
    ups = params.upsilon
    table = pma1.answer_table(params, tr, lambda i, j: answer(
        bits[i], queries.queries[i][j], blinding[i], masks[i][j], ups[j], f))
    return pma1.ProtocolRun(params=params, theta=theta, count=decode(table, params),
                            queries=queries, masks=masks, answers=table,
                            transcript=tr, blinding=blinding)
