"""Count protocol with type-I collusion and user privacy only.

Each party replicates its incidence vector across its N databases. The
user pads the target unit vector with noise weighted by powers of
(1 + alpha_j), so any max(T, Y) databases of a party see jointly uniform
queries. Each database answers with the inner product of its vector and
its query plus one symbol of a zero-sum masking vector; summing the
answers per database index cancels the masks and leaves evaluations of a
polynomial whose constant coefficient is the membership count, recovered
by one small linear solve.

Masking model: parties 1..M-1 sample their mask vectors and send them to
party M, which completes the zero sum. That traffic is recorded in the
transcript for cost accounting but is not part of any adversary view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Sequence

from .errors import ParameterError
from .model import (PartyDataset, QuerySet, RandomSource, SchemeParams, decode_count,
                    incidence, query_vectors)
from .transcript import (ANSWER, MASK_SHARE, QUERY, ROUND_ANSWER, ROUND_QUERY,
                         ROUND_SETUP, Transcript)


@dataclass(frozen=True)
class ProtocolRun:
    """One type-I run; the symmetric scheme fills ``blinding``."""

    params: SchemeParams
    theta: int
    count: int
    queries: QuerySet
    masks: tuple  # masks[i] is party i+1's length-N mask; they sum to zero
    answers: tuple
    transcript: Transcript
    # blinding[i]: the scalars shared by party i+1's databases (spma1 only)
    blinding: tuple = ()


def draw_query_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    """mu independent uniform vectors per party."""
    return tuple(
        tuple(rng.draw_vector(params.p, params.e) for _ in range(params.mu))
        for _ in range(params.m))


def queries_from_noise(theta: int, params: SchemeParams, noise) -> QuerySet:
    for row in chain(*noise):  # once per row; the party's databases reuse it
        params.field.check_all(row)
    queries = tuple(query_vectors(theta, params.upsilon, rows, params) for rows in noise)
    return QuerySet(theta=theta, noise=noise, queries=queries)


def gen_queries(theta: int, params: SchemeParams, rng: RandomSource) -> QuerySet:
    return queries_from_noise(theta, params, draw_query_noise(params, rng))


def draw_free_masks(params: SchemeParams, rng: RandomSource) -> tuple:
    """Masks of parties 1..M-1; party M completes the zero sum."""
    return tuple(rng.draw_vector(params.p, params.n) for _ in range(params.m - 1))


def masks_from_free(params: SchemeParams, free: Sequence[Sequence[int]]) -> tuple:
    f = params.field
    if len(free) != params.m - 1:
        raise ParameterError(
            f"expected {params.m - 1} free mask vectors, got {len(free)}")
    for s in free:
        if len(s) != params.n:
            raise ParameterError(f"mask vector length {len(s)} != N={params.n}")
        f.check_all(s)
    closing = tuple(-sum(column) % f.p for column in zip(*free))
    return tuple(tuple(s) for s in free) + (closing,)


def gen_masks(params: SchemeParams, rng: RandomSource) -> tuple:
    return masks_from_free(params, draw_free_masks(params, rng))


def answer(bits: Sequence[int], query: Sequence[int], mask_symbol: int, field) -> int:
    """Inner product of 0/1 ``bits`` with the query (a member sum) plus the mask."""
    return (sum(compress(query, bits)) + mask_symbol) % field.p


def decode(answers, params: SchemeParams) -> int:
    """Sum the answers per database index, invert the evaluation matrix and
    read the constant coefficient as the count.

    Per-party answers are never examined individually; only the aligned
    sums enter the solve.
    """
    f = params.field
    if len(answers) != params.m or any(len(row) != params.n for row in answers):
        raise ParameterError(
            f"answer table must be {params.m} x {params.n}")
    for row in answers:
        f.check_all(row)
    return decode_count([sum(column) % f.p for column in zip(*answers)], params)


def _db_name(i: int, j: int) -> str:
    return f"p{i + 1}.d{j + 1}"


def _db_link(i: int, j: int) -> str:
    return f"user:p{i + 1}.d{j + 1}"


def emit_mask_events(params: SchemeParams, masks: tuple, tr: Transcript) -> None:
    dealer = f"p{params.m}"
    for i in range(params.m - 1):
        tr.emit(ROUND_SETUP, f"p{i + 1}", dealer, f"p{i + 1}:{dealer}",
                MASK_SHARE, masks[i])


def emit_query_events(params: SchemeParams, queries: QuerySet, tr: Transcript) -> None:
    for i in range(params.m):
        for j in range(params.n):
            tr.emit(ROUND_QUERY, "user", _db_name(i, j), _db_link(i, j),
                    QUERY, queries.queries[i][j])


def answer_table(params: SchemeParams, tr: Transcript,
                 reply: Callable[[int, int], int]) -> tuple:
    """Every database's reply, ``reply(i, j)`` for database j+1 of party
    i+1, logged on its link; rows are parties."""
    table = []
    for i in range(params.m):
        row = []
        for j in range(params.n):
            a = reply(i, j)
            tr.emit(ROUND_ANSWER, _db_name(i, j), "user", _db_link(i, j), ANSWER, (a,))
            row.append(a)
        table.append(tuple(row))
    return tuple(table)


def run(params: SchemeParams, datasets: Sequence[PartyDataset], theta: int,
        rng: RandomSource) -> ProtocolRun:
    if params.variant != "pma1":
        raise ParameterError(f"expected pma1 parameters, got {params.variant!r}")
    if len(datasets) != params.m:
        raise ParameterError(f"expected {params.m} datasets, got {len(datasets)}")
    tr = Transcript()
    bits = [incidence(d, params.e) for d in datasets]
    queries = gen_queries(theta, params, rng)
    masks = gen_masks(params, rng)
    emit_mask_events(params, masks, tr)
    emit_query_events(params, queries, tr)
    f = params.field
    table = answer_table(params, tr, lambda i, j: answer(
        bits[i], queries.queries[i][j], masks[i][j], f))
    return ProtocolRun(params=params, theta=theta, count=decode(table, params),
                       queries=queries, masks=masks, answers=table, transcript=tr)
