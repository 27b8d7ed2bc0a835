"""Count protocol with type-I collusion: the run of both type-I variants.

Each party replicates its incidence vector across its N databases. The
user pads the target unit vector with noise weighted by powers of
(1 + alpha_j), so any max(T, Y) databases of a party see jointly uniform
queries. Each database answers with the inner product of its vector and
its query plus one symbol of a zero-sum masking vector; summing the
answers per database index cancels the masks and leaves evaluations of a
polynomial whose constant coefficient is the membership count, recovered
by one small linear solve.

The symmetric variant (spma1) differs only in its blinding depth, N-1
instead of 0: each party's databases then share N-1 blinding scalars,
added to every answer with the query noise's power-of-(1+alpha) weights.
They make the interference coefficients of the decoded polynomial
uniform, so the user learns only the count, at no extra download. They
come from the parties' pre-shared randomness, billed once at N-1 symbols
by a payload-free transcript event.

Masking model: parties 1..M-1 sample their mask vectors and send them to
party M, which completes the zero sum. That traffic is recorded in the
transcript for cost accounting but is not part of any adversary view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Sequence

from .errors import ParameterError
from .field import noise_pad_vector
from .model import (PartyDataset, QuerySet, RandomSource, SchemeParams, decode_count,
                    incidence, query_vectors)
from .transcript import (ANSWER, MASK_SHARE, NOISE_SHARE, QUERY, ROUND_ANSWER,
                         ROUND_QUERY, ROUND_SETUP, Transcript)


@dataclass(frozen=True)
class ProtocolRun:
    """One type-I run of either variant."""

    params: SchemeParams
    theta: int
    count: int
    queries: QuerySet
    masks: tuple  # masks[i] is party i+1's length-N mask; they sum to zero
    answers: tuple
    transcript: Transcript
    # blinding[i]: the scalars shared by party i+1's databases, empty for pma1
    blinding: tuple


def gen_queries(theta: int, params: SchemeParams, rng: RandomSource) -> QuerySet:
    """Per party, mu uniform noise vectors pad the unit vector of ``theta``."""
    noise = tuple(
        tuple(rng.draw_vector(params.p, params.e) for _ in range(params.mu))
        for _ in range(params.m))
    queries = tuple(query_vectors(theta, params.upsilon, rows, params) for rows in noise)
    return QuerySet(theta=theta, noise=noise, queries=queries)


def gen_masks(params: SchemeParams, rng: RandomSource) -> tuple:
    """Parties 1..M-1 draw their masks; party M completes the zero sum."""
    free = tuple(rng.draw_vector(params.p, params.n) for _ in range(params.m - 1))
    return free + (tuple(-sum(column) % params.p for column in zip(*free)),)


def draw_party_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    """The blinding scalars of each party, shared by its databases;
    independent across parties and of everything else. At depth 0 (pma1)
    each row is empty and no randomness is drawn."""
    return tuple(rng.draw_vector(params.p, params.blinding_depth)
                 for _ in range(params.m))


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


@lru_cache(maxsize=8)
def _db_names(m: int, n: int) -> tuple:
    """(name, user link) of database j+1 of party i+1, at [i][j]."""
    return tuple(tuple((f"p{i}.d{j}", f"user:p{i}.d{j}") for j in range(1, n + 1))
                 for i in range(1, m + 1))


def emit_mask_events(params: SchemeParams, masks: tuple, tr: Transcript) -> None:
    dealer = f"p{params.m}"
    for i in range(params.m - 1):
        tr.emit(ROUND_SETUP, f"p{i + 1}", dealer, f"p{i + 1}:{dealer}",
                MASK_SHARE, masks[i])


def emit_query_events(params: SchemeParams, queries: QuerySet, tr: Transcript) -> None:
    for row, names in zip(queries.queries, _db_names(params.m, params.n)):
        for query, (name, link) in zip(row, names):
            tr.emit(ROUND_QUERY, "user", name, link, QUERY, query)


def answer_table(params: SchemeParams, tr: Transcript,
                 reply: Callable[[int, int], int]) -> tuple:
    """Every database's reply, ``reply(i, j)`` for database j+1 of party
    i+1, logged on its link; rows are parties."""
    table = []
    for i, names in enumerate(_db_names(params.m, params.n)):
        row = []
        for j, (name, link) in enumerate(names):
            a = reply(i, j)
            tr.emit(ROUND_ANSWER, name, "user", link, ANSWER, (a,))
            row.append(a)
        table.append(tuple(row))
    return tuple(table)


def run(params: SchemeParams, datasets: Sequence[PartyDataset], theta: int,
        rng: RandomSource) -> ProtocolRun:
    if params.is_type2:
        raise ParameterError(f"expected type-I parameters, got {params.variant!r}")
    if len(datasets) != params.m:
        raise ParameterError(f"expected {params.m} datasets, got {len(datasets)}")
    tr = Transcript()
    bits = [incidence(d, params.e) for d in datasets]
    queries = gen_queries(theta, params, rng)
    masks = gen_masks(params, rng)
    # drawn after the queries and masks, so those match across variants on one seed
    blinding = draw_party_noise(params, rng)
    emit_mask_events(params, masks, tr)
    f = params.field
    offsets = masks  # what each answer adds to its member sum
    if params.blinding_depth:
        tr.emit(ROUND_SETUP, "srand", "parties", "srand:parties", NOISE_SHARE,
                values=(), symbols=params.blinding_depth)
        # each party's blinding at every point: one pad of the base (0,), the
        # scalars as length-1 rows; deep blinding takes the packed branch
        offsets = [[s + z for s, (z,) in zip(row, noise_pad_vector(
            f, (0,), params.upsilon, [(b,) for b in zrow]))]
            for row, zrow in zip(masks, blinding)]
    emit_query_events(params, queries, tr)
    table = answer_table(params, tr, lambda i, j: answer(
        bits[i], queries.queries[i][j], offsets[i][j], f))
    return ProtocolRun(params=params, theta=theta, count=decode(table, params),
                       queries=queries, masks=masks, answers=table, transcript=tr,
                       blinding=blinding)
