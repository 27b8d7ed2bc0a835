"""Count protocol with type-II collusion and symmetric privacy.

Here whole parties may collude (all their databases pool queries), so
incidence vectors cannot be replicated. Instead each party secret-shares
its vector to the participating databases with noise depth T2*N — any
T2*N stored shares are jointly uniform — and every database aggregates
the shares it received into one vector. Queries carry noise of depth
max(T*N, Y_1..Y_M); answers add globally agreed blinding scalars so the
interference coefficients stay uniform at the user; ``answer`` answers
the whole round, for runs and audit views alike. One inversion of the
full evaluation matrix recovers the count from the constant coefficient.

Only n_eff = T2*N + max(T*N, Y_1..Y_M) + 1 databases participate; when
M*N exceeds that, the surplus databases receive no storage, queries or
noise. The non-symmetric type-II problem runs this same scheme.

The blinding scalars come from randomness the parties share in advance;
as in the symmetric type-I scheme, the accounting bills their
provisioning once, at n_eff - 1 symbols, with a payload-free transcript
event, so no blinding value appears in a transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import IntegrityError, ParameterError
from .field import noise_pad_vector
from .model import (PartyDataset, QuerySet, RandomSource, SchemeParams, decode_count,
                    incidence, query_vectors)
from .transcript import (ANSWER, NOISE_SHARE, QUERY, ROUND_ANSWER, ROUND_QUERY,
                         ROUND_SETUP, STORAGE_SHARE, Transcript)


@dataclass(frozen=True)
class StorageShare:
    """One party's encoding: noise[l] are the storage noise vectors,
    shares[n] is what database n+1 stores before aggregation."""

    noise: tuple
    shares: tuple


@dataclass(frozen=True)
class ProtocolRun:
    params: SchemeParams
    theta: int
    count: int
    storage: tuple
    aggregated: tuple
    queries: QuerySet
    blinding: tuple  # the n_eff - 1 blinding scalars all parties agree on
    answers: tuple
    transcript: Transcript


def encode_storage(bits: Sequence[int], params: SchemeParams,
                   rng: RandomSource) -> StorageShare:
    """One party's shares: its incidence vector padded with fresh noise."""
    noise = rng.rows(params.p, params.storage_depth, params.e)
    return StorageShare(noise=noise,
                        shares=noise_pad_vector(params.upsilon, bits, noise))


def aggregate(shares: Sequence[Sequence[int]], params: SchemeParams) -> tuple[int, ...]:
    """Componentwise sum of the M shares one database received."""
    if len(shares) != params.m:
        raise IntegrityError(
            f"database aggregation needs one share per party: got {len(shares)}, "
            f"expected {params.m}")
    f = params.field
    for vec in shares:
        if len(vec) != params.e:
            raise ParameterError(f"share length {len(vec)} != E={params.e}")
        f.check_all(vec)
    return tuple(sum(column) % f.p for column in zip(*shares))


def gen_queries(theta: int, params: SchemeParams, rng: RandomSource) -> QuerySet:
    """mu fresh noise vectors pad the unit vector of ``theta`` at every point."""
    noise = rng.rows(params.p, params.mu, params.e)
    return QuerySet(theta=theta, noise=noise,
                    queries=query_vectors(theta, noise, params))


def draw_global_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    return rng.draw_vector(params.p, params.blinding_depth)


def answer(aggregated: Sequence[Sequence[int]], queries: Sequence[Sequence[int]],
           blinding: Sequence[int], params: SchemeParams) -> tuple:
    """Every participating database's reply: its aggregated storage's
    inner product with its query plus its blinding, the global scalars
    weighted by its row of Upsilon.

    Each is the evaluation at (1 + alpha) of a polynomial of degree at
    most n_eff - 1 whose constant coefficient is the count.
    """
    f = params.field
    return tuple([(f.dot(a, q) + z) % f.p for a, q, z in
                  zip(aggregated, queries, params.upsilon.blind(blinding))])


def decode(answers: Sequence[int], params: SchemeParams) -> int:
    if len(answers) != params.n_eff:
        raise ParameterError(f"expected {params.n_eff} answers, got {len(answers)}")
    return decode_count(answers, params)


@lru_cache(maxsize=8)
def _db_names(m: int, n_eff: int) -> tuple:
    """Database names, their user links, and (name, storage links) per party."""
    dbs = tuple(f"d{n}" for n in range(1, n_eff + 1))
    return dbs, tuple(f"user:{d}" for d in dbs), tuple(
        (f"p{i}", tuple(f"p{i}:{d}" for d in dbs)) for i in range(1, m + 1))


def run(params: SchemeParams, datasets: Sequence[PartyDataset], theta: int,
        rng: RandomSource) -> ProtocolRun:
    if params.variant != "spma2":
        raise ParameterError(f"expected spma2 parameters, got {params.variant!r}")
    if len(datasets) != params.m:
        raise ParameterError(f"expected {params.m} datasets, got {len(datasets)}")
    tr = Transcript()
    dbs, user_links, parties = _db_names(params.m, params.n_eff)
    storage = tuple(
        encode_storage(incidence(d, params.e), params, rng) for d in datasets)
    for (party, links), enc in zip(parties, storage):
        tr.emit_group(ROUND_SETUP, party, dbs, links, STORAGE_SHARE, enc.shares)
    aggregated = tuple(
        aggregate([storage[i].shares[n] for i in range(params.m)], params)
        for n in range(params.n_eff))

    queries = gen_queries(theta, params, rng)
    blinding = draw_global_noise(params, rng)
    if params.blinding_depth:
        tr.emit(ROUND_SETUP, "srand", "parties", "srand:parties", NOISE_SHARE,
                values=(), symbols=params.blinding_depth)
    tr.emit_group(ROUND_QUERY, "user", dbs, user_links, QUERY, queries.queries)
    answers = answer(aggregated, queries.queries, blinding, params)
    tr.emit_group(ROUND_ANSWER, dbs, "user", user_links, ANSWER, zip(answers))
    count = decode(answers, params)
    return ProtocolRun(params=params, theta=theta, count=count, storage=storage,
                       aggregated=aggregated, queries=queries, blinding=blinding,
                       answers=answers, transcript=tr)
