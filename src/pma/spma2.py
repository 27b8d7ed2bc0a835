"""Count protocol with type-II collusion and symmetric privacy.

Here whole parties may collude (all their databases pool queries), so
incidence vectors cannot be replicated. Instead each party secret-shares
its vector to the participating databases with noise depth T2*N — any
T2*N stored shares are jointly uniform — and every database aggregates
the shares it received into one vector. Queries carry noise of depth
max(T*N, Y_1..Y_M); answers add globally agreed blinding scalars so the
interference coefficients stay uniform at the user. One inversion of the
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
from typing import Sequence

from .errors import IntegrityError, ParameterError
from .field import noise_pad_scalar, noise_pad_vector
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


def draw_storage_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    return tuple(rng.draw_vector(params.p, params.e)
                 for _ in range(params.storage_depth))


def encode_from_noise(bits: Sequence[int], params: SchemeParams,
                      noise_rows) -> StorageShare:
    if len(noise_rows) != params.storage_depth:
        raise ParameterError(
            f"storage encoding needs {params.storage_depth} noise vectors, "
            f"got {len(noise_rows)}")
    noise_rows = tuple(tuple(params.field.check_all(r)) for r in noise_rows)  # once per row
    shares = noise_pad_vector(params.field, bits, params.upsilon, noise_rows)
    return StorageShare(noise=noise_rows, shares=shares)


def encode_storage(bits: Sequence[int], params: SchemeParams,
                   rng: RandomSource) -> StorageShare:
    return encode_from_noise(bits, params, draw_storage_noise(params, rng))


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


def draw_query_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    return tuple(rng.draw_vector(params.p, params.e) for _ in range(params.mu))


def queries_from_noise(theta: int, params: SchemeParams, noise) -> QuerySet:
    noise = tuple(tuple(params.field.check_all(r)) for r in noise)  # once per row
    queries = query_vectors(theta, params.upsilon, noise, params)
    return QuerySet(theta=theta, noise=noise, queries=queries)


def gen_queries(theta: int, params: SchemeParams, rng: RandomSource) -> QuerySet:
    return queries_from_noise(theta, params, draw_query_noise(params, rng))


def draw_global_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    return rng.draw_vector(params.p, params.blinding_depth)


def answer(ptilde: Sequence[int], query: Sequence[int], zprime: Sequence[int],
           powers: Sequence[int], field) -> int:
    """One database's reply: aggregated-storage inner product plus the
    global blinding scalars weighted by ``powers``, its row of Upsilon.

    The result is the evaluation at (1 + alpha) of a polynomial of degree
    at most n_eff - 1 whose constant coefficient is the count.
    """
    return noise_pad_scalar(field, field.dot(ptilde, query), powers, zprime)


def decode(answers: Sequence[int], params: SchemeParams) -> int:
    if len(answers) != params.n_eff:
        raise ParameterError(f"expected {params.n_eff} answers, got {len(answers)}")
    return decode_count(answers, params)


def run(params: SchemeParams, datasets: Sequence[PartyDataset], theta: int,
        rng: RandomSource) -> ProtocolRun:
    if params.variant != "spma2":
        raise ParameterError(f"expected spma2 parameters, got {params.variant!r}")
    if len(datasets) != params.m:
        raise ParameterError(f"expected {params.m} datasets, got {len(datasets)}")
    tr = Transcript()
    f = params.field
    n_eff = params.n_eff
    ups = params.upsilon

    storage = tuple(
        encode_storage(incidence(d, params.e), params, rng) for d in datasets)
    for i, enc in enumerate(storage):
        for n in range(n_eff):
            tr.emit(ROUND_SETUP, f"p{i + 1}", f"d{n + 1}", f"p{i + 1}:d{n + 1}",
                    STORAGE_SHARE, enc.shares[n])
    aggregated = tuple(
        aggregate([storage[i].shares[n] for i in range(params.m)], params)
        for n in range(n_eff))

    queries = gen_queries(theta, params, rng)
    blinding = draw_global_noise(params, rng)
    if params.blinding_depth:
        tr.emit(ROUND_SETUP, "srand", "parties", "srand:parties", NOISE_SHARE,
                values=(), symbols=params.blinding_depth)
    for n in range(n_eff):
        tr.emit(ROUND_QUERY, "user", f"d{n + 1}", f"user:d{n + 1}", QUERY,
                queries.queries[n])
    answers = []
    for n in range(n_eff):
        a = answer(aggregated[n], queries.queries[n], blinding, ups[n], f)
        tr.emit(ROUND_ANSWER, f"d{n + 1}", "user", f"user:d{n + 1}", ANSWER, (a,))
        answers.append(a)
    count = decode(answers, params)
    return ProtocolRun(params=params, theta=theta, count=count, storage=storage,
                       aggregated=aggregated, queries=queries, blinding=blinding,
                       answers=tuple(answers), transcript=tr)
