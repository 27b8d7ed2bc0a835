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

``answer`` answers a whole party, masks and blinding included; runs and
the audit views both call it, so the audits certify what runs send.

Masking model: parties 1..M-1 sample their mask vectors and send them to
party M, which completes the zero sum. That traffic is recorded in the
transcript for cost accounting but is not part of any adversary view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Sequence

from .errors import ParameterError
from .field import LaneMask, masked_lane_sum
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
    """Per party, one draw of mu uniform noise rows pads the unit vector of ``theta``."""
    noise = tuple(rng.rows(params.p, params.mu, params.e) for _ in range(params.m))
    queries = tuple(query_vectors(theta, rows, params) for rows in noise)
    return QuerySet(theta=theta, noise=noise, queries=queries)


def gen_masks(params: SchemeParams, rng: RandomSource) -> tuple:
    """Parties 1..M-1 draw their masks at once; party M completes the zero sum."""
    free = rng.rows(params.p, params.m - 1, params.n)
    return free + (tuple(-sum(column) % params.p for column in zip(*free)),)


def draw_party_noise(params: SchemeParams, rng: RandomSource) -> tuple:
    """The blinding scalars of each party, shared by its databases;
    independent across parties and of everything else. At depth 0 (pma1)
    each row is empty and no randomness is drawn."""
    return rng.rows(params.p, params.m, params.blinding_depth)


def answer(bits: Sequence[int], queries: Sequence[Sequence[int]], mask: Sequence[int],
           blinding: Sequence[int], params: SchemeParams) -> tuple:
    """One party's N answers: answer j is the member sum of query j (its
    inner product with the 0/1 ``bits``), plus ``mask[j]``, plus the
    party's ``blinding`` scalars weighted by row j of Upsilon, mod p.
    Bytes queries are summed in byte lanes over one LaneMask of the bits;
    bits of another length than a query raise, in either form."""
    p, lanes = params.p, LaneMask(bits) if type(queries[0]) is bytes else None
    out = []
    for q, s, z in zip(queries, mask, params.upsilon.blind(blinding)):
        if len(q) != len(bits):
            raise ParameterError(f"vector length mismatch: {len(bits)} vs {len(q)}")
        a = sum(compress(q, bits)) if lanes is None else masked_lane_sum(p, q, lanes)
        out.append((a + s + z) % p)
    return tuple(out)


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
    """(names, user links) of party i+1's databases, one per database, at [i]."""
    return tuple((tuple(f"p{i}.d{j}" for j in range(1, n + 1)),
                  tuple(f"user:p{i}.d{j}" for j in range(1, n + 1))) for i in range(1, m + 1))


def emit_mask_events(params: SchemeParams, masks: tuple, tr: Transcript) -> None:
    dealer = f"p{params.m}"
    for i in range(params.m - 1):
        tr.emit(ROUND_SETUP, f"p{i + 1}", dealer, f"p{i + 1}:{dealer}",
                MASK_SHARE, masks[i])


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
    if params.blinding_depth:
        tr.emit(ROUND_SETUP, "srand", "parties", "srand:parties", NOISE_SHARE,
                values=(), symbols=params.blinding_depth)
    names = _db_names(params.m, params.n)
    for row, (dbs, links) in zip(queries.queries, names):
        tr.emit_group(ROUND_QUERY, "user", dbs, links, QUERY, row)
    table = []
    for b, row, mask, z, (dbs, links) in zip(bits, queries.queries, masks, blinding, names):
        table.append(answer(b, row, mask, z, params))
        tr.emit_group(ROUND_ANSWER, dbs, "user", links, ANSWER, zip(table[-1]))
    return ProtocolRun(params=params, theta=theta, count=decode(table, params),
                       queries=queries, masks=masks, answers=tuple(table), transcript=tr,
                       blinding=blinding)
