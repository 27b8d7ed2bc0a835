"""Problem setup: universe, party datasets, incidence vectors, validated
scheme parameters, the query pad and record, the count decode every scheme
shares, and a deterministic randomness source.

Conventions used throughout the package: universe elements and the queried
index are 1-based (element k sits at position k-1 of an incidence tuple);
parties and databases are numbered from 1 in link names but stored 0-based
in internal lists.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import lt
from os import PathLike
from pathlib import Path
from typing import Sequence

from .errors import IntegrityError, ParameterError
from .field import (PrimeField, build_upsilon, default_alphas, is_prime,
                    noise_pad_vector, solve_linear)

VARIANTS = ("pma1", "spma1", "spma2")
# the type-II scheme serves both the symmetric and the non-symmetric problem
VARIANT_ALIASES = {"pma2": "spma2"}

_WORDS = 1 << 64
_MASK64 = _WORDS - 1
_DYADIC = 1 << 53
# _KEEP_LOW[r] maps a byte to its low 8 - r bits (a bytes.translate table)
_KEEP_LOW = tuple(bytes(v & (0xFF >> r) for v in range(256)) for r in range(8))


class RandomSource:
    """Counter-mode SHAKE-256 generator: one hash call per drawn vector.

    Call number c hashes key || c (seed as 8 bytes, counter as 16, both big
    endian) and reads as many 8-byte big-endian words as values are still
    missing. A word w is rejected when w >= 2^64 - (2^64 mod modulus), so
    every residue keeps probability exactly 1/modulus; rejected words are
    made up from the next counter value. ``position`` counts hash calls.
    A power-of-two modulus 2^b never rejects, and w mod 2^b is the low b
    bits of w: those draws clear the high bits of the hashed block in place
    and read the words as they are, with no per-value arithmetic, so values,
    hash calls and ``position`` are what the per-word rule gives.

    Reproducible by construction; protocol security is verified by
    enumeration, so reproducibility matters more than entropy here.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise ParameterError(f"seed must be an int, got {seed!r}")
        self._key = (seed & _MASK64).to_bytes(8, "big")
        self._counter = 0

    @property
    def position(self) -> int:
        return self._counter

    def draw_vector(self, modulus: int, k: int) -> tuple[int, ...]:
        if not isinstance(modulus, int) or not 1 <= modulus <= _WORDS:
            raise ParameterError(
                f"modulus must be an int in 1..2^64, got {modulus!r}")
        if not isinstance(k, int) or k < 0:
            raise ParameterError(f"vector length must be a non-negative int, got {k!r}")
        if modulus == 1 or k == 0:
            return (0,) * k
        if _WORDS % modulus == 0:
            block = bytearray(self._block(k))
            whole, part = divmod(65 - modulus.bit_length(), 8)  # high bits to clear
            for i in range(whole):
                block[i::8] = bytes(k)
            block[whole::8] = block[whole::8].translate(_KEEP_LOW[part])
            return struct.unpack(f">{k}Q", block)
        bound = _WORDS - _WORDS % modulus
        out: list[int] = []
        while len(out) < k:
            need = k - len(out)
            out += [w % modulus for w in struct.unpack(f">{need}Q", self._block(need))
                    if w < bound]
        return tuple(out)

    def _block(self, words: int) -> bytes:
        """The next hash call's first ``words`` 8-byte words."""
        block = hashlib.shake_256(
            self._key + self._counter.to_bytes(16, "big")).digest(8 * words)
        self._counter += 1
        return block


@dataclass(frozen=True)
class SchemeParams:
    """Validated protocol parameters.

    m parties with n databases each over a universe of e elements, in
    GF(p). t is the collusion budget (databases within a party for type I,
    whole parties for type II), y the eavesdropping budget of each party
    (type I: M equal values), t2 the count of communicating parties in the
    type-II extension. The evaluation points are derived from p.
    """

    variant: str
    m: int
    n: int
    t: int
    y: tuple[int, ...]
    e: int
    p: int
    t2: int = 1

    @cached_property
    def field(self) -> PrimeField:
        return PrimeField(self.p)

    @property
    def is_type2(self) -> bool:
        return self.variant == "spma2"

    @property
    def mu(self) -> int:
        """Query noise depth."""
        return max(self.t * self.n if self.is_type2 else self.t, max(self.y))

    @property
    def storage_depth(self) -> int:
        """Noise depth of the type-II storage encoding."""
        return self.t2 * self.n

    @property
    def n_eff(self) -> int:
        """Databases that actually participate in the type-II scheme."""
        if not self.is_type2:
            raise ParameterError("n_eff is defined for the type-II variant only")
        return self.storage_depth + self.mu + 1

    @cached_property
    def alphas_used(self) -> tuple[int, ...]:
        """One evaluation point per answering database: N, or n_eff for type II."""
        return default_alphas(self.p, self.n_eff if self.is_type2 else self.n)

    @cached_property
    def upsilon(self) -> tuple[tuple[int, ...], ...]:
        """The evaluation matrix every count decode solves, built once; row j
        holds the powers of (1 + alpha_j) every pad at point j weights with."""
        return build_upsilon(self.field, self.alphas_used)

    @property
    def blinding_depth(self) -> int:
        """Blinding scalars per answer: 0 for pma1, else one fewer than the
        answers one decode reads (N for spma1, n_eff for spma2)."""
        return 0 if self.variant == "pma1" else len(self.alphas_used) - 1

    def summary(self) -> dict:
        out = {
            "variant": self.variant,
            "m": self.m,
            "n": self.n,
            "t": self.t,
            "y": list(self.y) if self.is_type2 else self.y[0],
            "e": self.e,
            "p": self.p,
            "alphas": list(self.alphas_used),
        }
        if self.is_type2:
            out["t2"] = self.t2
            out["n_eff"] = self.n_eff
            out["idle_databases"] = self.m * self.n - self.n_eff
        return out


def auto_p(m: int, n: int) -> int:
    """Smallest prime exceeding max(M, MN+1): always enough room for the
    count range and for MN evaluation points avoiding p-1."""
    q = max(m, m * n + 1) + 1
    while not is_prime(q):
        q += 1
    return q


def auto_n(variant: str, m: int, t: int, y: tuple[int, ...], t2: int = 1) -> int:
    """The fewest databases per party that meet the side condition."""
    if variant != "spma2":
        return max(t, *y) + 1
    for n in range(1, 1025):
        if m * n >= t2 * n + max(t * n, *y) + 1:
            return n
    raise ParameterError(
        f"no database count satisfies M*N >= T2*N + max(T*N, Y) + 1 for "
        f"M={m}, T={t}, Y={y}, T2={t2}")


# least value (None: any) and meaning of each int a caller chooses, as
# parameters or in a run configuration; type int exactly, so not a bool
LEAST = {"m": (2, "party count M"), "n": (1, "database count N"),
         "e": (1, "universe size E"), "t": (0, "collusion budget T"),
         "t2": (1, "communicating-party count T2"), "p": (2, "field modulus p"),
         "theta": (1, "queried index theta"), "seed": (None, "seed")}


def check_raw(variant, **ints) -> str:
    """The variant and the given int parameters, as chosen: before anything
    is derived from them. Returns the variant with its alias resolved."""
    resolved = VARIANT_ALIASES.get(variant, variant) if type(variant) is str else None
    if resolved not in VARIANTS:
        raise ParameterError(
            f"unknown variant {variant!r}; expected one of {VARIANTS} (or alias 'pma2')")
    for name, v in ints.items():
        if type(v) is not int:
            raise ParameterError(f"{name} must be an int, got {v!r}")
        least, what = LEAST[name]
        if least is not None and v < least:
            raise ParameterError(f"{what} must be at least {least}, got {v}")
        if name == "p" and v >= _WORDS:
            raise ParameterError(f"field modulus p must be below 2^64, the range "
                                 f"of the random source; got p={v}")
    return resolved


def _per_party_y(variant: str, m: int, y) -> tuple[int, ...]:
    """Y as one eavesdropping budget per party. An int applies to every
    party; a type-I list must repeat one value, a type-II list has M."""
    values = (y,) * m if type(y) is int else y
    if not (isinstance(values, (list, tuple))
            and all(type(v) is int and v >= 0 for v in values)):
        raise ParameterError(
            f"y must be a non-negative int or a list of them, got {y!r}")
    if variant != "spma2" and len(set(values)) != 1:
        raise ParameterError(f"type-I variants take a single eavesdropping budget, got {y!r}")
    values = tuple(values) if variant == "spma2" else (values[0],) * m
    if len(values) != m:  # a type-II list of the wrong length
        raise ParameterError(
            f"type-II eavesdropping budgets must be {m} non-negative ints, got {y!r}")
    return values


def validate_params(params: SchemeParams, *, stacklevel: int = 2) -> SchemeParams:
    """Check every side condition; errors name the violated inequality."""
    if check_raw(params.variant, m=params.m, n=params.n, e=params.e, t=params.t,
                 t2=params.t2, p=params.p) != params.variant:
        raise ParameterError(f"parameters take no variant alias, got {params.variant!r}")
    if _per_party_y(params.variant, params.m, params.y) != params.y:
        raise ParameterError(f"y must hold one budget per party, got {params.y!r}")
    params.field  # validates primality
    if params.p <= params.m:
        raise ParameterError(
            f"counts range over 0..M, so p > M is required: p={params.p}, M={params.m}")
    if params.is_type2:
        if params.m * params.n < params.n_eff:
            raise ParameterError(
                f"type-II side condition M*N >= T2*N + max(T*N, Y_1..Y_M) + 1 "
                f"violated: {params.m * params.n} < {params.n_eff}")
    else:
        required = params.mu + 1
        if params.n < required:
            raise ParameterError(
                f"type-I side condition N >= max(T, Y) + 1 violated: "
                f"N={params.n} < {required}")
        if params.n > required:
            warnings.warn(
                "N exceeds max(T, Y) + 1; the extra databases only add download cost",
                UserWarning, stacklevel=stacklevel)
    params.alphas_used  # GF(p) must offer a point per database that answers
    if params.mu == 0:
        warnings.warn(
            "query noise depth is 0: queries are sent in the clear "
            "(no collusion or eavesdropping budget)",
            UserWarning, stacklevel=stacklevel)
    return params


def make_params(variant: str, m: int, e: int, *, t: int = 0, y=0,
                n: int | None = None, p: int | None = None,
                t2: int = 1) -> SchemeParams:
    """Build and validate parameters, deriving N and p when omitted. The
    chosen values are checked before anything is derived from them."""
    given = {k: v for k, v in {"n": n, "p": p}.items() if v is not None}  # else derived
    variant = check_raw(variant, m=m, e=e, t=t, t2=t2, **given)
    y = _per_party_y(variant, m, y)
    if n is None:
        n = auto_n(variant, m, t, y, t2)
    if p is None:
        p = auto_p(m, n)
    return validate_params(
        SchemeParams(variant=variant, m=m, n=n, t=t, y=y, e=e, p=p, t2=t2), stacklevel=3)


@dataclass(frozen=True)
class PartyDataset:
    """The element indices one party holds. Empty sets are legal."""

    members: frozenset[int]


def incidence(dataset: PartyDataset, e: int) -> tuple[int, ...]:
    """0/1 vector with a one at each held index."""
    out = [0] * e
    for k in dataset.members:
        if not (isinstance(k, int) and 1 <= k <= e):
            raise ParameterError(f"dataset member {k!r} outside universe 1..{e}")
        out[k - 1] = 1
    return tuple(out)


def unit_vector(theta: int, e: int) -> tuple[int, ...]:
    if not (isinstance(theta, int) and 1 <= theta <= e):
        raise ParameterError(f"queried index {theta!r} outside 1..{e}")
    out = [0] * e
    out[theta - 1] = 1
    return tuple(out)


@dataclass(frozen=True)
class QuerySet:
    """The query vectors for one queried index plus the noise that padded
    them. Type I: noise[i] holds party i+1's rows, shared by its databases,
    and queries[i][j] goes to database j+1 of that party. Type II: noise
    holds the rows shared by every participating database, and queries[n]
    goes to database n+1."""

    theta: int
    noise: tuple
    queries: tuple


def query_vectors(theta: int, powers, noise_rows, params: SchemeParams) -> tuple:
    """The query at each point given by a row of Upsilon in ``powers``: the
    unit vector of ``theta`` padded with the noise rows. Every scheme builds
    its queries this way."""
    return noise_pad_vector(params.field, unit_vector(theta, params.e), powers, noise_rows)


def decode_count(values: Sequence[int], params: SchemeParams) -> int:
    """The count from one aligned evaluation per evaluation point: the
    values are a polynomial in (1 + alpha) whose constant coefficient is
    the count, so one solve of the evaluation matrix recovers it. A count
    above M means the answers were corrupted."""
    count = solve_linear(params.field, params.upsilon, values)[0]  # validates the values
    if count > params.m:
        raise IntegrityError(
            f"decoded count {count} outside 0..{params.m}; transcript corrupted")
    return count


def true_count(theta: int, datasets: Sequence[PartyDataset], e: int) -> int:
    """Brute-force count of parties holding element theta; the oracle every
    decoder is checked against."""
    if not (isinstance(theta, int) and 1 <= theta <= e):
        raise ParameterError(f"queried index {theta!r} outside 1..{e}")
    return sum(1 for d in datasets if theta in d.members)


def _threshold(pk) -> int:
    """The word bound of a membership probability: for an int word w,
    w < ceil(pk * 2^53) is w / 2^53 < pk (the scaling is exact)."""
    if type(pk) not in (int, float) or not 0 <= pk <= 1:
        raise ParameterError(
            f"membership probability {pk!r} in gen_probs is not a number in [0, 1]")
    return math.ceil(pk * _DYADIC)


def generate_datasets(params: SchemeParams, probs,
                      rng: RandomSource) -> list[PartyDataset]:
    """Independent membership draws: element k joins each party with
    probability probs[k-1]; a scalar applies to every element."""
    if isinstance(probs, (int, float)):
        thresholds = repeat(_threshold(probs))  # endless, so shared by every party
    elif isinstance(probs, (list, tuple)):
        if len(probs) != params.e:
            raise ParameterError(
                f"need {params.e} membership probabilities, got {len(probs)}")
        thresholds = [_threshold(pk) for pk in probs]
    else:
        raise ParameterError(
            f"membership probabilities must be a number or a list of {params.e} "
            f"numbers, got {probs!r}")
    datasets = []
    for _ in range(params.m):
        words = rng.draw_vector(_DYADIC, params.e)
        # copying a set sizes the frozenset's table exactly; a generator
        # would leave it over-allocated for the dataset's lifetime
        members = set(compress(range(1, params.e + 1), map(lt, words, thresholds)))
        datasets.append(PartyDataset(frozenset(members)))
    return datasets


def read_json(path, what: str):
    """The parsed contents of a JSON file; a file that cannot be read or
    parsed is a parameter error naming the path and the reason."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read {what} '{path}': {exc.strerror}") from exc
    except ValueError as exc:
        raise ParameterError(f"{what} '{path}' is not valid JSON: {exc}") from exc


def load_datasets(source) -> tuple[tuple[str, ...], list[PartyDataset]]:
    """Read ``{"universe": [...], "parties": [[...], ...]}``.

    Accepts a parsed dict or a file path. Elements map to indices 1..E via
    the sorted order of the universe; validation errors name the offending
    element.
    """
    obj = read_json(source, "dataset file") if isinstance(source, (str, PathLike)) else source
    if not isinstance(obj, dict) or "universe" not in obj or "parties" not in obj:
        raise ParameterError('dataset input must be {"universe": [...], "parties": [[...]]}')
    universe = obj["universe"]
    if not isinstance(universe, list) or not universe \
            or not all(isinstance(x, str) for x in universe):
        raise ParameterError("universe must be a non-empty list of strings")
    if len(set(universe)) != len(universe):
        dupes = sorted({x for x in universe if universe.count(x) > 1})
        raise ParameterError(f"universe contains duplicate elements: {dupes}")
    order = tuple(sorted(universe))
    index = {name: k + 1 for k, name in enumerate(order)}
    parties = obj["parties"]
    if not isinstance(parties, list) or not all(isinstance(pp, list) for pp in parties):
        raise ParameterError("parties must be a list of element lists")
    datasets = []
    for pp in parties:
        members = set()
        for el in pp:
            if not isinstance(el, str):  # before the lookup: a list is unhashable
                raise ParameterError(f"party element {el!r} is not a string")
            if el not in index:
                raise ParameterError(f"unknown element {el!r} (not in universe)")
            members.add(index[el])
        datasets.append(PartyDataset(frozenset(members)))
    return order, datasets
