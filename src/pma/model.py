"""Problem setup: universe, party datasets, incidence vectors, validated
scheme parameters, the query pad and record, the count decode every scheme
shares, and a deterministic randomness source.

Conventions used throughout the package: universe elements and the queried
index are 1-based (element k sits at position k-1 of an incidence vector);
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
from functools import cached_property, lru_cache
from itertools import compress
from os import PathLike
from pathlib import Path
from typing import Sequence

from .errors import IntegrityError, ParameterError
from .field import (LANES_MAX_P, LANES_MIN_LENGTH, PrimeField, Upsilon, build_upsilon,
                    default_alphas, is_prime, noise_pad_vector, solve_linear)

VARIANTS = ("pma1", "spma1", "spma2")
# the type-II scheme serves both the symmetric and the non-symmetric problem
VARIANT_ALIASES = {"pma2": "spma2"}

_WORDS = 1 << 64
_MASK64 = _WORDS - 1
_DYADIC = 1 << 53
_WIDE2_MAX_P = 1 << 15  # a larger modulus up to this one reads 2-byte words
# A membership word is 7 bytes: its first byte, then a tail of 6.
_TAIL, _TAILS = 6, 1 << 48
_TIE = 2  # marks an element whose first byte does not decide it
# a list's lane compare gives 0 (joins), 1 (tie) or 2 (stays out)
_LANE_MARKS = bytes((1, _TIE, 0)) + bytes(253)


@lru_cache(maxsize=128)
def _byte_rule(modulus: int) -> tuple[bytes, bytes]:
    """The ``translate`` arguments of a byte draw: the table b mod modulus,
    and the bytes at or above the rejection bound 256 - 256 mod modulus."""
    return bytes(b % modulus for b in range(256)), bytes(range(256 - 256 % modulus, 256))


class RandomSource:
    """Counter-mode SHAKE-256 generator: one hash call per drawn vector.

    Call number c hashes key || c (seed as 8 bytes, counter as 16, both big
    endian) and reads one word per value still missing: a byte for a modulus
    up to 128 (``LANES_MAX_P``), 2 bytes up to 2^15, else 8, big endian. A
    word w of b bits is rejected when w >= 2^b - (2^b mod modulus), so every
    residue keeps probability exactly 1/modulus; rejected words are made up
    from the next counter value. ``position`` counts hash calls.

    Each sampler makes one draw, which ``rows`` cuts in order into rows. At a
    modulus up to 128 a draw or row of ``LANES_MIN_LENGTH`` values or more,
    ``field``'s one bound for draws and pads, is bytes; any other a tuple.
    One ``bytes.translate`` reduces a call's bytes and deletes the rejected ones.

    Reproducible by construction; protocol security is verified by
    enumeration, so reproducibility matters more than entropy here.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int) -> None:
        if type(seed) is not int:  # not a bool
            raise ParameterError(f"seed must be an int, got {seed!r}")
        self._key = (seed & _MASK64).to_bytes(8, "big")
        self._counter = 0

    @property
    def position(self) -> int:
        return self._counter

    def draw_vector(self, modulus: int, k: int) -> Sequence[int]:
        if not isinstance(modulus, int) or not 1 <= modulus <= _WORDS:
            raise ParameterError(
                f"modulus must be an int in 1..2^64, got {modulus!r}")
        if not isinstance(k, int) or k < 0:
            raise ParameterError(f"vector length must be a non-negative int, got {k!r}")
        if modulus > LANES_MAX_P:
            width, code = (2, "H") if modulus <= _WIDE2_MAX_P else (8, "Q")
            bound, out = (1 << 8 * width) - (1 << 8 * width) % modulus, ()
            while len(out) < k:
                words = struct.unpack(f">{k - len(out)}{code}",
                                      self._read(width * (k - len(out))))
                out += tuple(w % modulus for w in words if w < bound)
            return out
        if modulus == 1 or k == 0:  # no hash call
            out = bytes(k)
        else:
            table, rejected = _byte_rule(modulus)
            out = b""
            while len(out) < k:
                out += self._read(k - len(out)).translate(table, rejected)
        return out if k >= LANES_MIN_LENGTH else tuple(out)

    def rows(self, modulus: int, r: int, k: int) -> tuple:
        """r rows of k values, cut in order from one draw of r*k values."""
        flat = self.draw_vector(modulus, r * k)
        flat = flat if k >= LANES_MIN_LENGTH else tuple(flat)  # a short row is a tuple
        return tuple(flat[i * k:i * k + k] for i in range(r))

    def _read(self, n: int) -> bytes:
        """The next hash call's first ``n`` bytes."""
        block = hashlib.shake_256(
            self._key + self._counter.to_bytes(16, "big")).digest(n)
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

    @cached_property
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
    def upsilon(self) -> Upsilon:
        """The evaluation matrix every count decode solves, with its memo,
        shared by every parameter set of one field and points; row j holds
        the powers of (1 + alpha_j) every pad at point j weights with."""
        return _upsilon(self.p, self.alphas_used)

    @cached_property
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


@lru_cache(maxsize=8)
def _upsilon(p: int, alphas: tuple[int, ...]) -> Upsilon:
    """Upsilon of GF(p) at ``alphas``; one matrix per shape, so the runs of
    one shape build its inverse and packed columns once."""
    return build_upsilon(PrimeField(p), alphas)


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
    # (M - T2)*N >= max(T*N, Y) + 1 needs M - T2 > T, then N >= (Y + 1)/(M - T2)
    if m <= t + t2:
        raise ParameterError(
            f"no database count satisfies M*N >= T2*N + max(T*N, Y) + 1 unless "
            f"M > T + T2: M={m}, T={t}, T2={t2}")
    return -(-(max(y) + 1) // (m - t2))


# least value and meaning of each int make_params takes, as type int (not bool)
LEAST = {"m": (2, "party count M"), "n": (1, "database count N"),
         "e": (1, "universe size E"), "t": (0, "collusion budget T"),
         "t2": (1, "communicating-party count T2"), "p": (2, "field modulus p")}


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
        if v < least:
            raise ParameterError(f"{what} must be at least {least}, got {v}")
        if name == "p" and v >= _WORDS:
            raise ParameterError(f"field modulus p must be below 2^64, the range "
                                 f"of the random source; got p={v}")
    return resolved


def _per_party_y(variant: str, m: int, y) -> tuple[int, ...]:
    """Y as one eavesdropping budget per party. An int applies to every
    party; a list has M entries, and a type-I list repeats one value."""
    values = (y,) * m if type(y) is int else y
    if not (isinstance(values, (list, tuple))
            and all(type(v) is int and v >= 0 for v in values)):
        raise ParameterError(
            f"y must be a non-negative int or a list of them, got {y!r}")
    if len(values) != m:
        raise ParameterError(
            f"eavesdropping budgets must be {m} non-negative ints, one per party "
            f"(M={m}), got {y!r}")
    if variant != "spma2" and len(set(values)) > 1:
        raise ParameterError(f"type-I variants take a single eavesdropping budget, got {y!r}")
    return tuple(values)


def make_params(variant: str, m: int, e: int, *, t: int = 0, y=0,
                n: int | None = None, p: int | None = None,
                t2: int = 1) -> SchemeParams:
    """Build and validate parameters, deriving N and p when omitted; the one
    parameter check. The chosen values are checked before anything is
    derived from them, and errors name the violated inequality."""
    given = {k: v for k, v in {"n": n, "p": p}.items() if v is not None}  # else derived
    variant = check_raw(variant, m=m, e=e, t=t, t2=t2, **given)
    if m >= _WORDS - 59:  # the largest prime below 2^64; before Y is expanded to M
        raise ParameterError(f"counts range over 0..M, so p > M is required, and no "
                             f"prime below 2^64 exceeds M={m}")
    y = _per_party_y(variant, m, y)
    if n is None:
        n = auto_n(variant, m, t, y, t2)
    if p is None:
        p = auto_p(m, n)
        check_raw(variant, p=p)  # before the evaluation points are built
    params = SchemeParams(variant=variant, m=m, n=n, t=t, y=y, e=e, p=p, t2=t2)
    params.field  # validates primality
    if p <= m:
        raise ParameterError(
            f"counts range over 0..M, so p > M is required: p={p}, M={m}")
    if params.is_type2:
        if m * n < params.n_eff:
            raise ParameterError(
                f"type-II side condition M*N >= T2*N + max(T*N, Y_1..Y_M) + 1 "
                f"violated: {m * n} < {params.n_eff}")
    else:
        required = params.mu + 1
        if n < required:
            raise ParameterError(
                f"type-I side condition N >= max(T, Y) + 1 violated: "
                f"N={n} < {required}")
        if n > required:
            warnings.warn(
                "N exceeds max(T, Y) + 1; the extra databases only add download cost",
                UserWarning, stacklevel=2)
    params.alphas_used  # GF(p) must offer a point per database that answers
    if params.mu == 0:
        warnings.warn(
            "query noise depth is 0: queries are sent in the clear "
            "(no collusion or eavesdropping budget)",
            UserWarning, stacklevel=2)
    return params


class PartyDataset:
    """The element indices one party holds. Empty sets are legal. Generated
    and loaded datasets carry their incidence vector in ``bits``, as bytes; a
    generated one builds its member set from it on first read. Given bits
    must be 0 or 1 and are kept as bytes. Equality, hashing and repr are
    those of ``PartyDataset(members)``; ``bits`` takes no part in them."""

    __slots__ = ("_members", "bits")

    def __init__(self, members: frozenset[int] | None = None,
                 bits: Sequence[int] | None = None) -> None:
        if members is None and bits is None:
            raise TypeError("a PartyDataset needs its members or its incidence bits")
        if bits is not None:
            try:  # bytes(n) of an int n would pass as n zeros
                bits = None if isinstance(bits, int) else bytes(bits)
            except (TypeError, ValueError):
                bits = None
            if bits is None or bits.translate(None, b"\0\1"):
                raise ParameterError("incidence bits must be a sequence of 0s and 1s")
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"PartyDataset is immutable; cannot set {name!r}")

    @property
    def members(self) -> frozenset[int]:
        if self._members is None:
            # copying a set sizes the frozenset's table exactly; one built
            # from an iterator stays over-allocated for the dataset's life
            object.__setattr__(self, "_members", frozenset(
                set(compress(_indices(len(self.bits)), self.bits))))
        return self._members

    def __eq__(self, other) -> bool:
        if type(other) is not PartyDataset:
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash((self.members,))

    def __repr__(self) -> str:
        return f"PartyDataset(members={self.members!r})"

    def __reduce__(self):
        # pickle and copy through __init__, since __setattr__ refuses
        return PartyDataset, (self._members, self.bits)


@lru_cache(maxsize=1)
def _indices(e: int) -> tuple[int, ...]:
    """1..E, so that the member sets of one universe share their ints."""
    return tuple(range(1, e + 1))


def incidence(dataset: PartyDataset, e: int) -> Sequence[int]:
    """0/1 vector with a one at each held index: the carried one when it
    has length E, else built from the members, as bytes."""
    if dataset.bits is not None and len(dataset.bits) == e:
        return dataset.bits
    return _incidence_bits(dataset.members, e)


def _incidence_bits(members, e: int) -> bytes:
    """The incidence vector of ``members`` over 1..E, checking each one."""
    out = bytearray(e)
    for k in members:
        if not (isinstance(k, int) and 1 <= k <= e):
            raise ParameterError(f"dataset member {k!r} outside universe 1..{e}")
        out[k - 1] = 1
    return bytes(out)


def _check_theta(theta, e: int) -> None:
    """The queried index must be an int, not a bool, in 1..E."""
    if type(theta) is not int or not 1 <= theta <= e:
        raise ParameterError(f"queried index theta={theta!r} outside 1..{e} or not an int")


@dataclass(frozen=True)
class QuerySet:
    """The query vectors for one queried index plus the noise that padded
    them. Type I: noise[i] holds party i+1's rows, shared by its databases,
    and queries[i][j] goes to database j+1 of that party. Type II: noise
    holds the rows shared by every participating database, and queries[n]
    goes to database n+1. Each row and query is a ``Sequence[int]``, bytes
    or a tuple by ``field``'s representation rule."""

    theta: int
    noise: tuple[Sequence, ...]
    queries: tuple[Sequence, ...]


def query_vectors(theta: int, noise_rows, params: SchemeParams) -> tuple:
    """The query at every point of Upsilon: the unit vector of ``theta``
    padded with the noise rows. Every scheme builds its queries this way.
    The unit vector is bytes, built with no pass per element, and the pad
    adds its one nonzero entry after the noise."""
    _check_theta(theta, params.e)
    unit = bytes(theta - 1) + b"\x01" + bytes(params.e - theta)
    return noise_pad_vector(params.upsilon, unit, noise_rows)


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
    _check_theta(theta, e)
    return sum(d.bits[theta - 1] if d.bits is not None and len(d.bits) == e
               else theta in d.members for d in datasets)


def _threshold(pk) -> int:
    """The bound of a membership probability on a 56-bit word U': for the
    53-bit U = U' >> 3, U' < 8 * ceil(pk * 2^53) is U < ceil(pk * 2^53),
    which is U / 2^53 < pk (the scaling is exact)."""
    if type(pk) not in (int, float) or not 0 <= pk <= 1:
        raise ParameterError(
            f"membership probability {pk!r} in gen_probs is not a number in [0, 1]")
    return 8 * math.ceil(pk * _DYADIC)


@lru_cache(maxsize=128)
def _marks(threshold: int) -> bytes:
    """A scalar threshold's table of first bytes: 1 joins, _TIE ties, 0 stays out."""
    lo, hi = threshold // _TAILS, -(-threshold // _TAILS)
    return bytes(1 if b < lo else _TIE if b < hi else 0 for b in range(256))


def generate_datasets(params: SchemeParams, probs,
                      rng: RandomSource) -> list[PartyDataset]:
    """Independent membership draws: element k joins each party with
    probability probs[k-1]; a scalar applies to every element.

    Element k joins iff its 56-bit word U' < T = 8 * ceil(probs[k-1] * 2^53),
    read lazily. One hash call per party gives every element the first
    byte b of its word. It joins if b < floor(T / 2^48) and stays out if b
    >= ceil(T / 2^48), whatever its other 6 bytes. The rest, about 1 in
    256, tie: b is T's first byte and T's tail is not zero. They read the
    tails of their words, in order, from the party's next hash call and
    compare them as bytes with T's. A scalar marks the first bytes through
    one table; a list compares them at once, as the 16-bit lanes of one
    int.
    """
    e, scalar = params.e, isinstance(probs, (int, float))
    if scalar:
        thresholds = [_threshold(probs)]
        marks = _marks(thresholds[0])
    elif isinstance(probs, (list, tuple)):
        if len(probs) != e:
            raise ParameterError(f"need {e} membership probabilities, got {len(probs)}")
        thresholds = [_threshold(pk) for pk in probs]
        # lane k holds its first byte b plus 256 - floor(T / 2^48), or plus
        # 256 - ceil(T / 2^48); its bit 8 is then set iff b is at least that
        # bound, and below 512 nothing carries into the next lane
        gaps_lo = _lanes16([256 - t // _TAILS for t in thresholds])
        gaps_hi = _lanes16([256 + (-t // _TAILS) for t in thresholds])
        ones = _lanes16([1] * e)
        lanes = bytearray(2 * e)
    else:
        raise ParameterError(
            f"membership probabilities must be a number or a list of {e} "
            f"numbers, got {probs!r}")
    datasets = []
    for _ in range(params.m):
        if scalar:
            bits = rng._read(e).translate(marks)
        else:
            lanes[1::2] = rng._read(e)
            words = int.from_bytes(lanes, "big")
            above = (words + gaps_lo >> 8 & ones) + (words + gaps_hi >> 8 & ones)  # 0, 1 or 2
            bits = above.to_bytes(2 * e, "big")[1::2].translate(_LANE_MARKS)
        ties = bits.count(_TIE)
        if ties:
            bits, tails, k = bytearray(bits), rng._read(_TAIL * ties), -1
            for j in range(0, _TAIL * ties, _TAIL):
                k = bits.find(_TIE, k + 1)
                t = thresholds[0 if scalar else k]
                bits[k] = tails[j:j + _TAIL] < (t % _TAILS).to_bytes(_TAIL, "big")
            bits = bytes(bits)
        datasets.append(PartyDataset(bits=bits))
    return datasets


def _lanes16(values) -> int:
    """The values as the 16-bit lanes of one int, the first one highest."""
    return int.from_bytes(struct.pack(f">{len(values)}H", *values), "big")


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
        datasets.append(PartyDataset(frozenset(members),
                                     _incidence_bits(members, len(order))))
    return order, datasets
