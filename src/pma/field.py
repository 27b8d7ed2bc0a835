"""Arithmetic in GF(p) plus the evaluation matrix the pads and decoders rely on.

Field elements are plain ints in ``[0, p)``; the modulus is carried by a
:class:`PrimeField` context object, not by each element. Everything here is
exact integer arithmetic, no floats anywhere. Elements are validated where
they enter the protocol; the per-query kernels (``dot``, the pad and the
blinding) check lengths only and trust their elements to lie in GF(p).

In a field of at most 128 elements every residue, and the sum of any two,
fits a byte. There long vectors run in byte lanes (``lane_sum``): a product
by a constant is one ``bytes.translate`` through a table of c*b mod p, and a
sum adds the vectors as the 8-bit lanes of one int, reduced through a
table. The values are those of the int arithmetic, element for element.

Representation rule: a vector is a ``Sequence[int]``, either ``bytes`` or a
tuple of ints. Incidence bits are bytes at any p. For p <= 128 long vectors
stay bytes from the draw to the digest, by one bound, ``LANES_MIN_LENGTH``:
a drawn row of at least that many values (``model.RandomSource``; its own
length decides, not its draw's), and the rows of a noised, not deep, pad
of at least that many entries whose base has at most one nonzero entry, as
a query's. ``pma1.answer`` sums a party's bytes queries in lanes over one
``LaneMask`` of its bits (``masked_lane_sum``), and ``transcript`` hashes
a bytes payload as it is, one byte per value, as it hashes a tuple of
values in 0..255. Any other vector is a tuple. The form depends only on
p, lengths and how sparse the base is, never on random content.

The evaluation matrix is an ``Upsilon``, which memoizes its packed columns
and its inverse, packed too. ``Upsilon.blind``, the one kernel of the
blinding sum_l x^l z_l that ``pma1.answer`` and ``spma2.answer`` add, and
``solve_linear``, which takes only an Upsilon of its field, are each one
packed product read back slot by slot. Every pad runs over all points.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from operator import lshift, mul
from typing import Sequence

from .errors import IntegrityError, ParameterError


# Miller-Rabin with the first twelve primes as bases decides primality
# exactly for every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_EXACT_BELOW:
        raise ParameterError(
            f"primality is decided exactly only below {_MR_EXACT_BELOW}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Context for GF(p) arithmetic over validated int elements."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or not is_prime(p):
            raise ParameterError(f"field modulus must be a prime, got {p!r}")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.p:
            raise ParameterError(f"{a!r} is not an element of GF({self.p})")
        return a

    def check_all(self, values: Sequence[int]) -> Sequence[int]:
        """Validate every element of a vector in one pass; return it as is.

        Input boundaries call this once per vector. A plain loop, not
        set/min/max: most such vectors are short, where per-call overhead
        outweighs per-element cost. Whatever the fast test rejects (bool, int
        subclasses, bad values) goes to check(), which raises or admits it.
        """
        p = self.p
        for a in values:
            if type(a) is not int or a < 0 or a >= p:
                self.check(a)
        return values

    def dot(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Inner product over GF(p); the elements are trusted, not checked."""
        if len(u) != len(v):
            raise ParameterError(f"vector length mismatch: {len(u)} vs {len(v)}")
        return sum(map(mul, u, v)) % self.p


def default_alphas(p: int, count: int) -> tuple[int, ...]:
    """The evaluation points: 1, 2, ... and finally 0, skipping p-1.

    They are distinct, and p-1 is excluded so that 1 + alpha never
    vanishes; the query-privacy and storage-security arguments both need
    diag(1 + alpha) invertible. Parameters derive their points here, so no
    other set of points needs validating.
    """
    if count > p - 1:
        raise ParameterError(
            f"GF({p}) offers only {p - 1} usable evaluation points, need {count}")
    return tuple(k % (p - 1) for k in range(1, count + 1))


class Upsilon(tuple):
    """The rows of an evaluation matrix over GF(p), as ``build_upsilon``
    makes them, with p and a memo: the packed inverse, built on first
    read, and the packed columns, built once per noise depth."""

    def __new__(cls, p: int, rows):
        self = super().__new__(cls, rows)
        self.p = p
        self._packed = {}
        return self

    def __getnewargs__(self):  # pickle and copy call __new__ with these
        return self.p, tuple(self)

    @cached_property
    def inverse(self) -> tuple[tuple[int, ...], range, int]:
        """The inverse, packed by columns, with the slot shifts and mask:
        column j holds row r in the s bits at r*s. A solve sums at most
        n (p-1)^2 in a slot, so s is that bound's bit length. Column j holds
        the coefficients of the Lagrange basis polynomial of x_j, the points
        of column 1: prod_k (x - x_k) divided by (x - x_j), scaled by 1 /
        prod_{k != j} (x_j - x_k); each is packed as it is computed.
        Repeated points raise on every read: a failed build is not memoized."""
        p, n = self.p, len(self)
        xs = [row[1] if n > 1 else 0 for row in self]  # 1 x 1: (1,) at any point
        if len(set(xs)) < n:
            raise IntegrityError("singular linear system; evaluation points must be distinct")
        s = (n * (p - 1) ** 2).bit_length() or 1  # 1 for the empty Upsilon
        shifts = range(0, n * s, s)
        master = [1]  # prod_k (x - x_k), from the highest power down
        for x in xs:
            master = [(a - x * b) % p for a, b in zip(master + [0], [0] + master)]
        columns = []
        for x in xs:
            basis = [1]  # master / (x - x_j) by synthetic division, highest power first
            for c in master[1:-1]:
                basis.append((c + x * basis[-1]) % p)
            value = 0  # basis at x_j by Horner: prod_{k != j} (x_j - x_k)
            for c in basis:
                value = (value * x + c) % p
            scale, column = pow(value, p - 2, p), 0
            for c in basis:  # by Horner: the highest power ends in the top slot
                column = column << s | c * scale % p
            columns.append(column)
        return tuple(columns), shifts, (1 << s) - 1

    def _check_depth(self, depth: int) -> None:
        """Noise of ``depth`` is weighted by columns 1..depth, x^1..x^depth."""
        if depth >= len(self[0]):
            raise ParameterError(f"noise of depth {depth} needs powers up to x^{depth}")

    def packed(self, depth: int):
        """Columns 1..depth, packed across the points, point j in the s bits
        at j*s; a 1 in every slot; the slot shifts and mask. Built on first
        use. A slot sums at most (p-1) + depth*(p-1)^2 for any elements, so
        s is that bound's bit length and no slot carries into the next."""
        if depth not in self._packed:
            self._check_depth(depth)
            s = ((self.p - 1) + depth * (self.p - 1) ** 2).bit_length()
            shifts = range(0, len(self) * s, s)
            columns = tuple(sum(map(lshift, column, shifts))
                            for column in islice(zip(*self), 1, depth + 1))
            self._packed[depth] = (columns, sum(1 << shift for shift in shifts),
                                   shifts, (1 << s) - 1)
        return self._packed[depth]

    def blind(self, scalars: Sequence[int]) -> list[int]:
        """sum_l x_j^l * scalars[l-1] mod p at every point x_j: the blinding
        every answer carries, one product of the scalars with the packed
        columns read back slot by slot. No scalars blind with zeros."""
        if not scalars:
            return [0] * len(self)
        # a dict read: at 2 or 3 points a call costs as much as the product
        columns, _, shifts, mask = self._packed.get(len(scalars)) or self.packed(len(scalars))
        return _slots(sum(map(mul, scalars, columns)), shifts, mask, self.p)


def _slots(t: int, shifts: range, mask: int, p: int) -> list[int]:
    """Every slot of the packed product t, mod p; a plain loop, as a
    comprehension's own call costs as much as 2 or 3 slots."""
    out = []
    for shift in shifts:
        out.append((t >> shift & mask) % p)
    return out


def build_upsilon(field: PrimeField, alphas: Sequence[int]) -> Upsilon:
    """Square matrix with rows [1, (1+a_j), (1+a_j)^2, ...], one per point.

    Every decoder inverts it and every pad weights its noise with its rows:
    the one place powers of (1+alpha) are computed. The default evaluation
    points (distinct, never p-1) keep it nonsingular.
    """
    p = field.p
    xs = [(1 + a) % p for a in alphas]
    columns = [[1] * len(xs)]  # column k holds every x^k
    for _ in range(len(xs) - 1):
        columns.append([c * x % p for c, x in zip(columns[-1], xs)])
    return Upsilon(p, zip(*columns))


def solve_linear(field: PrimeField, m, rhs) -> list[int]:
    """Solve m x = rhs over GF(p) for m an Upsilon of this field, as
    ``build_upsilon`` makes it: one product of rhs with its packed inverse,
    built once, read back slot by slot. Any other matrix is refused.
    Repeated points, unreachable from valid parameters, mean corrupted
    inputs; they raise on every call."""
    p = field.p
    if not (isinstance(m, Upsilon) and m.p == p):
        raise ParameterError(f"only an Upsilon of GF({p}) is solved")
    if len(rhs) != len(m):
        raise ParameterError(f"right-hand side has length {len(rhs)}, expected {len(m)}")
    b = field.check_all(rhs)
    columns, shifts, mask = m.inverse
    return _slots(sum(map(mul, b, columns)), shifts, mask, p)


# Byte lanes serve fields of at most LANES_MAX_P elements. Draws are bytes,
# and pads take the lanes, from LANES_MIN_LENGTH values on; shorter vectors,
# as the audits pad, cost less per element than the kernel's fixed setup.
LANES_MIN_LENGTH = 16
LANES_MAX_P = 128


@lru_cache(maxsize=256)
def _scale_table(p: int, c: int) -> bytes:
    """c * b mod p for every byte b: one ``translate`` multiplies a byte
    vector by c, and c = 1 reduces one. Built on first use."""
    return bytes(c * b % p for b in range(256))


def lane_sum(p: int, weights: Sequence[int], vectors) -> bytes:
    """sum_l weights[l] * vectors[l] mod p, componentwise, over equal-length
    byte vectors, for p <= LANES_MAX_P; extra weights are not read. Each
    product is one ``translate``. The products are added as the 8-bit lanes
    of one int, reduced through the table whenever one more residue could
    overflow a lane."""
    terms = [v.translate(_scale_table(p, c)) for c, v in zip(weights, vectors)]
    if len(terms) == 1:
        return terms[0]
    n, reduce = len(terms[0]), _scale_table(p, 1)
    acc = top = 0  # top bounds every lane of acc
    for term in terms:
        if top + p - 1 > 255:
            acc, top = int.from_bytes(acc.to_bytes(n, "big").translate(reduce), "big"), p - 1
        acc += int.from_bytes(term, "big")
        top += p - 1
    return acc.to_bytes(n, "big").translate(reduce)


class LaneMask:
    """0/1 bits as the 8-bit lanes of one int, 0xff where a bit is set and
    0 elsewhere, with their count: what ``masked_lane_sum`` ands a byte
    vector with. Built once, it serves every query summed over the same
    bits."""

    __slots__ = ("lanes", "n")

    def __init__(self, bits: Sequence[int]) -> None:
        self.n = len(bits)
        self.lanes = int.from_bytes(bits, "big") * 255

    def __len__(self) -> int:
        return self.n


def masked_lane_sum(p: int, values: bytes, mask: LaneMask) -> int:
    """sum(compress(values, bits)) mod p over the bits of ``mask``, for
    residues of GF(p), p <= LANES_MAX_P, as bytes of the mask's length.
    The masked values are the 8-bit lanes of one int; adding its top half
    to its bottom half halves the lanes until one is left, reduced through
    the table whenever the next add could overflow a lane."""
    n = len(values)
    if len(mask) != n:
        raise ParameterError(f"vector length mismatch: {n} vs {len(mask)}")
    acc, top = int.from_bytes(values, "big") & mask.lanes, p - 1
    while n > 1:
        if 2 * top > 255:
            acc, top = int.from_bytes(acc.to_bytes(n, "big").translate(_scale_table(p, 1)),
                                      "big"), p - 1
        half = n // 2
        acc, n, top = (acc >> 8 * half) + (acc & ((1 << 8 * half) - 1)), n - half, 2 * top
    return acc % p


def noise_pad_vector(upsilon: Upsilon, base: Sequence[int],
                     noise_rows: Sequence[Sequence[int]]) -> tuple[Sequence[int], ...]:
    """base + sum_l x^l * noise[l-1], componentwise, at every point x of
    ``upsilon``: one padded vector per point, in GF(p) of the Upsilon.

    The shared coding primitive: queries pad the unit vector, storage
    shares pad the incidence vector. The base is added unweighted. Deep
    noise, more rows than the base has entries, reads the packed columns.
    A long base with at most one nonzero entry, as a query's, is padded in
    byte lanes to bytes rows when p <= LANES_MAX_P, its entry added after
    the noise.
    """
    p = upsilon.p
    depth = len(noise_rows)
    for row in noise_rows:
        if len(row) != len(base):
            raise ParameterError("noise row length does not match the base vector")
    upsilon._check_depth(depth)
    if 0 < len(base) < depth:
        # deep noise (high collusion): per entry, one packed product for all points
        packed, ones, shifts, mask = upsilon.packed(depth)
        entries = [_slots(a * ones + sum(map(mul, column, packed)), shifts, mask, p)
                   for a, column in zip(base, zip(*noise_rows))]
        return tuple(zip(*entries))
    if depth and len(base) >= LANES_MIN_LENGTH and p <= LANES_MAX_P:
        unit = bytes(base)
        entry = unit.translate(None, b"\0")  # the nonzero entries
        if len(entry) <= 1:
            k = unit.find(entry)  # 0 for a zero base, whose entry 0 adds nothing
            rows = [bytes(row) for row in noise_rows]  # a drawn row passes as is
            padded = []
            for w in upsilon:
                out = bytearray(lane_sum(p, w[1:], rows))
                out[k] = (out[k] + unit[k]) % p
                padded.append(bytes(out))
            return tuple(padded)
    padded = []
    for w in upsilon:
        out = base
        for c, row in zip(w[1:], noise_rows):
            out = [(a + c * z) % p for a, z in zip(out, row)]
        padded.append(tuple(out))
    return tuple(padded)
