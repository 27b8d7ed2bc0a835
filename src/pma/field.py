"""Arithmetic in GF(p) plus the exact linear algebra the decoders rely on.

Field elements are plain ints in ``[0, p)``; the modulus is carried by a
:class:`PrimeField` context object, not by each element. Everything here is
exact integer arithmetic, no floats anywhere. Elements are validated where
they enter the protocol; the per-query kernels (``dot`` and the two pads)
check lengths only and trust their elements to lie in GF(p).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul
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


def build_upsilon(field: PrimeField,
                  alphas: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Square matrix with rows [1, (1+a_j), (1+a_j)^2, ...], one per point.

    This is the Vandermonde-style system every decoder inverts; the default
    evaluation points (distinct, never p-1) keep it nonsingular.
    """
    p = field.p
    xs = [(1 + a) % p for a in alphas]
    columns = [[1] * len(xs)]  # column k holds every x^k
    for _ in range(len(xs) - 1):
        columns.append([c * x % p for c, x in zip(columns[-1], xs)])
    return tuple(zip(*columns))


@lru_cache(maxsize=1)
def _factor(p: int, rows: tuple[tuple[int, ...], ...]):
    """LU factorization with partial pivoting over GF(p), validating the
    elements: per column the pivot row, the pivot's inverse and the
    multipliers below it, then the U rows right of the (implicit, unit)
    diagonal. One entry suffices: every decode of a run solves one matrix.

    Each row is packed into one int, ``size`` bytes per element, so a row
    update is one big-int multiply-add. Elements are reduced only when read;
    a slot gains at most (p-1)^2 per update, at most n times.
    """
    n = len(rows)
    field = PrimeField(p)
    size = ((p + n * (p - 1) ** 2).bit_length() + 7) // 8
    w, mask = 8 * size, (1 << 8 * size) - 1

    def pack(values):
        return int.from_bytes(b"".join(a.to_bytes(size, "little") for a in values), "little")

    work = [pack(field.check_all(row)) for row in rows]
    steps, upper = [], []
    for col in range(n):
        column = [(r >> col * w & mask) % p for r in work[col:]]
        pivot = next((i for i, a in enumerate(column) if a), None)
        if pivot is None:
            raise IntegrityError(
                "singular linear system; evaluation points must be distinct")
        work[col], work[col + pivot] = work[col + pivot], work[col]
        column[0], column[pivot] = column[pivot], column[0]
        inv = pow(column[0], p - 2, p)
        head = work[col] >> (col + 1) * w
        tail = tuple((head >> j * w & mask) * inv % p for j in range(n - col - 1))
        packed = pack(tail) << (col + 1) * w
        below = tuple(column[1:])
        work[col + 1:] = [r + (p - f) * packed if f else r
                          for r, f in zip(work[col + 1:], below)]
        steps.append((col + pivot, inv, below))
        upper.append(tail)
    return tuple(steps), tuple(upper)


def solve_linear(field: PrimeField, m, rhs) -> list[int]:
    """Solve m x = rhs over GF(p): the memoized factorization of m, then
    about n^2 multiply-adds of substitution. A singular m, unreachable from
    valid evaluation points, means corrupted inputs; it raises on every
    call, as a failed factorization is not memoized."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ParameterError("matrix must be square")
    if len(rhs) != n:
        raise ParameterError(f"right-hand side has length {len(rhs)}, expected {n}")
    p = field.p
    b = list(field.check_all(rhs))
    rows = tuple(map(tuple, m))
    if {*map(type, chain.from_iterable(rows))} - {int}:
        # before the lookup: 1.0 would hit a cached 1, a list is unhashable
        for row in rows:
            field.check_all(row)
    steps, upper = _factor(p, rows)
    for col, (pivot, inv, below) in enumerate(steps):
        b[col], b[pivot] = b[pivot], b[col]
        head = b[col] = b[col] * inv % p
        if head:
            b[col + 1:] = [(a - f * head) % p for a, f in zip(b[col + 1:], below)]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - sum(map(mul, upper[i], x[i + 1:]))) % p
    return x


def noise_pad_vector(field: PrimeField, base: Sequence[int], alpha: int,
                     noise_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """base + sum_l (1+alpha)^l * noise[l-1], componentwise.

    The shared coding primitive: queries pad the unit vector, storage
    shares pad the incidence vector.
    """
    p = field.p
    x = (1 + alpha) % p
    weights = []
    c = 1
    for row in noise_rows:
        if len(row) != len(base):
            raise ParameterError("noise row length does not match the base vector")
        c = c * x % p
        weights.append(c)
    if len(noise_rows) > len(base):
        # deep noise on a short vector (high collusion): one dot per column
        return tuple((a + sum(map(mul, weights, column))) % p
                     for a, column in zip(base, zip(*noise_rows)))
    out = base
    for c, row in zip(weights, noise_rows):
        out = [(a + c * z) % p for a, z in zip(out, row)]
    return tuple(out)


def noise_pad_scalar(field: PrimeField, base: int, alpha: int,
                     noise: Sequence[int]) -> int:
    """base + sum_l (1+alpha)^l * noise[l-1]; the inputs are trusted elements."""
    p = field.p
    x = (1 + alpha) % p
    acc = base
    weight = 1
    for z in noise:
        weight = weight * x % p
        acc += weight * z
    return acc % p
