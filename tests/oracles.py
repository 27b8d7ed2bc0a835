"""Reference helpers shared by the tests: the documented random stream
read one word at a time, unit vectors and queries built one symbol at a
time, and the symbolic expansion that cross-checks the answer polynomials."""

import hashlib
from typing import Sequence

from pma.errors import ParameterError
from pma.field import PrimeField


def ref_stream(seed, counter, n):
    """The first n bytes of hash call ``counter`` of the documented sampler."""
    return hashlib.shake_256(seed.to_bytes(8, "big") + counter.to_bytes(16, "big")).digest(n)


def ref_draw(seed, modulus, k, counter=0):
    """The documented sampler, one word at a time from hash call
    ``counter`` on: a word is a byte for a modulus up to 128, 2 bytes up to
    2^15, else 8 bytes; call c hashes seed || c and reads one word per value
    still missing, and a word w of b bits is kept iff w < 2^b - (2^b mod
    modulus). Returns the values and the next call."""
    width = 1 if modulus <= 128 else 2 if modulus <= 2 ** 15 else 8
    bound = 2 ** (8 * width) - 2 ** (8 * width) % modulus
    out = []
    while len(out) < k:
        need = k - len(out)
        stream = ref_stream(seed, counter, width * need)
        counter += 1
        for i in range(need):
            w = int.from_bytes(stream[width * i:width * i + width], "big")
            if w < bound:
                out.append(w % modulus)
    return tuple(out), counter


def unit_vector(theta: int, e: int) -> tuple[int, ...]:
    """The length-E vector with a single 1, at the 1-based index theta."""
    return tuple(int(k == theta) for k in range(1, e + 1))


def ref_query_vectors(theta: int, e: int, powers: Sequence[Sequence[int]],
                      noise_rows: Sequence[Sequence[int]], p: int) -> tuple:
    """e_theta + sum_l x^l z_l mod p for each row [1, x, x^2, ...] of
    ``powers``, one symbol at a time."""
    return tuple(
        tuple((u + sum(w[l] * z[k] for l, z in enumerate(noise_rows, 1))) % p
              for k, u in enumerate(unit_vector(theta, e)))
        for w in powers)


def ref_blinding(p: int, row: Sequence[int], scalars: Sequence[int]) -> int:
    """sum_l row[l] * scalars[l-1] mod p at the point of one row [1, x,
    x^2, ...] of Upsilon, one term at a time: the blinding an answer
    carries there."""
    acc = 0
    for l, z in enumerate(scalars, 1):
        acc = (acc + row[l] * z) % p
    return acc


def oracle_polynomial_expand(lhs_coeffs: Sequence[Sequence[int]],
                             rhs_coeffs: Sequence[Sequence[int]],
                             p: int) -> tuple[int, ...]:
    """Symbolic product of two vector-coefficient polynomials in the
    indeterminate (1 + alpha); output coefficients are the inner products.

    Independent cross-check of the answer structure: expanding a storage
    polynomial against a query polynomial must give degree L+R and a
    constant coefficient equal to the stored/queried overlap.
    """
    f = PrimeField(p)
    if not lhs_coeffs or not rhs_coeffs:
        raise ParameterError("coefficient lists must be non-empty")
    out = [0] * (len(lhs_coeffs) + len(rhs_coeffs) - 1)
    for ia, va in enumerate(lhs_coeffs):
        for ib, vb in enumerate(rhs_coeffs):
            out[ia + ib] = (out[ia + ib] + f.dot(va, vb)) % p
    return tuple(out)
