"""Reference helpers shared by the tests: dataset construction from bits,
unit vectors and queries built one symbol at a time, and the symbolic
expansion that cross-checks the answer polynomials."""

from typing import Sequence

from pma.errors import ParameterError
from pma.field import PrimeField
from pma.model import PartyDataset


def members_of(bits: Sequence[int]) -> PartyDataset:
    """Inverse of :func:`pma.model.incidence`."""
    return PartyDataset(frozenset(k + 1 for k, b in enumerate(bits) if b))


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
