"""Reference helpers shared by the tests: dataset construction from bits,
and the symbolic expansion that cross-checks the answer polynomials."""

from typing import Sequence

from pma.errors import ParameterError
from pma.field import PrimeField
from pma.model import PartyDataset


def members_of(bits: Sequence[int]) -> PartyDataset:
    """Inverse of :func:`pma.model.incidence`."""
    return PartyDataset(frozenset(k + 1 for k, b in enumerate(bits) if b))


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
