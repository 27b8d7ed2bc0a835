"""Symmetric variant of the type-I count protocol.

Its runs are pma1's: ``pma1.run`` blinds at the parameters' blinding
depth, N-1 here, so the interference coefficients of the decoded
polynomial are uniform and the user learns nothing beyond the count.
This module keeps one database's blinded answer, as the audit views take it.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .field import noise_pad_scalar
# re-exported by name: the benchmark's tracer wraps spma1.run and
# spma1.draw_party_noise, and its smoke test requires every traced layer
from .pma1 import draw_party_noise, run  # noqa: F401


def answer(bits: Sequence[int], query: Sequence[int], zrow: Sequence[int],
           mask_symbol: int, powers: Sequence[int], field) -> int:
    """pma1.answer plus the blinding scalars weighted by ``powers``, the
    database's row of Upsilon; a zero zrow adds nothing. One database's
    answer, as the audit views take it; ``run`` gives the same symbols."""
    padded_mask = noise_pad_scalar(field, mask_symbol, powers, zrow)
    return (sum(compress(query, bits)) + padded_mask) % field.p
