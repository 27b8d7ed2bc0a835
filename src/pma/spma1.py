"""Symmetric variant of the type-I count protocol.

Its runs are pma1's: ``pma1.run`` blinds at the parameters' blinding
depth, N-1 here, so the interference coefficients of the decoded
polynomial are uniform and the user learns nothing beyond the count.
``pma1.answer`` answers a whole party: member sums, plus its masks, plus
``Upsilon.blind`` of its scalars at every database's point. This module
defines nothing of its own.
"""

# re-exported by name: the benchmark's tracer wraps spma1.answer, spma1.run
# and spma1.draw_party_noise, and its smoke test requires every traced layer
from .pma1 import answer, draw_party_noise, run  # noqa: F401
