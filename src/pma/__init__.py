"""Private membership aggregation over small prime fields.

A user asks M parties (N databases each) how many of them hold a given
universe element without revealing the element, without learning which
parties hold it, and, in the symmetric variants, without learning anything
else about their contents. Queries hide the target coordinate behind noise
weighted by powers of per-database evaluation points, so the wanted value
lands in the constant coefficient of a small polynomial that one exact
linear solve recovers.

The package also ships an audit module that proves the privacy claims
exactly: for a fixed secret every adversary view is an affine map of the
randomness over GF(p), hence uniform on a coset, so two views have the
same distribution exactly when their canonical cosets are equal. It also
ships a harness that accounts every transmitted symbol against the
schemes' closed-form communication costs.
"""

# cli is not imported here: it is the entry point (python -m pma, or
# python -m pma.cli) and would pull argparse into every import of pma
from . import audit, field, harness, model, pma1, spma1, spma2, transcript
from .errors import AuditInfeasibleError, IntegrityError, ParameterError

__version__ = "0.1.0"

__all__ = [
    "audit", "field", "harness", "model", "pma1", "spma1", "spma2",
    "transcript", "AuditInfeasibleError", "IntegrityError", "ParameterError",
    "__version__",
]
