"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid protocol parameters or malformed inputs (CLI exit code 2)."""


class IntegrityError(RuntimeError):
    """A protocol invariant broke at runtime, e.g. a decoded count outside
    0..M, an incomplete answer set, or an audited view that is not affine
    in its randomness (CLI exit code 3)."""


class AuditInfeasibleError(RuntimeError):
    """An audit would exceed its cap: view evaluations for the coset laws
    of one case, or assignments for an exhaustive enumeration."""
