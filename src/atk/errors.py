"""Shared exception types."""


class OracleRefused(RuntimeError):
    """An oracle declined a query that exceeds its size discipline."""


class InternalInvariantViolation(RuntimeError):
    """A case the underlying analysis rules out was observed at runtime."""
