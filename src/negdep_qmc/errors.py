"""Shared exception types."""

__all__ = ["ValidationError", "BudgetExceededError"]


class ValidationError(ValueError):
    """Bad parameters, malformed config, or an unsupported combination."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed its configured work budget."""
