"""Shared exception types."""
from __future__ import annotations


class HeckeError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedFieldError(HeckeError, ValueError):
    """Raised for a field tag outside Q and the nine class-number-one
    imaginary quadratic fields."""


class LevelOverflowError(HeckeError, RuntimeError):
    """Raised when a coset computation escapes the declared level bound."""
