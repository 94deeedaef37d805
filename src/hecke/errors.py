"""Shared exception types.  Resource bounds are not errors of the
library: the CLI caps the sizes it asks for before it computes."""
from __future__ import annotations


class HeckeError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedFieldError(HeckeError, ValueError):
    """Raised for a field tag outside Q and the nine class-number-one
    imaginary quadratic fields."""
