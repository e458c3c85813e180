"""Shared exception types.

InputError marks malformed or inconsistent input (CLI exit code 2).
NotAnExtensionError (a polytope vertex has no lift) and NotDerivableError
(an inequality is not derivable from the extension's system) reject a
claimed extended formulation; the CLI gives them exit code 2 as well.
An exact search that runs out of its budget is not an exception: it
returns a result with status "exceeded" (CLI exit code 1).  Any other
exception is a bug.
"""

from __future__ import annotations


class XclabError(Exception):
    """Base class for all package errors."""


class InputError(XclabError):
    """Malformed or inconsistent input (wrong shape, parity, range, ...)."""


class NotAnExtensionError(XclabError):
    """A claimed extension has a polytope vertex that admits no lift."""

    def __init__(self, vertex_index: int, message: str | None = None):
        self.vertex_index = vertex_index
        super().__init__(message or f"vertex {vertex_index} has no lift in the extension")


class NotDerivableError(XclabError):
    """An inequality of the target polytope is not a conic combination of
    the extension's constraint system."""

    def __init__(self, row_index: int, message: str | None = None):
        self.row_index = row_index
        super().__init__(
            message
            or f"inequality row {row_index} is not derivable from the extension system"
        )
