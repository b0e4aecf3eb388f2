"""Shared exception types.

Two failure families are kept apart deliberately:

* ``ValueError`` (stdlib) -- the caller handed us something malformed:
  mismatched shapes, a vector outside a subspace, a chain that is too short.
* ``InvariantViolation`` -- an internal structural assertion failed, meaning
  the library itself produced inconsistent data.  The command-line driver maps
  this, and any exception outside both families, to exit code 2.
"""


class InvariantViolation(RuntimeError):
    """A structural invariant that the library guarantees did not hold."""
