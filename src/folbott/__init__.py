"""Exact equivariant residue engine for a family of plane fields.

The package computes, over the rationals and with no floating point
anywhere, the residue sums attached to a four-step blowup of the space
of degree-two plane fields on projective three-space: the catalog of
fixed points and fixed lines, the linear relations among the thirty
unknown twist degrees, the per-flag fiber value 21 and the global
degree 168208.

Importing the package loads no submodule and re-exports no names, so
each ``folbott`` command compiles only the half it runs: Bott's formula
(``torus``, ``tables``, ``fixlocus``, ``bottsum``, ``relations``) or the
blowup charts (``ratpoly``, ``extforms``, ``tables``, ``resolve``).
"""

__version__ = "0.1.0"
