"""Clifford-algebra eigensolvers for four model Hamiltonians.

The package solves quantum eigenproblems by a rotor equation instead of
matrix diagonalization, then cross-checks every answer against a
hand-rolled dense matrix oracle.  Import names from their submodules
(``rotoreig.models``, ``rotoreig.oracle``, ...).
"""

__version__ = "0.1.0"
