"""Finite-N laboratory for Zeeman eigenvalue clusters of the hydrogen atom.

Computes shell-projected cluster spectra, coherent-state moments,
regularized Kepler geometry, and the three equivalent limit measures of
the scaled eigenvalue shifts, with quantified finite-N convergence.
"""

__version__ = "0.1.0"
