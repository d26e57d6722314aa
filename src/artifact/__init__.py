"""Spectral toolkit for honeycomb Schrodinger operators with a line defect.

The pipeline: bulk Bloch bands -> Dirac cone certification and coefficient
extraction -> effective one-dimensional Dirac operator with a domain-wall
mass -> edge strip spectra checked against its ladder -> two-scale
quasimodes.
"""

__version__ = "0.1.0"
