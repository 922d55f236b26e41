"""Equations, ED degrees and critical points of 1D linear convolutional networks."""

__version__ = "0.1.0"
