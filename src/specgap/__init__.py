"""Spectral-gap estimation for quantum lattice models.

The gap is read off the exponential decay rate of the commutator
expectation <[H, O]> under norm-preserving imaginary-time evolution,
realized with infinite tensor networks (TEBD in 1D, simple-update iPEPS
in 2D and 3D) and validated against an exact dense oracle.
"""

__version__ = "0.1.0"
