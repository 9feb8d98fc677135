"""Exact-arithmetic toolkit for the combinatorics of endoscopic data.

The package enumerates Levi classes and elliptic data of classical and
metaplectic-type groups, computes the attached lattice and center indices
exactly, performs type-level descent at finite-order elements, and verifies
the resulting coefficient identities by brute force.

Nothing is re-exported at package level: import each name from its module.
"""
