"""Exact and numeric verification toolkit for Krylov-row determinants,
companion matrices, and relative invariants of the mirabolic subgroup on
gl(n).

The exact layer (``exactmat``, ``invariants``, ``krylov``, ``sympoly``)
works over arbitrary-precision rationals so every identity is a zero test;
the float layer (``calculus``) estimates derivatives by central
differences and weak derivatives by seeded Monte Carlo.  ``report`` and
``cli`` wrap both in reproducible verification suites.

Import each name from its module.  The exact modules and ``fields`` load
without numpy.
"""

__version__ = "0.1.0"
