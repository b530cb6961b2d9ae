"""Exact-arithmetic strongly homotopy Leibniz algebras from dg derivations.

The package builds, over the rationals:

- finite-dimensional commutative dg algebras and free dg modules,
- module-valued dg derivations, delta-connections, Atiyah cocycles,
- the tower of higher brackets generated by a connection, together with
  mechanical checkers for every identity those towers are supposed to
  satisfy (homotopy Leibniz identities, morphism equations, homotopy
  invariance).
"""
