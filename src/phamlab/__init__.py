"""Multiplicities of bifurcation sets of Pham singularities.

Exact formulas for the caustic, Maxwell set and Stokes sets of
f = sum_i z_i^(a_i+1), verified numerically by estimating the vanishing
orders of discriminant-type products along generic deformation rays.
"""
