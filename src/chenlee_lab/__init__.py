"""Pseudospectral lab for the dissipatively perturbed Benjamin-Ono equation

    u_t + u u_x + beta*H u_xx + eta*(H u_x - u_xx) = 0

on a periodic domain: linear semigroup machinery, mild-solution solvers,
rough-data ill-posedness experiments, singular-limit sweeps, and the
moment/decay diagnostics behind unique continuation.
"""
__version__ = "0.1.0"
