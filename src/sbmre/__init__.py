"""Simulation and verification laboratory for super-Brownian motion in a
spatially correlated random environment.

Modules
-------
covariance   noise kernels and exact Gaussian field sampling
heatkernel   torus heat semigroup, Riesz and Green potentials, persistence threshold
spde         splitting-scheme solvers for the linear and log-Laplace equations
particles    branching random walk with environment-tilted offspring law
feynmankac   Brownian-pair moment formulas, growth probes
dual         jump-perturbed dual flow and duality-gap diagnostics
ensemble     Monte Carlo keying and reduction: streams, batches, worker pool, mean and SE
experiments  the shipped experiments, one per config, each a list of checks
cli          experiment runner (`sbmre` entry point): configs, artifacts, replay
"""

__version__ = "0.1.0"
