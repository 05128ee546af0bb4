"""Perception-weighted graph strength measurement and network dismantling.

Strength is scored from the distribution of connected-component sizes: each
size carries a weight calibrated against human strength estimates, and a
graph's strength is the weighted sum ``size * weight * count`` over its
components. The package fits those weights by least squares from survey
data, finds the node removals that minimize residual strength by exact
search, emits the equivalent integer-program model, and scores metric
agreement against survey ground truth.
"""

__version__ = "0.1.0"
