"""Simulation and verification toolkit for random walks on percolation clusters.

Its modules cover Bernoulli bond percolation on finite boxes (``percolation``),
simple random walks and their visited-site statistics (``walk``), finite
lamplighter (wreath-product) walks (``wreath``), brute-force isoperimetry
(``isoperimetry``), the analytic bound pipeline that ties them together
(``bounds``), and the experiment recipes that check each claim (``harness``).
"""

from percwalk.percolation import (
    LatticeSpec,
    BondConfiguration,
    ClusterGraph,
    sample_bond_config,
    component_of_origin,
    largest_cluster,
    chemical_distance,
    chemical_ball,
)

__all__ = [
    "LatticeSpec",
    "BondConfiguration",
    "ClusterGraph",
    "sample_bond_config",
    "component_of_origin",
    "largest_cluster",
    "chemical_distance",
    "chemical_ball",
]

__version__ = "0.1.0"
