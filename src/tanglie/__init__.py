"""Geometry of tangent Lie groups built from two left-invariant metrics."""

from .lie_core import LieAlgebra, Metric
from .metric_geometry import levi_civita
from .tangent_lift import build_tangent, lifted_curvature, lifted_sectional, vertical_lift

__version__ = "0.1.0"
