"""Numerical study of the sample-complexity gap between convex and
non-convex meta-learning on shared-direction linear regression tasks."""

__version__ = "0.1.0"
