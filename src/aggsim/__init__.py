"""Deterministic simulator for threshold-triggered distributed reporting."""

__version__ = "0.1.0"
