"""Exact lattice computations: constructions, discriminant forms, isometries
and wall-divisor classification for the Leech/Niemeier/Mukai family."""

from .lattice import Lattice

__all__ = ["Lattice"]
