"""Desk-scale laboratory for prime averages along arithmetic progressions."""

__version__ = "0.1.0"

from .tables import ArithTables, Progression, build_tables, psi_progression, reduced_residues, von_mangoldt

__all__ = [
    "ArithTables",
    "Progression",
    "build_tables",
    "psi_progression",
    "reduced_residues",
    "von_mangoldt",
    "__version__",
]
