"""Small shared utilities: RNG handling and tables."""

from .rng import as_generator, spawn_streams
from .tables import format_table

__all__ = [
    "as_generator",
    "spawn_streams",
    "format_table",
]
