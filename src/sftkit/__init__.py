"""Tools for one-dimensional subshifts of finite type and the two-dimensional
systems obtained by combining horizontal and vertical constraints.

Everything here is pure and operates on immutable values, so the whole API is
safe to call concurrently.
"""

from .core import (
    Alphabet,
    Sft1D,
    Digraph,
    RauzyGraph,
    Pattern2D,
    WangTile,
    WangTileSet,
    SftError,
    EmptyLanguage,
    NotStronglyConnected,
    build_rauzy,
    language_count,
    higher_block_recode,
)
from . import classify, cycles, compiler, solve, entropy

__all__ = [
    "Alphabet",
    "Sft1D",
    "Digraph",
    "RauzyGraph",
    "Pattern2D",
    "WangTile",
    "WangTileSet",
    "SftError",
    "EmptyLanguage",
    "NotStronglyConnected",
    "build_rauzy",
    "language_count",
    "higher_block_recode",
    "classify",
    "cycles",
    "compiler",
    "solve",
    "entropy",
]
