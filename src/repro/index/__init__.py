"""Index substrate: tokenization and the inverted keyword index."""

from .inverted import InvertedIndex
from .tokenizer import DEFAULT_STOPWORDS, Tokenizer

__all__ = [
    "Tokenizer",
    "DEFAULT_STOPWORDS",
    "InvertedIndex",
]
