"""Tight worst-case analysis of greedy k-independent set deletion on multigraphs."""

from .errors import InputError, LimitError
from .multiset import (
    DegreeSequence,
    from_sigma,
    make_degree_sequence,
    parse_degrees,
    render_ferrers,
)
from .omega import BTrace, DecrementTrace, b, decrement_sequence, omega

__all__ = [
    "InputError",
    "LimitError",
    "DegreeSequence",
    "from_sigma",
    "make_degree_sequence",
    "parse_degrees",
    "render_ferrers",
    "BTrace",
    "DecrementTrace",
    "b",
    "decrement_sequence",
    "omega",
]
