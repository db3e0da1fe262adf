"""Multisets of nonnegative integers (degree sequences) and their conjugate profiles.

A degree sequence is stored as a value -> multiplicity map.  The conjugate
view sigma(z) = #{x in D : x >= z} is the column profile of the Ferrers
diagram and is the workhorse for the dominance arguments elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InputError, LimitError

MAX_DEGREE = 2**31 - 1

# Largest degree sum accepted by the routines whose output or work grows
# with it: omega.decrement_sequence (the schedule a has about sum(D)
# entries), graphs.construct_worst_case (one edge unit per unit of degree)
# and render_ferrers (one cell per unit).  It also bounds the vertex count
# of a graphs.Multigraph built from edges.
MAX_DEGREE_SUM = 2**21

# one item of a JSON integer array, with the whitespace JSON allows
_JSON_INT = re.compile(r"[ \t\n\r]*-?(?:0|[1-9][0-9]*)[ \t\n\r]*")


@dataclass(frozen=True)
class DegreeSequence:
    """Immutable multiset of nonnegative integers.

    ``items`` is the canonical sorted tuple of (value, multiplicity) pairs
    with all multiplicities positive.  Equality and hashing are multiset
    equality.
    """

    items: tuple[tuple[int, int], ...]

    @staticmethod
    def from_values(values: Iterable[int]) -> "DegreeSequence":
        counts: dict[int, int] = {}
        for v in values:
            v = int(v)
            if v < 0:
                raise InputError(f"negative degree {v}")
            if v > MAX_DEGREE:
                raise InputError(f"degree {v} exceeds cap {MAX_DEGREE}")
            counts[v] = counts.get(v, 0) + 1
        return DegreeSequence.from_counts(counts)

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> "DegreeSequence":
        items = []
        for v, m in sorted(counts.items()):
            if m < 0:
                raise InputError(f"negative multiplicity for value {v}")
            if v < 0:
                raise InputError(f"negative degree {v}")
            if m > 0:
                items.append((int(v), int(m)))
        return DegreeSequence(tuple(items))

    # -- basic views ---------------------------------------------------

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.items)

    @property
    def total(self) -> int:
        return sum(v * m for v, m in self.items)

    @property
    def max_value(self) -> int:
        """Maximum element; raises on the empty multiset."""
        if not self.items:
            raise InputError("max of empty multiset is undefined")
        return self.items[-1][0]

    def values(self) -> list[int]:
        """Sorted nondecreasing value list (canonical serialized form)."""
        out: list[int] = []
        for v, m in self.items:
            out.extend([v] * m)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())

    def __len__(self) -> int:
        return self.order

    def __contains__(self, v: int) -> bool:
        return self.mu(v) > 0

    def __repr__(self) -> str:
        return "{%s}" % ",".join(str(v) for v in self.values())

    # -- mu / sigma calculus -------------------------------------------

    def mu(self, z: int) -> int:
        """Multiplicity of z in the multiset."""
        for v, m in self.items:
            if v == z:
                return m
        return 0

    def sigma(self) -> "SigmaProfile":
        """Conjugate profile: sigma(z) = number of elements >= z."""
        if not self.items:
            return SigmaProfile((0,))
        top = self.items[-1][0]
        vals = [0] * (top + 1)
        # count elements >= z by a suffix sum over multiplicities
        running = 0
        mu_map = dict(self.items)
        for z in range(top, -1, -1):
            running += mu_map.get(z, 0)
            vals[z] = running
        return SigmaProfile(tuple(vals))

    # -- multiset algebra ----------------------------------------------

    def without_one(self, v: int) -> "DegreeSequence":
        """Remove a single copy of v."""
        if self.mu(v) == 0:
            raise InputError(f"value {v} not present")
        counts = self.counts
        counts[v] -= 1
        return DegreeSequence.from_counts(counts)

    def with_one(self, v: int) -> "DegreeSequence":
        """Add a single copy of v."""
        if v < 0:
            raise InputError(f"negative degree {v}")
        counts = self.counts
        counts[v] = counts.get(v, 0) + 1
        return DegreeSequence.from_counts(counts)

    # -- predicates -----------------------------------------------------

    def is_graphical(self) -> bool:
        """True iff this is the degree sequence of some loopless multigraph.

        Criterion: even sum and sum >= twice the maximum element.  The
        empty and all-zero multisets are graphical.
        """
        if not self.items:
            return True
        s = self.total
        return s % 2 == 0 and s >= 2 * self.max_value

    def is_trivial(self, k: int) -> bool:
        """True iff the maximum element is below k (empty counts as trivial)."""
        if k < 1:
            raise InputError("k must be a positive integer")
        if not self.items:
            return True
        return self.max_value < k


@dataclass(frozen=True)
class SigmaProfile:
    """Nonincreasing column profile [sigma(0), ..., sigma(M)].

    sigma(0) is the order of the multiset represented; values beyond the
    stored tail are zero.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise InputError("profile must contain sigma(0)")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise InputError("profile must be nonincreasing")
        if any(v < 0 for v in self.values):
            raise InputError("profile values must be nonnegative")

    def __call__(self, z: int) -> int:
        if z < 0:
            raise InputError("sigma argument must be nonnegative")
        return self.values[z] if z < len(self.values) else 0

    def to_degree_sequence(self) -> DegreeSequence:
        """Unique multiset with this conjugate profile (mu(z) = s(z) - s(z+1))."""
        counts: dict[int, int] = {}
        for z in range(len(self.values)):
            m = self(z) - self(z + 1)
            if m:
                counts[z] = m
        return DegreeSequence.from_counts(counts)


def make_degree_sequence(values: Iterable[int]) -> DegreeSequence:
    return DegreeSequence.from_values(values)


def sigma(D: DegreeSequence) -> SigmaProfile:
    return D.sigma()


def from_sigma(profile: Iterable[int]) -> DegreeSequence:
    return SigmaProfile(tuple(int(v) for v in profile)).to_degree_sequence()


def mu(D: DegreeSequence, z: int) -> int:
    if z < 0:
        raise InputError("mu argument must be nonnegative")
    return D.mu(z)


def is_graphical(D: DegreeSequence) -> bool:
    return D.is_graphical()


def is_trivial(D: DegreeSequence, k: int) -> bool:
    return D.is_trivial(k)


def parse_degrees(text: str) -> DegreeSequence:
    """Parse a degree list of integers, in the comma form ``"1,2,2,4"`` or
    as a JSON array ``"[1,2,2,4]"``, which is read as the comma form inside
    brackets whose items must be JSON integers."""
    text = text.strip()
    bracketed = text[:1] == "[" and text[-1:] == "]"
    items = text[1:-1] if bracketed else text
    if not items.strip():
        return DegreeSequence(())
    tokens = items.split(",")
    if bracketed and not all(map(_JSON_INT.fullmatch, tokens)):
        raise InputError(f"cannot parse degree list {text!r}")
    try:
        vals = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"cannot parse degree list {text!r}") from exc
    return DegreeSequence.from_values(vals)


def check_degree_sum(D: DegreeSequence) -> None:
    """Raise LimitError when sum(D) exceeds MAX_DEGREE_SUM."""
    if D.total > MAX_DEGREE_SUM:
        raise LimitError(f"degree sum {D.total} exceeds guard {MAX_DEGREE_SUM}")


def render_ferrers(D: DegreeSequence, k: int) -> str:
    """Monospace Ferrers diagram, rows nonincreasing, rule after column k.

    Raises LimitError when sum(D) exceeds MAX_DEGREE_SUM."""
    if k < 1:
        raise InputError("k must be a positive integer")
    check_degree_sum(D)
    lines = []
    for v in sorted(D.values(), reverse=True):
        if v <= k:
            lines.append("#" * v)
        else:
            lines.append("#" * k + "|" + "#" * (v - k))
    return "\n".join(lines)
