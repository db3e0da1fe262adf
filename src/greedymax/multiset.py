"""Multisets of nonnegative integers (degree sequences) and their conjugate profiles.

A degree sequence is stored as its runs, the sorted (value, multiplicity)
pairs.  The conjugate view sigma(z) = #{x in D : x >= z} is the column
profile of the Ferrers diagram and is the workhorse for the dominance
arguments elsewhere; it is read from the runs, never stored.

Every query or edit of a sequence is a ``DegreeSequence`` method; the
module functions build, guard or render sequences.  ``write_runs`` writes
runs as text, one string repeat per run, so writing a sequence costs its d
runs plus the characters written, not one conversion per element; its
``repr`` and the CLI's output go through it.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError, check_k, check_limit

MAX_DEGREE = 2**31 - 1

# Largest degree sum accepted by the routines whose output grows with it:
# omega.decrement_sequence (about sum(D) schedule entries), render_ferrers
# (one cell per unit) and graphs.construct_worst_case on n vertices with
# n(n - 1) above it too (up to sum(D)/2 edges).  It also bounds the vertex
# count of a graphs.Multigraph built from edges.
MAX_DEGREE_SUM = 2**21

# one item of a JSON integer array, with the whitespace JSON allows
_JSON_INT = re.compile(r"[ \t\n\r]*-?(?:0|[1-9][0-9]*)[ \t\n\r]*")


class DegreeSequence(NamedTuple):
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
        """Sorted nondecreasing value list, one entry per element."""
        out: list[int] = []
        for v, m in self.items:
            out.extend([v] * m)
        return out

    def __len__(self) -> int:
        return self.order

    def __contains__(self, v: int) -> bool:
        return self.mu(v) > 0

    def __repr__(self) -> str:
        return "{%s}" % write_runs(self.items, ",")

    def __reduce__(self):
        # for copy and pickle: tuple(self) would be sized by __len__, the order
        return DegreeSequence, (self.items,)

    # -- mu / sigma calculus -------------------------------------------

    def mu(self, z: int) -> int:
        """Multiplicity of z in the multiset."""
        for v, m in self.items:
            if v == z:
                return m
        return 0

    def sigma(self, z: int) -> int:
        """Conjugate profile: the number of elements >= z, read from the
        runs in O(d) for d distinct values."""
        if z < 0:
            raise InputError("sigma argument must be nonnegative")
        count = 0
        for v, m in reversed(self.items):
            if v < z:
                break
            count += m
        return count

    # -- multiset algebra ----------------------------------------------

    def without_one(self, v: int) -> "DegreeSequence":
        """Remove a single copy of v."""
        if self.mu(v) == 0:
            raise InputError(f"value {v} not present")
        counts = self.counts
        counts[v] -= 1
        return DegreeSequence.from_counts(counts)

    def replace_one(self, x: int, y: int) -> "DegreeSequence":
        """Replace a single copy of x by y."""
        if self.mu(x) == 0:
            raise InputError(f"value {x} not present")
        counts = self.counts
        counts[x] -= 1
        counts[y] = counts.get(y, 0) + 1
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
        check_k(k)
        if not self.items:
            return True
        return self.max_value < k


def write_runs(runs: Iterable[tuple[object, int]], sep: str) -> str:
    """The entries of (value, count) runs as text, with ``sep`` between
    entries: each value is converted to a string once and repeated count
    times, so the cost follows the number of runs, not of entries."""
    text = "".join([f"{v}{sep}" * c for v, c in runs])
    return text[: len(text) - len(sep)]


def make_degree_sequence(values: Iterable[int]) -> DegreeSequence:
    return DegreeSequence.from_values(values)


def from_sigma(profile: Iterable[int]) -> DegreeSequence:
    """The unique multiset with conjugate profile [sigma(0), ..., sigma(M)]:
    mu(z) = sigma(z) - sigma(z + 1), with sigma zero past the end.

    sigma(0) is the order of the multiset; the profile must be nonempty,
    nonincreasing and nonnegative."""
    cols = [int(v) for v in profile]
    if not cols:
        raise InputError("profile must contain sigma(0)")
    items = []
    for z, (a, b) in enumerate(zip(cols, cols[1:])):
        if a < b:
            raise InputError("profile must be nonincreasing")
        if a > b:
            items.append((z, a - b))
    top = len(cols) - 1
    if cols[top] < 0:  # the least value, as the profile is nonincreasing
        raise InputError("profile values must be nonnegative")
    if cols[top]:
        items.append((top, cols[top]))
    # the runs come out in increasing value order, as DegreeSequence keeps them
    return DegreeSequence(tuple(items))


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


def render_ferrers(D: DegreeSequence, k: int) -> str:
    """Monospace Ferrers diagram, rows nonincreasing, rule after column k.

    Raises LimitError when sum(D) exceeds MAX_DEGREE_SUM."""
    check_k(k)
    check_limit("degree sum", D.total, MAX_DEGREE_SUM)
    lines = []
    for v in sorted(D.values(), reverse=True):
        if v <= k:
            lines.append("#" * v)
        else:
            lines.append("#" * k + "|" + "#" * (v - k))
    return "\n".join(lines)
