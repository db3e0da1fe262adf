"""The canonical worst-case reduction operator and the bound b_k(D).

Given a nontrivial degree sequence D, drop one copy of its maximum m and
run the deterministic decrement schedule: take a unit off the current
maximum while it exceeds k, otherwise off the smallest positive element.
The state after m decrements is the reduced sequence; iterating until the
result is trivial yields the tight worst-case size b_k(D) of a greedy
k-independent set.

No value ever rises during the schedule, so its s = sum(A_0) steps, with
A_0 the input less one m, follow from A_0 in two phases.  First the
elements above k sink to k: the top run goes down one level at a time,
each level listed once per element of the run, and every run it reaches
joins it.  Then every element is at most k, and each falls to 0 in turn,
smallest first.  ``decrement_sequence`` keeps the schedule as these
segments, at most two per distinct value, so its record costs O(d) for d
distinct values whatever s is.  Writing the schedule out costs its
characters plus one int-to-string conversion per hundred levels of a
segment; a countdown is written once and repeated.

``chain_runs`` builds the runs of every term of the chain, one
``_Blocks.reduce`` a step; ``b`` keeps them as ``DegreeSequence`` terms,
and ``graphs.construct_worst_case`` reads them as they are.
``chain_length`` returns only the number of steps p, so b = n - p, and
builds no term: where a balanced top group above k absorbs the steps it
takes them as an integer recurrence in the group's size and sum, and once
the maximum is k the steps left follow in closed form.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import InputError, check_k, check_limit
from .multiset import MAX_DEGREE_SUM, DegreeSequence, write_runs

# Most steps above k that ``chain_length`` takes, each one ``reduce`` or one
# iteration of a group phase, before it raises LimitError: about a second
# (CPython 3.11, shared 2-vCPU VM).  A covering report at v can take about v
# of them (833,333 at v = 10^6, kappa = 7, lambda = 2, from twice the
# Schonheim bound).
MAX_CHAIN_STEPS = 2**21


class _Blocks:
    """Multiset state for the decrement schedule, kept as runs of equal values.

    ``blocks`` holds the (value, multiplicity) pairs of the positive values
    in increasing order and ``zeros`` counts the zero elements; ``total``
    is updated in O(1) per change.  The schedule only ever moves whole
    runs: above k the top block of multiplicity c drops one level per c
    decrements, and at or below k the smallest positive element falls
    straight to 0.  ``reduce`` therefore applies its m decrements in
    closed form, one block at a time, and its cost does not depend on m or
    on the size of the values.  The constructor is the core's one input
    check, k >= 1 and D graphical; no later term needs it, as each is the
    degree sequence of what the witness of ``graphs.construct_worst_case``
    has left after its scripted deletions."""

    __slots__ = ("blocks", "zeros", "total", "k")

    def __init__(self, D: DegreeSequence, k: int):
        check_k(k)
        if not D.is_graphical():
            raise InputError("input is not graphical")
        items = D.items
        self.zeros = items[0][1] if items and items[0][0] == 0 else 0
        self.blocks = deque(items[1:] if self.zeros else items)
        self.total = D.total
        self.k = k

    @property
    def top(self) -> int:
        """Largest element, 0 when no element is positive."""
        return self.blocks[-1][0] if self.blocks else 0

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The (value, multiplicity) runs of the state, zeros included."""
        items = tuple(self.blocks)
        return ((0, self.zeros),) + items if self.zeros else items

    def reduce(self) -> bool:
        """One application of the operator, in place; the one step that
        ``omega``, ``decrement_sequence``, ``b`` and ``chain_length`` share.

        Drops one copy of the maximum m and applies the first m scheduled
        decrements.  When what is left sums to less than m + 2k or has its
        maximum below k, the reduction is forced to all zeros instead, and
        True is returned for that degenerate branch."""
        blocks = self.blocks
        k = self.k
        total = self.total
        m, c = blocks[-1] if blocks else (0, 0)
        if c > 1:
            blocks[-1] = (m, c - 1)
        elif c:
            blocks.pop()
        else:
            self.zeros -= 1
        total -= m
        if total < m + 2 * k or not blocks or blocks[-1][0] < k:
            self.zeros += sum(c for _, c in blocks)
            self.total = 0
            blocks.clear()
            return True
        # what is left sums to at least m + 2k, so the blocks never run out
        self.total = total - m
        t = m
        while t:
            v, c = blocks[-1]
            if v > k:
                # the top block sinks to the next value or to k
                blocks.pop()
                below = blocks[-1][0] if blocks else 0
                floor = below if below > k else k
                q = t // c
                if q < v - floor:
                    # q whole levels, then r copies one level further
                    r = t - q * c
                    w = v - q
                    if r and w - 1 == below:
                        blocks[-1] = (below, blocks[-1][1] + r)
                    elif r:
                        blocks.append((w - 1, r))
                    blocks.append((w, c - r))
                    break
                t -= c * (v - floor)
                if floor == below:
                    blocks[-1] = (below, blocks[-1][1] + c)
                else:
                    blocks.append((floor, c))
            else:
                # the smallest positive elements fall to 0 one at a time
                x, c = blocks.popleft()
                q = t // x
                if q < c:
                    r = t - q * x
                    self.zeros += q
                    left = c - q - (r > 0)
                    if left:
                        blocks.appendleft((x, left))
                    if r:
                        blocks.appendleft((x - r, 1))
                    break
                t -= c * x
                self.zeros += c
        return False

    def sink_group(self, p: int) -> int:
        """The steps of the chain that a balanced top group absorbs, in
        place; returns the number of steps taken.  ``p`` counts the steps
        the walk has taken, the group takes at most MAX_CHAIN_STEPS - p
        more, and with none left LimitError is raised, as the walk, still
        above k, needs step p + 1.

        The group is the top run v, with the run v - 1 if there is one, all
        above k: c elements with sum T, over the floor f = max(k, next
        value below).  A step drops the maximum m = ceil(T/c) and takes m
        more from the group, which stays balanced, while T - 2m >= (c - 1)f.
        No step passes with c <= 2, where T <= 2m, and once c >= 3 the
        total stays at least 2m + (c - 1)f >= 2m + 2k, so the step is not
        degenerate, and ``reduce`` would take the same steps.  Each step is
        O(1) on (T, c), and the runs are rebuilt once at the end."""
        blocks = self.blocks
        k = self.k
        v, c = blocks[-1]
        T = v * c
        i = len(blocks) - 2
        if i >= 0 and blocks[i][0] == v - 1 > k:
            T += (v - 1) * blocks[i][1]
            c += blocks[i][1]
            i -= 1
        below = blocks[i][0] if i >= 0 else 0
        f = max(below, k)
        start, size = T, c
        for _ in range(MAX_CHAIN_STEPS - p):
            m = -(-T // c)
            if T - 2 * m < (c - 1) * f:
                break
            T -= 2 * m
            c -= 1
        else:
            check_limit("chain step", p + 1, MAX_CHAIN_STEPS)
        steps = size - c
        if steps:
            while len(blocks) > i + 1:
                blocks.pop()
            q, r = divmod(T, c)
            if q == below:
                blocks[-1] = (below, blocks[-1][1] + c - r)
            else:
                blocks.append((q, c - r))
            if r:
                blocks.append((q + 1, r))
            self.total -= start - T
        return steps


class DecrementTrace(NamedTuple):
    """Full record of one reduction: the schedule and the result.

    The intermediate states follow from it: A_0 is the input without one
    copy of m, A_i is A_{i-1} with one copy of a_i replaced by a_i - 1, and
    omega is A_m unless the reduction is degenerate.  The schedule ``a``
    lists the levels the elements above k pass through as they sink to k,
    then each element counting down from min(x, k) to 1, smallest first.

    ``segments`` holds it as (hi, lo, c, n): the levels hi, hi - 1, ...,
    lo + 1, each listed c times, and that block listed n times.  A sinking
    segment has n = 1 and a countdown has lo = 0 and c = 1, one of each at
    most per distinct value of A_0."""

    k: int
    input: DegreeSequence
    m: int
    s: int
    segments: tuple[tuple[int, int, int, int], ...]
    omega: DegreeSequence
    degenerate: bool

    @property
    def a(self) -> tuple[int, ...]:
        """The schedule (a_1, ..., a_s), expanded from ``segments``."""
        return tuple(
            x for hi, lo, c, n in self.segments for _ in range(n)
            for x in range(hi, lo, -1) for _ in range(c)
        )

    def write_schedule(self, sep: str) -> str:
        """The schedule as text with ``sep`` between entries, written from
        ``segments``: each block of levels is written once and repeated n
        times.  ``sep`` holds no "#", the digit templates' placeholder."""
        return write_runs(
            ((_write_levels(hi, lo, c, sep), n) for hi, lo, c, n in self.segments), sep
        )


def _write_levels(hi: int, lo: int, c: int, sep: str) -> str:
    """The levels hi, hi - 1, ..., lo + 1, each listed c times, as text with
    ``sep`` between entries.  The levels 100q + 99, ..., 100q of a whole
    hundred are one template of their last two digits with str(q) put in,
    so a long range costs one conversion per hundred levels, not per level."""
    q_hi, q_lo = (hi - 99) // 100, lo // 100 + 1  # the whole hundreds
    if q_hi < q_lo:
        text = "".join([f"{x}{sep}" * c for x in range(hi, lo, -1)])
    else:
        hundred = "".join([f"#{r:02d}{sep}" * c for r in range(99, -1, -1)])
        text = "".join(
            [f"{x}{sep}" * c for x in range(hi, 100 * q_hi + 99, -1)]
            + [hundred.replace("#", str(q)) for q in range(q_hi, q_lo - 1, -1)]
            + [f"{x}{sep}" * c for x in range(100 * q_lo - 1, lo, -1)]
        )
    return text[: len(text) - len(sep)]


class BTrace(NamedTuple):
    """Iteration chain D, O(D), O^2(D), ... down to the first trivial term."""

    k: int
    chain: tuple[DegreeSequence, ...]
    p: int
    b: int


def omega(D: DegreeSequence, k: int) -> DegreeSequence:
    """One application of the reduction operator (order drops by one)."""
    state = _Blocks(D, k)
    if not D.items:
        raise InputError("cannot reduce the empty sequence")
    state.reduce()
    return DegreeSequence(state.runs())


def decrement_sequence(D: DegreeSequence, k: int) -> DecrementTrace:
    """The full decrement schedule (a_1, ..., a_s) of D, with s = sum(A_0).

    The schedule is kept as the segments of its two phases, read off A_0's
    runs in O(d).  In the degenerate branch (reduction forced to all
    zeros) it is unused and returned empty.  Raises LimitError when sum(D)
    exceeds MAX_DEGREE_SUM, as the schedule written out has s entries."""
    state = _Blocks(D, k)
    if not D.items:
        raise InputError("cannot reduce the empty sequence")
    if state.top < k:
        raise InputError("input is trivial")
    check_limit("degree sum", D.total, MAX_DEGREE_SUM)
    m = D.max_value
    degenerate = state.reduce()
    segments = []
    items = () if degenerate else D.without_one(m).items  # A_0's runs
    # sink to k; c counts the elements above k, all at the current level
    c = 0
    for i in range(len(items) - 1, -1, -1):
        v, n = items[i]
        if v <= k:
            break
        c += n
        segments.append((v, max(items[i - 1][0], k) if i else k, c, 1))
    # fall to 0: every element is at most k now, smallest first
    segments += [(min(x, k), 0, 1, n) for x, n in items if x]
    return DecrementTrace(
        k=k, input=D, m=m, s=D.total - m, segments=tuple(segments),
        omega=DegreeSequence(state.runs()), degenerate=degenerate,
    )


def chain_runs(D: DegreeSequence, k: int) -> list[tuple[tuple[int, int], ...]]:
    """The runs of every term of the reduction chain of D, down to the
    first trivial term: the chain of ``b`` without a ``DegreeSequence`` per
    term.

    Each step costs O(d) for a term with d distinct values (the blocks the
    schedule touches, plus the copy of the runs kept), so a chain of p <= n
    steps costs O(p * d), whatever the size of the degrees."""
    state = _Blocks(D, k)  # one block state carried along the whole chain
    terms = [D.items]
    while state.top >= k:
        state.reduce()
        terms.append(state.runs())
    return terms


def b(D: DegreeSequence, k: int) -> BTrace:
    """Worst-case greedy k-independent set size over realizations of D.

    Runs the reduction chain until the first trivial term, as
    ``chain_runs``, and keeps each term as a ``DegreeSequence``."""
    terms = chain_runs(D, k)
    chain = (D, *map(DegreeSequence, terms[1:]))
    p = len(chain) - 1
    return BTrace(k=k, chain=chain, p=p, b=D.order - p)


def chain_length(D: DegreeSequence, k: int) -> int:
    """The number of steps p of the reduction chain of D, so that
    b(D, k) = n - p, without building any term.

    While the maximum is above k, ``sink_group`` takes the steps a
    balanced top group absorbs, O(1) each, and every other step is one
    ``_Blocks.reduce``.

    Once the maximum is k, with c copies and total T, exactly
    N = min(c, T // 2k) steps remain.  A step drops one k and takes k units
    off the smallest positive elements, so it removes 2k from the total.
    The units eat the S = T - c*k units below the copies first, so after
    i steps c - i - max(0, i - S // k) copies are untouched.  Since
    T < (c + S // k + 1) * k, 2N <= c + S // k, so before each of the
    first N - 1 steps at least two copies are untouched and the total is
    at least 4k: the step is not degenerate and the maximum stays k.  The
    N-th step still finds a copy and a total of at least 2k.  After it no
    copy is left (N = c), or the total before it was below 4k (N = T // 2k)
    and the step was degenerate.  The walk costs one ``reduce`` a step
    above k outside the group phases, O(1) a step inside them and O(1) for
    the tail, whatever the size of the degrees.  It raises LimitError
    rather than take more than MAX_CHAIN_STEPS steps above k."""
    state = _Blocks(D, k)
    p = 0
    while state.top > k:
        steps = state.sink_group(p)
        if not steps:
            state.reduce()
            steps = 1
        p += steps
    if state.top == k:
        p += min(state.blocks[-1][1], state.total // (2 * k))
    return p
