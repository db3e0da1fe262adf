"""Lower bounds on pair-covering numbers via the worst-case greedy bound.

For a (v, kappa, lambda)-covering with z blocks, the excess multigraph has
a two-valued degree sequence determined by (v, kappa, lambda, z) alone.
If the worst-case greedy bound on that sequence exceeds z, no covering
with z blocks exists and the covering number is at least z + 1; the test
can be iterated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import InputError
from .multiset import DegreeSequence
from .omega import b as omega_b
from .omega import exceeds


@dataclass(frozen=True)
class CoveringParams:
    v: int
    kappa: int
    lam: int

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise InputError("lambda must be positive")
        if not (3 <= self.kappa < self.v):
            raise InputError("need 3 <= kappa < v")

    @property
    def replication(self) -> int:
        """Minimum block count through any point: ceil(lam(v-1)/(kappa-1))."""
        return -(-(self.lam * (self.v - 1)) // (self.kappa - 1))


@dataclass(frozen=True)
class CoveringBoundReport:
    """One application of the excess-degree-sequence test at block count z."""

    params: CoveringParams
    z: int
    r: int
    d: int
    s: int
    ell: int
    D: DegreeSequence
    k: int
    b_exceeds_z: bool = False  # the decision b(D, k) > z of apply_bound

    @cached_property
    def b(self) -> int | None:
        """b(D, k), computed when first read, or None when D is not
        graphical.  The test itself only needs the decision b > z; the
        whole chain is walked only for a report whose b is read."""
        return omega_b(self.D, self.k).b if self.D.is_graphical() else None

    @property
    def reason(self) -> str | None:
        """Why no covering with z blocks exists, or None if the test passes."""
        if not self.D.is_graphical():
            return "excess degree sequence is not graphical"
        if self.b_exceeds_z:
            return "b > z"
        return None

    @property
    def contradiction(self) -> bool:
        return self.reason is not None

    def to_json(self) -> dict:
        return {
            "v": self.params.v,
            "kappa": self.params.kappa,
            "lambda": self.params.lam,
            "z": self.z,
            "r": self.r,
            "d": self.d,
            "s": self.s,
            "ell": self.ell,
            "k": self.k,
            "b": self.b,
            "contradiction": self.contradiction,
            "reason": self.reason,
        }


def schonheim(v: int, kappa: int, lam: int = 1) -> int:
    """Classical replication-count lower bound on the covering number."""
    params = CoveringParams(v, kappa, lam)
    return math.ceil(v * params.replication / kappa)


def excess_profile(params: CoveringParams, z: int) -> CoveringBoundReport:
    """Degree-sequence profile of the excess of a hypothetical covering with
    z blocks; the decision b > z is left unfilled."""
    r = params.replication
    d = r * (params.kappa - 1) - params.lam * (params.v - 1)
    if params.kappa * z < r * params.v:
        raise InputError(
            f"z={z} is below the replication bound ({params.kappa}z < {r}v)"
        )
    surplus = params.kappa * z - r * params.v
    s, ell = divmod(surplus, params.v)
    high = d + (s + 1) * (params.kappa - 1)
    low = d + s * (params.kappa - 1)
    counts: dict[int, int] = {}
    if ell:
        counts[high] = ell
    counts[low] = counts.get(low, 0) + params.v - ell
    D = DegreeSequence.from_counts(counts)
    return CoveringBoundReport(
        params=params, z=z, r=r, d=d, s=s, ell=ell, D=D, k=r - params.lam
    )


def apply_bound(params: CoveringParams, z: int) -> CoveringBoundReport:
    """Test block count z; a contradiction means the covering number is at
    least z + 1.

    The report stores the decision b(D, k) > z from ``omega.exceeds``,
    which on the covering scan walks about half of the reduction chain;
    b itself is computed only if the report's ``b`` is read.

    A non-graphical excess profile is a contradiction by itself, and its b
    is None.  The degree sum of the excess is fixed by z, and so is its
    parity; among all replication profiles with that sum, the balanced one
    tested here has the smallest maximum.  So if the balanced profile
    fails "even sum and sum >= twice the maximum", every profile fails, and
    no loopless excess multigraph, hence no covering with z blocks, exists.
    Since kappa < v, r > lambda and k = r - lambda >= 1."""
    rep = excess_profile(params, z)
    if not rep.D.is_graphical():
        return rep
    return replace(rep, b_exceeds_z=exceeds(rep.D, rep.k, z))


def covering_lower_bound(
    params: CoveringParams, z0: int
) -> tuple[int, list[CoveringBoundReport]]:
    """Iterate the contradiction test from z0; returns the smallest z >= z0
    that survives, with the report for every tested z."""
    z = z0
    reports: list[CoveringBoundReport] = []
    while True:
        rep = apply_bound(params, z)
        reports.append(rep)
        if not rep.contradiction:
            return z, reports
        z += 1


@dataclass(frozen=True)
class ScanRow:
    kappa: int
    v: int
    d: int
    r: int
    ell: int
    previous: int
    source: str
    new: int

    def to_csv_row(self) -> list:
        return [self.kappa, self.v, self.d, self.r, self.ell,
                self.previous, self.source, self.new]


CSV_COLUMNS = ["kappa", "v", "d", "r", "ell", "previous", "source", "new"]


def load_priors(path: str) -> dict[tuple[int, int, int], tuple[int, str]]:
    """Read a prior-bounds CSV with columns kappa,v,lambda,bound,source."""
    priors: dict[tuple[int, int, int], tuple[int, str]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"kappa", "v", "lambda", "bound", "source"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise InputError(
                    f"priors file must have columns {sorted(required)}"
                )
            for row in reader:
                key = (int(row["kappa"]), int(row["v"]), int(row["lambda"]))
                priors[key] = (int(row["bound"]), row["source"])
    except (OSError, ValueError) as exc:
        raise InputError(f"malformed priors file {path}: {exc}") from exc
    return priors


def scan_range(kappa: int, lam: int = 1) -> range:
    """The v range scanned for a given block size: 13k/4 < v <= (k-1)^2/lam + 1."""
    lo = (13 * kappa) // 4 + 1
    hi = (kappa - 1) ** 2 // lam + 1
    return range(lo, hi + 1)


def scan_table(
    kappa_min: int,
    kappa_max: int,
    lam: int = 1,
    priors: dict[tuple[int, int, int], tuple[int, str]] | None = None,
) -> list[ScanRow]:
    """Scan (kappa, v) cells and report every improvement over the baseline.

    The baseline for each cell is the larger of the replication bound and
    any supplied prior; rows are emitted in (kappa, v) order."""
    if not (5 <= kappa_min <= kappa_max):
        raise InputError("need 5 <= kappa_min <= kappa_max")
    priors = priors or {}
    rows: list[ScanRow] = []
    for kappa in range(kappa_min, kappa_max + 1):
        for v in scan_range(kappa, lam):
            params = CoveringParams(v, kappa, lam)
            base = schonheim(v, kappa, lam)
            source = "Schönheim bound"
            prior = priors.get((kappa, v, lam))
            if prior is not None and prior[0] > base:
                base, source = prior
            new, reports = covering_lower_bound(params, base)
            if new > base:
                first = reports[0]
                rows.append(
                    ScanRow(
                        kappa=kappa, v=v, d=first.d, r=first.r, ell=first.ell,
                        previous=base, source=source, new=new,
                    )
                )
    return rows
