"""Lower bounds on pair-covering numbers via the worst-case greedy bound.

For a (v, kappa, lambda)-covering with z blocks, the excess multigraph has
a two-valued degree sequence determined by (v, kappa, lambda, z) alone.
``apply_bound`` builds that sequence and decides the test once: if it is
not graphical, or the worst-case greedy bound on it exceeds z, no covering
with z blocks exists and the covering number is at least z + 1.  The test
can be iterated.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from typing import NamedTuple

from .errors import InputError
from .multiset import DegreeSequence
from .omega import chain_length


class CoveringParams(namedtuple("CoveringParams", "v kappa lam")):
    __slots__ = ()  # no instance dict, so no attribute can be added

    def __new__(cls, v: int, kappa: int, lam: int) -> "CoveringParams":
        if lam < 1:
            raise InputError("lambda must be positive")
        if not (3 <= kappa < v):
            raise InputError("need 3 <= kappa < v")
        return super().__new__(cls, v, kappa, lam)

    @property
    def replication(self) -> int:
        """Minimum block count through any point: ceil(lam(v-1)/(kappa-1))."""
        return -(-(self.lam * (self.v - 1)) // (self.kappa - 1))


class CoveringBoundReport(NamedTuple):
    """One application of the excess-degree-sequence test at block count z."""

    params: CoveringParams
    z: int
    r: int
    d: int
    s: int
    ell: int
    D: DegreeSequence
    k: int
    b: int | None  # b(D, k), or None when D is not graphical
    reason: str | None  # why no covering with z blocks exists, or None

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
    return -(-(v * params.replication) // kappa)


def apply_bound(params: CoveringParams, z: int) -> CoveringBoundReport:
    """Test block count z on the degree sequence D of the excess of a
    hypothetical covering with z blocks; a contradiction means the covering
    number is at least z + 1.

    A non-graphical D is a contradiction by itself, and its b is None.  The
    degree sum of the excess is fixed by z, and so is its parity; among all
    replication profiles with that sum, the balanced one tested here has the
    smallest maximum.  So if the balanced profile fails "even sum and sum >=
    twice the maximum", every profile fails, and no loopless excess
    multigraph, hence no covering with z blocks, exists.

    Otherwise b(D, k) = n - p, with the chain length p from
    ``omega.chain_length``, which builds no term of the chain, and the test
    is b > z.  Since kappa < v, r > lambda and k = r - lambda >= 1."""
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
    D = DegreeSequence.from_counts({high: ell, low: params.v - ell})
    k = r - params.lam
    if D.is_graphical():
        b = params.v - chain_length(D, k)
        reason = "b > z" if b > z else None
    else:
        b, reason = None, "excess degree sequence is not graphical"
    return CoveringBoundReport(
        params=params, z=z, r=r, d=d, s=s, ell=ell, D=D, k=k, b=b,
        reason=reason,
    )


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


ScanRow = namedtuple("ScanRow", "kappa v d r ell previous source new")

CSV_COLUMNS = list(ScanRow._fields)


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
                # DictReader fills the fields a short row lacks with None
                if None in row.values():
                    raise InputError(f"line {reader.line_num} has too few fields")
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
    if lam < 1:
        raise InputError("lambda must be positive")
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
