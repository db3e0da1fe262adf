import pytest

from greedymax.covering import (
    CoveringParams,
    apply_bound,
    covering_lower_bound,
    excess_profile,
    load_priors,
    scan_range,
    scan_table,
    schonheim,
)
from greedymax.errors import InputError
from greedymax.multiset import make_degree_sequence


def test_schonheim_worked_example():
    assert schonheim(50, 14, 1) == 15


def test_schonheim_table_row():
    assert schonheim(155, 19, 1) == 74


def test_schonheim_small_closed_case():
    assert schonheim(5, 4, 1) == 3


def test_schonheim_rejects_bad_params():
    with pytest.raises(InputError):
        schonheim(5, 5, 1)
    with pytest.raises(InputError):
        schonheim(10, 2, 1)
    with pytest.raises(InputError):
        schonheim(10, 4, 0)


def test_excess_profile_worked_example():
    rep = excess_profile(CoveringParams(50, 14, 1), 16)
    assert (rep.r, rep.d, rep.s, rep.ell) == (4, 3, 0, 24)
    assert rep.D == make_degree_sequence([16] * 24 + [3] * 26)
    assert rep.k == 3


def test_excess_profile_table_row():
    rep = excess_profile(CoveringParams(56, 16, 1), 15)
    assert (rep.d, rep.r, rep.ell) == (5, 4, 16)


def test_excess_profile_small_case():
    rep = excess_profile(CoveringParams(5, 4, 1), 3)
    assert (rep.r, rep.d, rep.s, rep.ell) == (2, 2, 0, 2)
    assert rep.D == make_degree_sequence([5, 5, 2, 2, 2])


def test_excess_profile_below_replication_bound():
    with pytest.raises(InputError):
        excess_profile(CoveringParams(50, 14, 1), 14)


def test_covering_lower_bound_worked_example():
    final, reports = covering_lower_bound(CoveringParams(50, 14, 1), 16)
    assert final == 17
    assert reports[0].b == 17 and reports[0].contradiction
    assert not reports[-1].contradiction


def test_covering_lower_bound_stable_at_17():
    final, _ = covering_lower_bound(CoveringParams(50, 14, 1), 17)
    assert final == 17


def test_covering_lower_bound_feasible_small_case():
    # C_1(5,4) = 3 is attained by a real covering, so no contradiction may fire
    final, reports = covering_lower_bound(CoveringParams(5, 4, 1), 3)
    assert final == 3
    assert not reports[0].contradiction


def test_excess_sum_identity():
    for params, z in [
        (CoveringParams(50, 14, 1), 16),
        (CoveringParams(56, 16, 1), 15),
        (CoveringParams(155, 19, 1), 74),
        (CoveringParams(5, 4, 1), 4),
    ]:
        rep = excess_profile(params, z)
        surplus = params.kappa * z - rep.r * params.v
        assert rep.s * params.v + rep.ell == surplus
        assert rep.D.total == params.v * rep.d + surplus * (params.kappa - 1)
        assert rep.D.is_graphical()
        assert len(rep.D) == params.v


def test_bound_never_exceeds_v():
    for v, kappa in [(20, 5), (30, 7), (26, 6)]:
        params = CoveringParams(v, kappa, 1)
        final, _ = covering_lower_bound(params, schonheim(v, kappa, 1))
        assert final <= v


def test_no_improvement_when_r_at_least_kappa():
    # sampled grid with v > (kappa-1)^2 + 1 so the replication count reaches kappa
    for kappa in (5, 6, 7):
        v = (kappa - 1) ** 2 + 2
        params = CoveringParams(v, kappa, 1)
        base = schonheim(v, kappa, 1)
        final, _ = covering_lower_bound(params, base)
        assert final == base


def test_scan_range_bounds():
    r = scan_range(14)
    assert r.start == 46 and r.stop == 171  # 13*14/4 = 45.5, (14-1)^2+1 = 170
    r = scan_range(16)
    assert r.start == 53  # 13*16/4 = 52 exactly, strict inequality


def test_scan_table_finds_first_table_row():
    priors = {(14, 50, 1): (16, "prior")}
    rows = scan_table(14, 14, 1, priors)
    hit = [r for r in rows if r.v == 50]
    assert len(hit) == 1
    row = hit[0]
    assert (row.d, row.r, row.ell) == (3, 4, 24)
    assert row.previous == 16 and row.new == 17 and row.source == "prior"


def test_load_priors(tmp_path):
    p = tmp_path / "priors.csv"
    p.write_text("kappa,v,lambda,bound,source\n14,50,1,16,Thm9\n")
    priors = load_priors(str(p))
    assert priors[(14, 50, 1)] == (16, "Thm9")


def test_load_priors_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("kappa,v\n14,50\n")
    with pytest.raises(InputError):
        load_priors(str(p))
    with pytest.raises(InputError):
        load_priors(str(tmp_path / "missing.csv"))


def test_apply_bound_fills_b():
    rep = apply_bound(CoveringParams(50, 14, 1), 16)
    assert rep.b == 17
    assert rep.to_json()["contradiction"] is True


@pytest.mark.parametrize(
    "kappa,v,start,final",
    [(19, 91, 24, 28), (19, 271, 214, 219), (11, 41, 15, 18), (11, 81, 59, 62)],
)
def test_d0_cells_start_with_a_non_graphical_excess(kappa, v, start, final):
    # d = 0 and, at the Schönheim bound, ell = 1 and s = 0: one point lies in
    # one block more than the others, so the excess is {kappa-1, 0 x (v-1)}.
    # Its only positive degree has no neighbour to go to, and every other
    # replication profile with the same degree sum has a maximum at least as
    # large, so no covering with `start` blocks exists.
    params = CoveringParams(v, kappa, 1)
    assert schonheim(v, kappa, 1) == start
    bound, reports = covering_lower_bound(params, start)
    first = reports[0]
    assert first.D == make_degree_sequence([kappa - 1] + [0] * (v - 1))
    assert first.b is None and first.contradiction
    assert first.to_json()["reason"] == "excess degree sequence is not graphical"
    # the next block counts fail by b > z; the points of zero excess
    # always survive, which alone gives b > z for the smaller z
    for rep in reports[1:-1]:
        assert rep.D.is_graphical() and rep.b > rep.z
        assert rep.to_json()["reason"] == "b > z"
    assert bound == final and reports[-1].z == final
    assert reports[-1].to_json()["reason"] is None


def test_scan_table_covers_d0_cells():
    rows = {(r.kappa, r.v): r.new for r in scan_table(11, 11)}
    assert rows[(11, 41)] == 18 and rows[(11, 81)] == 62
