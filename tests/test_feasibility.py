import pytest

from cubicsd import feasibility as fs
from cubicsd.construct import AutType

CORRECTED_SURVIVORS = {
    "47-(1,1)",
    "23-(2,2)",
    "11-(4,4)",
    "7-(6,6)",
    "5-(8,8)",
    "3-(12,12)",
    "3-(14,6)",
    "3-(16,0)",
}


def test_g_values():
    assert fs.g(1, 10) == 10
    assert fs.g(4, 10) == 20
    assert fs.g(16, 10) == 32
    with pytest.raises(ValueError):
        fs.g(0, 10)


def test_g_monotone():
    for d in (2, 4, 10, 12):
        prev = 0
        for k in range(1, 30):
            val = fs.g(k, d)
            assert val >= max(prev, d)
            prev = val


def test_primitive_root_predicate():
    for p in (3, 5, 11, 13, 37):
        assert fs.is_primitive_root(2, p)
    for p in (7, 17, 23, 31, 41, 43, 47):
        assert not fs.is_primitive_root(2, p)
    with pytest.raises(ValueError):
        fs.multiplicative_order(4, 8)


def test_bound_survivors():
    survivors = {str(t) for t in fs.surviving_types(48, 10)}
    assert survivors == CORRECTED_SURVIVORS


def test_bound_examples():
    r = fs.bound_report(AutType(3, 10, 18), 10)
    assert r.status == "eliminated_bound_ii"
    assert "g(4) = 20" in r.detail
    # equality refinement is needed here: f = g(k) exactly
    r = fs.bound_report(AutType(3, 8, 24), 10)
    assert r.status == "eliminated_bound_i"
    assert "forbids equality" in r.detail
    r = fs.bound_report(AutType(5, 4, 28), 10)
    assert r.status == "eliminated_bound_i"


def test_parity_elimination():
    # 2 is a primitive root mod 5, so odd c is impossible
    r = fs.bound_report(AutType(5, 9, 3), 10)
    assert r.status in ("eliminated_bound_i", "eliminated_parity_iii")
    r = fs.bound_report(AutType(3, 15, 3), 10)
    assert r.status == "eliminated_parity_iii"


def test_congruence_eliminations():
    r = fs.congruence_eliminate(AutType(47, 1, 1))
    assert r.status == "eliminated_congruence"
    assert "704 mod 47 = 46" in r.detail and "768 mod 47 = 16" in r.detail
    r = fs.congruence_eliminate(AutType(23, 2, 2))
    assert r.status == "eliminated_congruence"
    assert "704 mod 23 = 14" in r.detail and "768 mod 23 = 9" in r.detail
    with pytest.raises(ValueError):
        fs.congruence_eliminate(AutType(3, 16, 0))


def test_congruence_vacuous_survival():
    r = fs.congruence_eliminate(AutType(47, 1, 1), a10_candidates=(47 * 15,))
    assert r.status == "survives"


def test_external_eliminations():
    reports = fs.external_eliminations()
    by_type = {str(r.type): r for r in reports}
    assert set(by_type) == {
        "3-(12,12)",
        "3-(14,6)",
        "11-(4,4)",
        "7-(6,6)",
        "5-(8,8)",
    }
    for r in reports:
        assert r.status == "eliminated_external"
        assert r.citation
    # the locally re-checked fragments annotate the detail text
    assert "confirm" in by_type["3-(12,12)"].detail
    assert "confirm" in by_type["7-(6,6)"].detail
    assert "confirm" in by_type["5-(8,8)"].detail


def test_full_pipeline_single_survivor():
    reports = fs.full_pipeline(48, 10)
    survivors = [r.type for r in reports if r.status == "survives"]
    assert [str(t) for t in survivors] == ["3-(16,0)"]
    # every eliminated report has an instantiated reason
    for r in reports:
        if r.eliminated:
            assert r.detail


@pytest.mark.parametrize("d", [12, 11])
def test_full_pipeline_refuses_other_parameters(d):
    # q48, a [48,24,12] code, has automorphisms of types 47-(1,1) and
    # 23-(2,2), which the [48,24,10] congruences would eliminate.
    assert "47-(1,1)" in {str(t) for t in fs.surviving_types(48, d)}
    for pipeline in (fs.full_pipeline, fs.final_survivors):
        with pytest.raises(ValueError, match=r"\(48, 10\)"):
            pipeline(48, d)


def test_report_invariants():
    with pytest.raises(ValueError):
        fs.EliminationReport(AutType(3, 16, 0), "bogus", "x")
    with pytest.raises(ValueError):
        fs.EliminationReport(AutType(3, 16, 0), "eliminated_external", "x")
    r = fs.EliminationReport(AutType(3, 16, 0), "survives", "ok")
    assert r.as_dict()["type"] == "3-(16,0)"
