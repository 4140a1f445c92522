import pytest

from hallq import ChargeError, RepCategory, parse_quiver
from hallq.dh import DHAlgebra
from hallq.uq import GeneratorTable, RelationVerifier

from .conftest import load


def all_pass(checks):
    bad = [c for c in checks if c["ok"] is False]
    assert not bad, bad[:3]
    assert any(c["ok"] for c in checks)


def test_generator_table_a1(a1):
    table = GeneratorTable(a1, DHAlgebra(a1))
    assert len(table.simples) == 1
    assert len(table.simples[0]) == 1


def test_generator_table_l2_charge4(l2m4):
    table = GeneratorTable(l2m4, DHAlgebra(l2m4))
    keys = [c.key for c in table.simples[0]]
    # scalars enumerated lexicographically over F_2^2
    assert keys == ["1|0;0", "1|0;1", "1|1;0", "1|1;1"]


def test_charge_too_large():
    with pytest.raises(ChargeError):
        parse_quiver("field p=2\nvertex 1 loops=2 charge=5\n")


def test_generator_grading(l2m4):
    # all simples at one vertex share the class in K(R)
    table = GeneratorTable(l2m4, DHAlgebra(l2m4))
    classes = {tuple(c.kclass) for c in table.simples[0]}
    assert classes == {l2m4.quiver.simple_class(0)}


def test_relations_a1_fields(a1, a1p3):
    for cat in (a1, a1p3):
        all_pass(RelationVerifier(cat).verify_all())


def test_relations_a2(a2):
    ver = RelationVerifier(a2)
    checks = ver.verify_all()
    all_pass(checks)
    serre = [c for c in checks if c["id"].startswith("serre")]
    assert len(serre) == 4  # both vertex orders, E and F type


def test_relations_l2_all_charges(l2, l2m2, l2m4):
    for cat in (l2, l2m2, l2m4):
        all_pass(RelationVerifier(cat).verify_all())


def test_relations_kronecker(kronecker):
    checks = RelationVerifier(kronecker, serre_cap=4).verify_all()
    all_pass(checks)
    assert sum(c["id"].startswith("serre") for c in checks) == 4


def test_cross_commutator_checks_present(l2m2):
    checks = RelationVerifier(l2m2).check_ef_commutators()
    # charge 2: a 2x2 grid of (k,l) pairs
    assert len(checks) == 4
    all_pass(checks)


def test_orthogonal_vertices_relation():
    cat = RepCategory(load("l2_plus_a1"))
    ver = RelationVerifier(cat)
    orth = ver.check_orthogonal_pairs()
    assert len(orth) == 8  # (i,j) both orders, charge 2 at the loop vertex
    all_pass(orth)
    all_pass(ver.verify_all())


def test_serre_cap_skips(kronecker):
    checks = RelationVerifier(kronecker, serre_cap=3).check_serre()
    assert all(c["ok"] is None for c in checks)
    assert all("skipped" in c["residual"] for c in checks)


def test_negative_control_prefactor(a1):
    ring = a1.quiver.scalar_ring()
    bad = RelationVerifier(a1)
    bad.gen.f_pref = ring.rational(-1)
    checks = bad.check_ef_commutators()
    assert any(c["ok"] is False for c in checks)
    # and the honest prefactor passes the same family
    good = RelationVerifier(a1)
    assert all(c["ok"] for c in good.check_ef_commutators())


@pytest.mark.parametrize("prefactor", [None, -1])
def test_a_check_renders_once_if_it_passes_and_thrice_if_it_fails(a1, prefactor):
    # a passing check's sides are equal, so one rendering of lhs fills lhs,
    # rhs and the residual "0"; a failing check renders all three
    ver = RelationVerifier(a1)
    if prefactor is not None:
        ver.gen.f_pref = prefactor
    render, inner, renders, calls = ver.dh.render, ver._try, [], {}
    ver.dh.render = lambda x: renders.append(x) or render(x)

    def counted(cid, compute):
        before = len(renders)
        row = inner(cid, compute)
        calls[cid] = len(renders) - before
        return row

    ver._try = counted
    rows = ver.verify_all()
    assert {row["ok"] for row in rows} == ({True} if prefactor is None else {True, False})
    for row in rows:
        assert calls[row["id"]] == (1 if row["ok"] else 3), row["id"]
        if row["ok"]:
            assert row["lhs"] == row["rhs"] and row["residual"] == "0"
        else:
            assert row["lhs"] != row["rhs"] and row["residual"] != "0"


def test_report_shape(a1):
    for c in RelationVerifier(a1).verify_all():
        assert set(c) == {"id", "ok", "lhs", "rhs", "residual"}
        if c["ok"]:
            assert c["residual"] == "0"


def test_relations_a3_with_orthogonal_pair(a3):
    # the path quiver has a_13 = 0 without an edge, so the commuting
    # relation family is exercised on a connected quiver
    ver = RelationVerifier(a3)
    orth = ver.check_orthogonal_pairs()
    assert len(orth) == 4
    all_pass(orth)
    all_pass(ver.verify_all())


def test_relations_mixed_real_imaginary(mixed):
    # a connected Borcherds-Cartan datum with one real and one imaginary
    # simple root; Serre relations target the loop vertex, for both of the
    # charge-2 generators there
    assert mixed.quiver.borcherds_cartan() == [[-2, -1], [-1, 2]]
    ver = RelationVerifier(mixed)
    checks = ver.verify_all()
    all_pass(checks)
    serre = [c for c in checks if c["id"].startswith("serre")]
    assert len(serre) == 4 and all(c["ok"] for c in serre)


def test_relations_three_loops_full_charge():
    # eight generators at a single three-loop vertex; the generalized
    # Euler form takes half-integer values here, so this exercises the
    # fractional-exponent scalar arithmetic end to end
    cat = RepCategory(load("l3_m8"))
    checks = RelationVerifier(cat).verify_all()
    all_pass(checks)
    assert len(checks) == 81
