import hashlib
import json
import pathlib
import re
import time

import pytest

import hallq.cli
from hallq.cli import main
from hallq.dh import DHAlgebra
from hallq.repcat import RepCategory
from hallq.uq import RelationVerifier

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_l2(capsys):
    code, out, _ = run(capsys, "classify", "--quiver", DATA / "l2.quiver", "--dim", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_classify_a2_and_zero(capsys):
    code, out, _ = run(capsys, "classify", "--quiver", DATA / "a2.quiver", "--dim", "1,1")
    assert code == 0 and len(out.strip().splitlines()) == 2
    code, out, _ = run(capsys, "classify", "--quiver", DATA / "a2.quiver", "--dim", "0,0")
    assert code == 0 and len(out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--dim", "1,x"),
        ("classify", "--dim", "1"),
        ("classify", "--dim", "1,-1"),
        ("product", "--expr", "K(1,x)"),
        ("product", "--expr", "K(1,,0)"),
        ("product", "--expr", "K(,1,0)"),
        ("product", "--expr", "K(1,0,)"),
        ("product", "--expr", "Kd( ,0)"),
        ("product", "--expr", "2/0"),
        ("product", "--expr", "v^(1/3)"),
    ],
)
def test_malformed_vectors_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv, "--quiver", DATA / "a2.quiver")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("option", ["--random", "--serre-cap", "--max-total-dim", "--max-dim"])
def test_negative_counts_are_usage_errors(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--quiver", str(DATA / "a2.quiver"), option, "-1"])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_missing_quiver_file_is_usage_error(capsys):
    code, _, err = run(
        capsys, "classify", "--quiver", DATA / "nonexist.quiver", "--dim", "1"
    )
    assert code == 2 and err.startswith("error: ")


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--quiver", DATA / "l2.quiver", "--dim", "1", "--json"
    )
    data = json.loads(out)
    assert [row["aut"] for row in data["classes"]] == [1, 1, 1, 1]


def test_product_ef(capsys):
    code, out, _ = run(
        capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "E[1|] F[1|]"
    )
    assert code == 0
    assert "E[1|] F[1|]" in out


def test_product_fe_shows_cartan_terms(capsys):
    code, out, _ = run(
        capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "F[1|] E[1|]"
    )
    assert code == 0
    assert "Kd(1)" in out and "K(1)" in out


def test_product_k_conjugation(capsys):
    code, out, _ = run(
        capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "K(1) E[1|] K(-1)"
    )
    assert code == 0
    # v^((S,S)) = v^2 = q = 2 at p = 2
    assert out.strip() == "(2)*E[1|]"


def test_product_empty_expr_is_unit(capsys):
    code, out, _ = run(capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "")
    assert code == 0
    assert out.strip() == "(1)*1"


def test_product_scalar_literals(capsys):
    code, out, _ = run(
        capsys, "product", "--quiver", DATA / "a1.quiver",
        "--expr", "3/2*v^(1) E[1|] - v E[1|]",
    )
    assert code == 0
    assert out.strip() == "(1/2*v^(1))*E[1|]"


def test_product_reduced(capsys):
    code, out, _ = run(
        capsys, "product", "--quiver", DATA / "a1.quiver",
        "--expr", "E[1|] F[1|] - F[1|] E[1|]", "--reduced",
    )
    assert code == 0
    assert "Kd" not in out and "K(-1)" in out and "K(1)" in out


@pytest.mark.parametrize("reduced", [False, True])
def test_product_json_rows_match_the_text(capsys, reduced):
    # two terms differ only in Kd, which the reduced form folds into K
    args = ["product", "--quiver", DATA / "a2.quiver", "--expr", "F[1,0|] E[1,0|] F[0,1|]"]
    args += ["--reduced"] if reduced else []
    code, text, _ = run(capsys, *args)
    assert code == 0
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["expr"] == "F[1,0|] E[1,0|] F[0,1|]" and data["reduced"] is reduced
    rows = data["terms"]
    assert len(rows) == 4
    keys = {"E", "K", "F", "coeff"} if reduced else {"E", "K", "F", "Kd", "coeff"}
    assert all(set(row) == keys for row in rows)

    def mono(row):
        bits = [f"E[{row['E']}]"] if row["E"] != "0,0|" else []
        if any(row["K"]):
            bits.append("K(" + ",".join(map(str, row["K"])) + ")")
        if row["F"] != "0,0|":
            bits.append(f"F[{row['F']}]")
        if any(row.get("Kd", ())):
            bits.append("Kd(" + ",".join(map(str, row["Kd"])) + ")")
        return " ".join(bits)

    # the rows in the text's order, each coefficient the text's
    assert " + ".join(f"({row['coeff']})*{mono(row)}" for row in rows) == text.strip()


def test_product_parse_error(capsys):
    code, _, err = run(
        capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "E[1|] %"
    )
    assert code == 2


@pytest.mark.parametrize("expr", ["E[1|] - - F[1|]", "E[1|] + - F[1|]", "- + E[1|]"])
def test_product_sign_after_sign_is_usage_error(capsys, expr):
    code, _, err = run(capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", expr)
    assert code == 2 and "sign directly after another sign" in err


@pytest.mark.parametrize("expr", ["E[1|] +", "E[1|] - ", "+", "-"])
def test_product_sign_without_term_is_usage_error(capsys, expr):
    code, _, err = run(capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", expr)
    assert code == 2 and "sign with no term after it" in err


def test_product_leading_sign_stays_legal(capsys):
    code, out, _ = run(capsys, "product", "--quiver", DATA / "a1.quiver",
                       "--expr", "- E[1|] + K( 1 )")
    assert code == 0
    assert out.strip() == "(1)*K(1) + (-1)*E[1|]"


@pytest.mark.parametrize(
    "quiver, expr, fragment",
    [
        ("a2", "E(1,0)", "E needs a class key in brackets"),
        ("a2", "K[1,0|]", "K needs a coordinate vector in parentheses"),
        ("a2", "K(1)", "K vector needs 2 coordinates"),
        ("kronecker", "E[2,1|01;00]", "is not a canonical class key (use 2,1|10;00)"),
        ("l2m2", "E[1|0;0] * * E[1|0;0]", "'*' not between two factors"),
        ("l2m2", "E[1|0;0] *", "'*' not between two factors"),
        ("l2m2", "* E[1|0;0]", "'*' not between two factors"),
        ("l2m2", "E[1|0;0] * - E[1|0;0]", "'*' not between two factors"),
    ],
    ids=["E-in-parentheses", "K-in-brackets", "K-too-short", "key-not-canonical",
         "star-star", "star-at-end", "star-at-start", "star-before-sign"],
)
def test_product_refusals_are_usage_errors(capsys, quiver, expr, fragment):
    code, out, err = run(capsys, "product", "--quiver", DATA / f"{quiver}.quiver",
                         f"--expr={expr}")
    assert code == 2 and out == "" and fragment in err


@pytest.mark.parametrize("expr", ["E[1|0;0] %", "E[1|0;0] *"])
def test_product_reads_no_class_before_the_grammar_holds(capsys, monkeypatch, expr):
    calls = []
    real = RepCategory.class_by_key
    monkeypatch.setattr(RepCategory, "class_by_key",
                        lambda self, key: calls.append(key) or real(self, key))
    code, _, _ = run(capsys, "product", "--quiver", DATA / "l2m2.quiver", "--expr", expr)
    assert code == 2 and calls == []


@pytest.mark.parametrize(
    "tail, fragment",
    [("%", "cannot parse expression at"), ("*", "'*' not between two factors"),
     ("K(1,0)", "K vector needs 1 coordinates"), ("+ F[1|0]", "malformed class key"),
     ("- 2/0", "divides by zero")],
)
def test_product_usage_error_is_not_hidden_by_a_bound(capsys, tail, fragment):
    # E[1|0;0] E[1|0;0] alone exceeds the bound (exit 3); the error after it
    # is found first, since the whole expression is read, and every factor
    # made, before any product
    code, _, err = run(capsys, "product", "--quiver", DATA / "l2m2.quiver",
                       "--max-total-dim", "1", "--expr", f"E[1|0;0] E[1|0;0] {tail}")
    assert code == 2 and fragment in err


def test_bad_class_key(capsys):
    code, _, err = run(
        capsys, "product", "--quiver", DATA / "a1.quiver", "--expr", "E[2|0]"
    )
    assert code == 2


def test_verify_a1_all(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / "a1.quiver", "--suite", "all",
        "--max-dim", "1", "--random", "3",
    )
    assert code == 0
    assert "failed" in out and " 0 failed" in out


def test_verify_relations_l2(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / "l2m2.quiver", "--suite", "relations"
    )
    assert code == 0


def test_verify_oracle_skipped_on_loops(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / "l2.quiver", "--suite", "oracle"
    )
    assert code == 0
    assert "SKIP" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / "a1.quiver", "--suite", "drinfeld",
        "--max-dim", "1", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "drinfeld"
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert {"id", "status", "lhs", "rhs", "residual", "suite"} <= set(rep["checks"][0])


# sha256 of `verify --suite drinfeld --json` as the check printed it when it
# built each right-side word with the general product (l2m2 and mixed: when
# it joined the two subobject tables itself, with its own row twists): the
# rows must not move
DRINFELD_DIGESTS = {
    "a2": "6e0d5c500bf5e8f4fcb4d00749a263e9c1a3a5e1f8bc029c62fd906b61385f8a",
    "kronecker": "5750a8d5768dd439914747e6870945d53f263f15282232c54f47109212d985f2",
    "l2": "b419e0cc09c13460bb85aff022bc9283bc76634b8deb64b919042b5716ae0fb2",
    "l2m2": "50ef1b50ea0d8ff03f20b32d582c0e47aa2133c3b15206a23c6b42abf6dedf3e",
    "mixed": "afce4ed9cb9a04035018a10eeb6c2778e4106648aa13be1b741df28b6ce15467",
}


@pytest.mark.parametrize("quiver", sorted(DRINFELD_DIGESTS))
def test_verify_drinfeld_json_is_pinned(capsys, quiver):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / f"{quiver}.quiver", "--suite", "drinfeld", "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DRINFELD_DIGESTS[quiver]


# sha256 of `verify --suite oracle --json` as the oracle printed it before
# its per-monomial and raw-differential memos (a2, kronecker) and before
# products read the unit and the zero-map cone off the factors' records
# (a1, a1p3, a1p5, a3): the rows must not move
ORACLE_DIGESTS = {
    "a1": "62a459dc10653a5a4437bbf18733537481bdeeec1c6769417ebbe594e1c0f9e5",
    "a1p3": "eb0e140180635bc3e8197e21f5989d6de7b7e64974fc127cc0f16a80a9811285",
    "a1p5": "b4c7b56b481b6cbd0b654728e85c4f3d372938a741c22a32f40ba6ad77832b32",
    "a2": "3bd43c8d6e2ebfd7b612aaa0af88152e889c8740a720631de59d4bc4b3bc9cfd",
    "a3": "b170cbe01c22c68b648f656af0c83239cca26c08654220206d3c3e9e9c1d4209",
    "kronecker": "1fdaa63fcae085e4f442cfea4c2d7087172906cdcdea776daa218210e0d37db2",
}


@pytest.mark.parametrize("quiver", sorted(ORACLE_DIGESTS))
def test_verify_oracle_json_is_pinned(capsys, quiver):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / f"{quiver}.quiver", "--suite", "oracle", "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[quiver]


# sha256 of `verify --suite oracle --max-dim 3 --json` as the oracle printed
# it when it keyed one cone per homotopy class, not per orbit; on a2 the 16
# pairs whose products need GL5(F_2) are skipped rows
ORACLE_MAX_DIM_3_DIGESTS = {
    "a2": "628016e330f2629de74d3dc306b09d2c1935d340a4512f1f72cbb1727ac1889e",
}


@pytest.mark.parametrize("quiver", sorted(ORACLE_MAX_DIM_3_DIGESTS))
def test_verify_oracle_max_dim_3_json_is_pinned(capsys, quiver):
    code, out, _ = run(capsys, "verify", "--quiver", DATA / f"{quiver}.quiver",
                       "--suite", "oracle", "--max-dim", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_MAX_DIM_3_DIGESTS[quiver]
    assert out.count('"status": "skipped"') == 16


def test_verify_json_closes_with_timings_only_under_timing(capsys):
    # without --timing the report is the pinned bytes; with it, the same
    # report closes with per-suite seconds, its keys still sorted
    verify = ("verify", "--quiver", DATA / "a2.quiver", "--json", "--suite")
    code, plain, _ = run(capsys, *verify, "relations")
    assert code == 0
    assert hashlib.sha256(plain.encode()).hexdigest() == RELATIONS_DIGESTS["a2"]
    code, timed, _ = run(capsys, *verify, "relations", "--timing")
    assert code == 0 and timed.startswith(plain[: -len("}\n")] + ', "timings": {')
    report = json.loads(timed)
    assert set(report.pop("timings")) == {"relations"} and report == json.loads(plain)
    code, timed, _ = run(capsys, *verify, "all", "--timing")
    assert code == 0
    timings = json.loads(timed)["timings"]
    assert list(timings) == sorted(["relations", "drinfeld", "assoc", "oracle"])
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())
    assert timed == json.dumps(json.loads(timed), sort_keys=True) + "\n"


# sha256 of `verify --suite assoc --json` as straightening printed it before
# `DHAlgebra.mono_product` was memoized: the rows must not move
ASSOC_DIGESTS = {
    "a2": "2b2c52856acb45aebb9d9af8e18c147abc85827b211c1ef5839ecd57fe165b69",
    "kronecker": "fe545271eb18ba774f7c71b44fcc41b6ca59dfff6cda36e542f3c9b41b06ad41",
    "l2m2": "3ae975c70a70e75bb3ba59822b97f41ef31c5945a293dfeb63f4523ef9783ebc",
}


@pytest.mark.parametrize("quiver", sorted(ASSOC_DIGESTS))
def test_verify_assoc_json_is_pinned(capsys, monkeypatch, quiver):
    # and every memoized monomial product the suite leaves behind equals the
    # one a fresh algebra computes, and every E·E coefficient list the one a
    # fresh category computes: no caller mutated a shared value
    made = []

    class Recording(hallq.cli.DHAlgebra):
        def __init__(self, cat):
            super().__init__(cat)
            made.append(self)

    monkeypatch.setattr(hallq.cli, "DHAlgebra", Recording)
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / f"{quiver}.quiver", "--suite", "assoc", "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASSOC_DIGESTS[quiver]
    (dh,) = made
    fresh = DHAlgebra(dh.cat)
    assert dh._mono
    for (m1, m2), value in dh._mono.items():
        assert fresh.mono_product(m1, m2) == value, (m1, m2)
    cat = dh.cat
    fresh_cat = RepCategory(cat.quiver, bounds=cat.bounds)
    assert cat._middle
    for (akey, bkey), value in cat._middle.items():
        a, b = fresh_cat.class_by_key(akey), fresh_cat.class_by_key(bkey)
        assert fresh_cat.middle_terms(a, b) == value, (akey, bkey)


# sha256 of `verify --suite relations --json` as the relation families
# printed it when each reduced its own sides and caught its own bound: the
# rows must not move
RELATIONS_DIGESTS = {
    "a2": "e917893d641bb8c07bdf39cd4e19509a73f5d25eecb3fbd1dcec7c084968a63f",
    "kronecker": "e16c136c38cf9c13a4989d4c091332ca1c88417dd64dfab03be0e3d2cde41441",
    "l2m2": "6bac8b7ad145bb234e15b20bc1b8f4bf01637bed79dc4eac90a5053f99a8eb20",
    "l3_m8": "afbd4b9378abb5e8f5c9f50bbf03180753b7c680558ab06ff4b2efdcfd7d9d38",
    "mixed": "055a82797f8de2dad9e6dc924183557c29e7ba60446fb573e88ccfac11aceadd",
}


@pytest.mark.parametrize("quiver", sorted(RELATIONS_DIGESTS))
def test_verify_relations_json_is_pinned(capsys, quiver):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / f"{quiver}.quiver", "--suite", "relations", "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_DIGESTS[quiver]


def test_verify_reports_skips_per_suite(capsys):
    # every suite reports its own count, and a check over the bound is
    # skipped on its own.  At total dimension 3, four of the ten random
    # triples on A2 need a dimension-4 product, and so do 32 of the 324
    # oracle pairs; at 2, so do the 22 triples (fixed or random) and the 64
    # oracle pairs whose product has dimension 3 or 4, and the rest still run
    cases = [
        ("3", {"assoc": 4, "oracle": 32}, [
            "[relations] 19 passed, 0 failed, 0 skipped of 19",
            "[drinfeld] 49 passed, 0 failed, 0 skipped of 49",
            "[assoc] 1006 passed, 0 failed, 4 skipped of 1010",
            "[oracle] 292 passed, 0 failed, 32 skipped of 324",
            "1366 passed, 0 failed, 36 skipped",
        ]),
        ("2", {"assoc": 22, "oracle": 64}, [
            "[relations] 15 passed, 0 failed, 4 skipped of 19",
            "[drinfeld] 49 passed, 0 failed, 0 skipped of 49",
            "[assoc] 988 passed, 0 failed, 22 skipped of 1010",
            "[oracle] 260 passed, 0 failed, 64 skipped of 324",
            "1312 passed, 0 failed, 90 skipped",
        ]),
    ]
    sizes = {"assoc": 1010, "oracle": 324}
    for bound, n_skips, summary in cases:
        args = ("verify", "--quiver", DATA / "a2.quiver", "--max-total-dim", bound)
        code, out, _ = run(capsys, *args, "--suite", "all")
        assert code == 0
        assert out.splitlines()[-5:] == summary
        for suite, size in sizes.items():
            code, out, _ = run(capsys, *args, "--suite", suite, "--json")
            checks = json.loads(out)["checks"]
            skips = [c for c in checks if c["status"] == "skipped"]
            assert len(skips) == n_skips[suite] and len(checks) == size
            for c in skips:
                m = re.fullmatch(r"skipped: total dimension (\d+) exceeds bound (\d+)",
                                 c["residual"])
                assert m and m[2] == bound and int(m[1]) > int(bound), c


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    # a wrong F prefactor breaks the two [E_i, F_i] relations
    def bad_verifier(cat, **kwargs):
        verifier = RelationVerifier(cat, **kwargs)
        verifier.gen.f_pref = -1
        return verifier

    monkeypatch.setattr(hallq.cli, "RelationVerifier", bad_verifier)
    args = ("verify", "--quiver", DATA / "a2.quiver", "--suite", "relations")
    code, out, _ = run(capsys, *args)
    assert code == 1
    lines = out.splitlines()
    at = lines.index("FAIL  [relations] (v-1/v)[E[0,0],F[0,0]]")
    assert [line.split(":")[0].strip() for line in lines[at + 1 : at + 4]] == [
        "lhs", "rhs", "residual"
    ]
    assert lines[at + 2] == "      rhs: (-1)*K(-1,1) + (1)*K(1,-1)"
    assert "[relations] 17 passed, 2 failed, 0 skipped of 19" in lines
    assert lines[-1] == "17 passed, 2 failed, 0 skipped"
    code, out, _ = run(capsys, *args, "--json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failed] == [
        "(v-1/v)[E[0,0],F[0,0]]", "(v-1/v)[E[1,0],F[1,0]]"
    ]
    assert all(c["ok"] is False and c["residual"] != "0" for c in failed)


def test_verify_reports_a_skipped_suite_and_its_timing(capsys):
    args = ("verify", "--quiver", DATA / "a2.quiver", "--suite", "drinfeld",
            "--max-total-dim", "1")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        "SKIP  [drinfeld] drinfeld",
        "      skipped: total dimension 2 exceeds bound 1",
        "[drinfeld] 0 passed, 0 failed, 1 skipped of 1",
        "0 passed, 0 failed, 1 skipped",
    ]
    code, timed, _ = run(capsys, *args, "--timing")
    assert code == 0
    assert timed.splitlines()[:-1] == out.splitlines()
    assert re.fullmatch(r"time\[drinfeld\] = \d+\.\d{3}s", timed.splitlines()[-1])


def passing_row(cid):
    return {"id": cid, "ok": True, "lhs": "0", "rhs": "0", "residual": "0"}


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_writes_each_row_before_the_next_is_made(capsys, monkeypatch, as_json):
    # a suite's rows are written as it yields them: when the suite makes a
    # row, the one before it is already on stdout
    written = []

    def rows(cat, args):
        for i in range(3):
            written.append(capsys.readouterr().out)
            if i:
                assert f"stream#{i - 1}" in written[-1]
            yield passing_row(f"stream#{i}")

    monkeypatch.setitem(hallq.cli.SUITES, "oracle", rows)
    args = ("verify", "--quiver", DATA / "a2.quiver", "--suite", "oracle")
    code = main([str(a) for a in args + (("--json",) if as_json else ())])
    rest = capsys.readouterr().out
    assert code == 0 and len(written) == 3
    out = "".join(written) + rest
    if as_json:
        assert [c["id"] for c in json.loads(out)["checks"]] == ["stream#0", "stream#1", "stream#2"]
    else:
        assert out.splitlines()[:3] == [f"PASS  [oracle] stream#{i}" for i in range(3)]


def test_verify_error_after_a_row_leaves_that_row(capsys, monkeypatch):
    # a usage error raised while a suite runs exits 2, and the rows written
    # before it stay on stdout
    def rows(cat, args):
        yield passing_row("first")
        raise hallq.cli.QuiverError("broken after one row")

    monkeypatch.setitem(hallq.cli.SUITES, "oracle", rows)
    code, out, err = run(capsys, "verify", "--quiver", DATA / "a2.quiver", "--suite", "oracle")
    assert code == 2
    assert out == "PASS  [oracle] first\n"
    assert err == "error: broken after one row\n"


def test_verify_json_error_after_a_row_closes_the_report(capsys, monkeypatch):
    # the same error under --json: the report keeps the row and closes with
    # the message main prints, so it stays valid JSON
    def rows(cat, args):
        yield passing_row("first")
        raise hallq.cli.QuiverError("broken after one row")

    monkeypatch.setitem(hallq.cli.SUITES, "oracle", rows)
    code, out, err = run(
        capsys, "verify", "--quiver", DATA / "a2.quiver", "--suite", "oracle", "--json"
    )
    assert code == 2
    assert err == "error: broken after one row\n"
    report = json.loads(out)
    assert list(report) == ["checks", "config", "error", "suite"]
    assert [row["id"] for row in report["checks"]] == ["first"]
    assert report["error"] == "error: broken after one row"
    assert report["suite"] == "oracle"
    assert out == json.dumps(report, sort_keys=True) + "\n"


def test_verify_serre_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", DATA / "kronecker.quiver", "--suite", "serre"
    )
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_deterministic(capsys):
    args = ("verify", "--quiver", DATA / "a2.quiver", "--suite", "relations", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_class_with_no_matrix_entries_is_usable(capsys):
    # no arrow joins the support of dimension (0,5) on A2: the group of order
    # |GL_5(F_2)| is over the bound, but the class needs no group listing
    code, out, _ = run(capsys, "classify", "--quiver", DATA / "a2.quiver", "--dim", "0,5")
    assert code == 0 and out.split() == ["0,5|", "dim=0,5", "aut=9999360", "class=(0,5)"]
    code, out, _ = run(capsys, "product", "--quiver", DATA / "a2.quiver", "--expr", "E[0,5|]")
    assert code == 0 and out == "(1)*E[0,5|]\n"


def test_enumeration_exit_code(capsys):
    code, _, err = run(
        capsys, "classify", "--quiver", DATA / "l2.quiver", "--dim", "9"
    )
    assert code == 3


def test_usage_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("field p=2\nvertex 1 loops=1\n")
    code, _, err = run(capsys, "classify", "--quiver", bad, "--dim", "1")
    assert code == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("field p=2\nvertex 1 loops=0\nfield p=3\n", "line 3"),
        ("field p=2\nvertex 1 loops=2 loops=0\n", "line 2"),
        ("field p=2 p=3\nvertex 1 loops=0\n", "line 1"),
    ],
    ids=["second-field-line", "option-twice", "field-option-twice"],
)
def test_repeated_quiver_settings_are_usage_errors(capsys, tmp_path, text, line):
    # a second value for a setting is refused, naming its line, rather
    # than the last value winning
    bad = tmp_path / "bad.quiver"
    bad.write_text(text)
    code, out, err = run(capsys, "classify", "--quiver", bad, "--dim", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and line in err


@pytest.mark.parametrize("name", ["missing/cache.jsonl", ""], ids=["no-parent", "a-dir"])
def test_unusable_cache_path_is_usage_error(capsys, tmp_path, name):
    # a path under a missing directory, and a directory, fail before any work
    cache = tmp_path / name
    code, out, err = run(
        capsys, "classify", "--quiver", DATA / "a2.quiver", "--dim", "1,0",
        "--cache", cache,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot use cache file:")


def test_cache_lines_that_are_not_records_are_skipped(capsys, tmp_path):
    args = ("classify", "--quiver", DATA / "a2.quiver", "--dim", "1,1", "--json")
    _, plain, _ = run(capsys, *args)
    cache = tmp_path / "cache.jsonl"
    cache.write_text(
        '[1,2]\n3\n"k"\n{"v": 1}\n{"k": "ab", "v": 1}\n{"k": ["a"]}\n'
        '{"k": [["a"]], "v": 1}\n'
    )
    code, out, _ = run(capsys, *args, "--cache", cache)
    assert code == 0 and out == plain
    # the skipped lines stay, and the new records follow them
    assert cache.read_text().startswith("[1,2]\n")
    _, warm, _ = run(capsys, *args, "--cache", cache)
    assert warm == plain


def test_cache_warm_cold_identical(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = (
        "classify", "--quiver", DATA / "l2.quiver", "--dim", "2",
        "--json", "--cache", cache,
    )
    _, cold, _ = run(capsys, *args)
    assert cache.exists() and cache.stat().st_size > 0
    _, warm, _ = run(capsys, *args)
    assert cold == warm


def test_cache_audit_detects_corruption(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    args = ("classify", "--quiver", DATA / "a1.quiver", "--dim", "2", "--cache", cache)
    code, out, _ = run(capsys, *args)
    assert code == 0
    # corrupt the stored automorphism count of the dimension-2 class
    lines = cache.read_text().splitlines()
    broken = [line.replace('6]', '7]') for line in lines]
    assert broken != lines
    cache.write_text("\n".join(broken) + "\n")
    code, out, err = run(capsys, *args, "--audit-cache")
    assert code == 1


def test_audit_cache_needs_a_cache_file(capsys, monkeypatch):
    # with no file to audit, an audit would check nothing: refuse it
    monkeypatch.delenv("HALLQ_CACHE", raising=False)
    code, out, err = run(
        capsys, "classify", "--quiver", DATA / "a2.quiver", "--dim", "1,0",
        "--audit-cache",
    )
    assert code == 2 and out == ""
    assert err == "error: --audit-cache needs a cache file (--cache or HALLQ_CACHE)\n"


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("HALLQ_CACHE", str(cache))
    code, _, _ = run(capsys, "classify", "--quiver", DATA / "a1.quiver", "--dim", "1")
    assert code == 0
    assert cache.exists()


def test_large_prime_field_is_refused_promptly(capsys, tmp_path):
    # primality is checked up to sqrt(p); the field bound then refuses p
    quiver = tmp_path / "big.quiver"
    quiver.write_text("field p=1000000007\nvertex 1 loops=0\n")
    t0 = time.monotonic()
    code, _, err = run(capsys, "classify", "--quiver", quiver, "--dim", "1")
    assert code == 3 and "exceeds bound" in err
    assert time.monotonic() - t0 < 10


def test_max_total_dim_override(capsys):
    code, _, _ = run(
        capsys, "classify", "--quiver", DATA / "a1.quiver", "--dim", "3",
        "--max-total-dim", "2",
    )
    assert code == 3


def test_max_total_dim_bounds_e_times_e(capsys):
    # E·E checks the total dimension of its middle terms, as `classify` does
    args = ("product", "--quiver", DATA / "l2m2.quiver", "--expr", "E[1|0;0] E[1|0;0]")
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.count("E[2|") == 4
    code, _, err = run(capsys, *args, "--max-total-dim", "1")
    assert code == 3 and "total dimension 2 exceeds bound 1" in err
    args = ("product", "--quiver", DATA / "l2m2.quiver", "--expr",
            "E[2|0000;0000] E[2|0000;0000]")
    code, _, err = run(capsys, *args, "--max-total-dim", "3")
    assert code == 3 and "total dimension 4 exceeds bound 3" in err


def test_cross_process_determinism(tmp_path):
    # byte-identical output under different hash seeds
    import os
    import subprocess
    import sys

    import hallq

    # the child imports the same hallq as this process, installed or not
    src = str(pathlib.Path(hallq.__file__).parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("HALLQ_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "hallq.cli", "verify", "--quiver",
             str(DATA / "a2.quiver"), "--suite", "relations", "--json"],
            capture_output=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_argparse_loads_only_to_parse():
    # library callers import the suites' helpers from `hallq.cli` and never
    # parse a command line: the import leaves argparse unloaded, while
    # `hallq --help` still builds the parser and exits 0
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(hallq.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, hallq.cli; print(sorted(m for m in sys.modules if 'argparse' in m))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env,
                          check=True, text=True)
    assert proc.stdout.strip() == "[]"
    proc = subprocess.run([sys.executable, "-m", "hallq.cli", "--help"], capture_output=True,
                          env=env, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: hallq")
    assert all(name in proc.stdout for name in ("classify", "product", "verify"))
