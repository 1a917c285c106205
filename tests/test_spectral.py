import hashlib
import json
from fractions import Fraction
from math import comb

import pytest

from supernil import cli, linalg, realize, spectral
from supernil.cohomology import cohomology, h0_fixed_points, h1_via_superderivations
from supernil.koszul import CochainComplex, dual_module, lambda_s_module
from supernil.spectral import E2Page, collapse_check, e2_page, h2_recursive, hj_ideal_module


def test_e2_gl33_splits(built):
    alg, ideal = built("gl", (3, 3))
    page = e2_page(alg, ideal, 2)
    assert page.term_total(0, 2) == 8
    assert page.term_total(1, 1) == 12
    assert page.term_total(2, 0) == 8


def test_e2_corner_term_is_constants(built):
    for fam, params in [("gl", (3, 2)), ("q", (3,)), ("osp_even", (2, 2))]:
        alg, ideal = built(fam, params)
        page = e2_page(alg, ideal, 1)
        assert page.term_total(0, 0) == 1


def test_e2_q3_middle_term(built):
    alg, ideal = built("q", (3,))
    page = e2_page(alg, ideal, 2)
    assert page.term_total(1, 1) == 2  # 4n - 10 at n = 3


def test_e2_fixed_point_bound(built):
    # E2^{0,j} <= dim Lambda_s^j(I*)
    alg, ideal = built("gl", (3, 3))
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    page = e2_page(alg, ideal, 2)
    d0 = sum(1 for p in dm.parities if p == 0)
    d1 = dm.dim - d0
    for j in (1, 2):
        lam_dim = sum(
            comb(d0, i) * (comb(d1 + (j - i) - 1, j - i) if j - i else 1)
            for i in range(j + 1)
            if i <= d0
        )
        assert page.term_total(0, j) <= lam_dim


def test_collapse_gl33(built):
    alg, ideal = built("gl", (3, 3))
    rep = collapse_check(alg, ideal, 2)
    assert rep["all_match"]
    assert [r["direct_total"] for r in rep["rows"]] == [1, 8, 28]
    assert rep["rows"][2]["terms"] == {"0,2": 8, "1,1": 12, "2,0": 8}


def test_collapse_k0_trivial(built):
    alg, ideal = built("q", (3,))
    rep = collapse_check(alg, ideal, 0)
    assert rep["rows"][0]["direct_total"] == 1
    assert rep["rows"][0]["e2_total"] == 1


def test_collapse_osp42(built):
    alg, ideal = built("osp_even", (2, 1))
    rep = collapse_check(alg, ideal, 2)
    assert rep["all_match"]


def test_collapse_nonabelian_ideal(built):
    # m < n: the d_n ideal contains the long root and is not abelian;
    # the subquotient machinery still produces a collapsing page
    alg, ideal = built("osp_even", (1, 2))
    assert not realize.ideal_is_abelian(alg, ideal)
    rep = collapse_check(alg, ideal, 2)
    assert not rep["abelian_ideal"]
    assert rep["all_match"]


def test_hj_module_matches_lambda_route_for_abelian_ideal(built):
    # when I is abelian the general subquotient module must have the same
    # dimensions, weights and cohomology as Lambda_s^j(I*)
    for family, params in [("gl", (3, 3)), ("q", (4,))]:
        alg, ideal = built(family, params)
        assert realize.ideal_is_abelian(alg, ideal)
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        ic = spectral.IdealComplex(alg, ideal)
        # C^1(I) is I*: on the n/I ids its action is dual_module's, entry
        # for entry, once the word (a,) is read as the basis index a (q
        # lists its even members' words first, so the two orders differ)
        words = ic.cx.degree(1).words
        assert any(w != (a,) for a, w in enumerate(words)) == (family == "q")
        lam = ic.action(1)
        keep = [b.id for b in alg.basis if b.id not in ideal]
        for q_id, pid in enumerate(keep):
            aligned = {(words[r][0], words[c][0]): v for (r, c), v in lam[pid].items()}
            assert aligned == dm.action[q_id]
        for j in (1, 2):
            lam = lambda_s_module(quo, dm, j)
            gen = hj_ideal_module(ic, quo, j)
            assert sorted(zip(lam.weights, lam.parities)) == sorted(
                zip(gen.weights, gen.parities))
            for i in (0, 1):
                assert cohomology(quo, lam, i).blocks == cohomology(quo, gen, i).blocks


RECURSION_MATRIX = [
    ("gl", (2, 2)), ("gl", (3, 2)), ("gl", (3, 3)), ("gl", (4, 2)),
    ("q", (2,)), ("q", (3,)), ("q", (4,)),
    ("osp_even", (2, 1)), ("osp_even", (2, 2)), ("osp_even", (3, 2)),
    ("osp_even", (1, 3)),
    ("osp_odd", (2, 1)), ("osp_odd", (2, 2)), ("osp_odd", (3, 2)),
]


@pytest.mark.parametrize("family,params", RECURSION_MATRIX)
def test_h2_recursive_matches_direct(built, family, params):
    rec = h2_recursive(family, params)
    alg, _ = built(family, params)
    direct = cohomology(alg, None, 2)
    assert rec.total == direct.total
    assert rec.blocks == direct.blocks


def test_h2_recursive_reuses_the_given_algebra_and_direct_h2(built):
    gl33, _ = built("gl", (3, 3))
    gl22, _ = built("gl", (2, 2))
    direct = cohomology(gl22, None, 2)
    rec = h2_recursive("gl", (2, 2), alg=gl22, direct=direct)
    assert rec.blocks == direct.blocks and rec.route == spectral.ROUTE_SPECTRAL
    assert h2_recursive("gl", (3, 3), alg=gl33).blocks == cohomology(gl33, None, 2).blocks
    with pytest.raises(ValueError):
        h2_recursive("gl", (3, 3), alg=gl22)


def test_h2_recursive_gl_formula():
    for n in (2, 3, 4):
        assert h2_recursive("gl", (n, n)).total == 8 * n * n - 20 * n + 16


def test_h2_recursive_q_text_formula():
    for n in (2, 3, 4):
        assert h2_recursive("q", (n,)).total == 2 * n * n - 6 * n + 6


def test_ideal_subalgebra(built):
    alg, ideal = built("gl", (3, 3))
    sub = spectral.ideal_subalgebra(alg, ideal)
    assert sub.dim == len(ideal)
    assert sub.abelian
    alg, ideal = built("osp_even", (1, 2))
    sub = spectral.ideal_subalgebra(alg, ideal)
    assert not sub.abelian
    sub.verify()


def test_commutes_with_d_detects_a_corrupted_action(built):
    alg, ideal = built("osp_even", (1, 2))
    ic = spectral.IdealComplex(alg, ideal)
    cx = ic.cx
    j = 2
    lam = [dict(act) for act in ic.action(j)]
    lam_next = ic.action(j + 1)
    spectral._assert_commutes_with_d(ic, j, lam, lam_next)
    # an action entry whose row feeds d^j: doubling it breaks commutation
    used = {c for row in cx.differential(j).values() for c in row}
    pid, pos = next(
        (pid, pos) for pid, act in enumerate(lam) for pos in sorted(act) if pos[0] in used
    )
    lam[pid][pos] *= 2
    with pytest.raises(AssertionError, match="does not commute"):
        spectral._assert_commutes_with_d(ic, j, lam, lam_next)


def test_abelian_e2_page_builds_the_dual_module_once(built, monkeypatch):
    alg, ideal = built("gl", (3, 2))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return dual_module(*args, **kwargs)

    monkeypatch.setattr(spectral, "dual_module", counting)
    page = e2_page(alg, ideal, 3)
    assert page.abelian_ideal and len(calls) == 1
    assert len(e2_page(alg, ideal, 0).terms) == 1 and len(calls) == 1


def test_pages_built_without_terms_or_modules_do_not_share_them():
    a, b = E2Page("n", True), E2Page("n", True)
    a.terms[(0, 0)] = None
    a.modules[0] = None
    assert b.terms == {} and b.modules == {}


def test_nonabelian_e2_page_builds_the_ideal_complex_once(built, monkeypatch):
    # osp(2|6): its ideal is not abelian; K = 3 needs the action on C^1..C^4(I)
    alg, ideal = built("osp_even", (1, 3))
    build_sub, action = spectral.ideal_subalgebra, spectral.IdealComplex.action
    subs, degrees = [], []

    def counting_sub(*args):
        subs.append(args)
        return build_sub(*args)

    def counting_action(ic, j):
        if j not in ic._actions:
            degrees.append(j)  # built now, not taken from the complex's store
        return action(ic, j)

    monkeypatch.setattr(spectral, "ideal_subalgebra", counting_sub)
    monkeypatch.setattr(spectral.IdealComplex, "action", counting_action)
    rep = collapse_check(alg, ideal, 3)
    assert not rep["abelian_ideal"] and rep["all_match"]
    assert len(subs) == 1 and sorted(degrees) == [1, 2, 3, 4]
    assert len(e2_page(alg, ideal, 0).terms) == 1 and len(subs) == 1


@pytest.mark.parametrize("family, params", [
    ("gl", (3, 2)),        # abelian ideal: Lambda_s^j(I*) rows
    ("osp_even", (1, 3)),  # non-abelian ideal: H^j(I) rows and the ideal complex
])
def test_collapse_assembles_each_block_once(built, monkeypatch, family, params):
    # H^k and H^{k+1} on one complex both rank d^k: the rank of each block
    # is kept, so no (complex, k, block) is assembled twice
    alg, ideal = built(family, params)
    assemble = CochainComplex.block_columns
    calls = []

    def counting(cx, k, key):
        calls.append((cx, k, key))  # holds cx, so no complex id is reused
        return assemble(cx, k, key)

    monkeypatch.setattr(CochainComplex, "block_columns", counting)
    rep = collapse_check(alg, ideal, 3)
    assert rep["all_match"] and calls
    named = [(id(cx), k, key) for cx, k, key in calls]
    assert len(set(named)) == len(named)
    # the direct H^0..H^3 ranked blocks of d^0..d^3 on n's own complex
    assert {k for cx, k, _ in calls if cx is rep.complex} == {0, 1, 2, 3}


@pytest.mark.parametrize("family, params, builds", [
    ("osp_odd", (3, 1), 3),  # osp(7|2) -> osp(5|2) -> osp(3|2)
    ("gl", (3, 3), 2),       # gl(3|3) -> gl(2|2)
    ("gl", (2, 2), 1),       # a base case: its H^2 is the direct one
])
def test_h2_recursive_builds_each_algebra_once(built, monkeypatch, capsys, family, params, builds):
    build, koszul_h = spectral.build_family, spectral.cohomology
    calls, computed = [], []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    def counting_cohomology(alg, module, k, **kwargs):
        computed.append((alg.name, module is None, k))
        return koszul_h(alg, module, k, **kwargs)

    monkeypatch.setattr(spectral, "build_family", counting_build)
    rec = h2_recursive(family, params)
    assert len(calls) == len(set(calls)) == builds
    alg, _ = built(family, params)
    assert rec.blocks == cohomology(alg, None, 2).blocks

    # the CLI's one build of the top algebra serves the collapse check and
    # the recursion, and its direct H^2 is computed once
    calls.clear()
    for mod in (cli, spectral):
        monkeypatch.setattr(mod, "build_family", counting_build)
        monkeypatch.setattr(mod, "cohomology", counting_cohomology)
    m, n = params
    code = cli.main(["spectral", "--family", family, "--m", str(m), "--n", str(n),
                     "--K", "2", "--recursive", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["h2_match"] and data["h2_recursive"] == rec.total
    assert len(calls) == len(set(calls)) == builds
    assert computed.count((alg.name, True, 2)) == 1


def test_h2_recursive_refuses_a_non_abelian_recursion_ideal(built, monkeypatch):
    alg, _ = built("gl", (3, 2))
    monkeypatch.setattr(spectral, "ideal_is_abelian", lambda alg, ideal: False)
    with pytest.raises(AssertionError, match="recursion ideal is not abelian"):
        h2_recursive("gl", (3, 2), alg)


def test_h2_recursive_refuses_a_quotient_unlike_the_rebuilt_algebra(built, monkeypatch):
    # gl(3|2)/I is gl(2|2); a step that rebuilds gl(2|1) must not be absorbed
    alg, _ = built("gl", (3, 2))
    monkeypatch.setattr(spectral, "build_family", lambda family, params: built("gl", (2, 1)))
    with pytest.raises(AssertionError, match=r"quotient does not match rebuilt gl\(2\|1\)"):
        h2_recursive("gl", (3, 2), alg)


# sha256 of (parities, sorted action entries) of H^j(I, C) for osp(2|6)
HJ_OSP_EVEN_1_3 = {
    1: "27a1c5eae6531001759d31ee20a497705e136895235a455ffea76aa871d91c26",
    2: "f8c981b4577d04bf6651a07a76b6c3a26755d0074996c37140db0cec6be3b393",
    3: "5aa14349b50e2780335e0b3c1f24a59560f72c4eafab006d798d492780c2a204",
}


def test_hj_ideal_module_solves_each_block_once(built, monkeypatch):
    alg, ideal = built("osp_even", (1, 3))
    ic = spectral.IdealComplex(alg, ideal)
    quo = realize.quotient_algebra(alg, ideal)
    counts = {}

    def counting(name):
        fn = getattr(linalg, name)

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    names = ("rank", "solve", "nullspace", "row_space_basis")
    for name in names:
        monkeypatch.setattr(linalg, name, counting(name))
    for j, pinned in HJ_OSP_EVEN_1_3.items():
        counts.update(dict.fromkeys(names, 0))
        mod = hj_ideal_module(ic, quo, j)
        blocks = len(ic.cx.degree(j).blocks)
        # one kernel of d^j and one echelon of the image of d^{j-1} per
        # block; the class images are reduced by those, with no solve
        assert counts == {"rank": 0, "solve": 0, "nullspace": blocks,
                          "row_space_basis": blocks}
        # entries as Fractions, so the digest pins values, not int-or-Fraction
        blob = repr((mod.parities,
                     [sorted((pos, Fraction(v)) for pos, v in a.items()) for a in mod.action]))
        assert hashlib.sha256(blob.encode()).hexdigest() == pinned


def _h1_ideal_classes(built, monkeypatch):
    """osp(2|6)'s ideal complex with the commutation check switched off, so
    a crafted action entry reaches hj_ideal_module's own checks, and the
    cochains of C^1(I) that are cocycles.  d^0 is 0 and every block of
    C^1(I) is one cochain, so each such cochain is a class representative,
    the only one with a nonzero entry there."""
    alg, ideal = built("osp_even", (1, 3))
    ic = spectral.IdealComplex(alg, ideal)
    monkeypatch.setattr(spectral, "_assert_commutes_with_d", lambda *args: None)
    cx = ic.cx
    assert not cx.differential(0)
    assert all(len(cols) == 1 for cols in cx.degree(1).blocks.values())
    hit = {c for row in cx.differential(1).values() for c in row}
    reps = [c for c in range(cx.dim(1)) if c not in hit]
    return ic, realize.quotient_algebra(alg, ideal), reps, sorted(hit)


def test_hj_ideal_module_detects_a_class_image_crossing_blocks(built, monkeypatch):
    ic, quo, reps, _ = _h1_ideal_classes(built, monkeypatch)
    keys = ic.cx.degree(1).keys
    lam = ic.action(1)
    pid, (r, c) = next((pid, pos) for pid, act in enumerate(lam)
                       for pos in sorted(act) if pos[1] in reps)
    other = next(t for t in range(len(keys)) if keys[t] != keys[r])
    lam[pid][(other, c)] = 1
    with pytest.raises(AssertionError, match="crosses blocks"):
        hj_ideal_module(ic, quo, 1)


def test_hj_ideal_module_detects_a_class_image_that_is_no_cocycle(built, monkeypatch):
    ic, quo, reps, non_cocycles = _h1_ideal_classes(built, monkeypatch)
    lam = ic.action(1)
    # a class the action kills, sent onto a cochain that d^1 does not kill
    pid, c = next((pid, c) for pid, act in enumerate(lam) for c in reps
                  if all(col != c for _, col in act))
    lam[pid][(non_cocycles[0], c)] = 1
    with pytest.raises(AssertionError, match="leaves the cohomology subquotient"):
        hj_ideal_module(ic, quo, 1)


def test_hj_ideal_module_detects_an_ideal_member_acting_on_a_class(built, monkeypatch):
    ic, quo, reps, _ = _h1_ideal_classes(built, monkeypatch)
    lam = ic.action(1)
    members = ic.ideal
    pid, c = next((pid, c) for pid, act in enumerate(lam) if pid in members for c in reps
                  if all(col != c for _, col in act))
    lam[pid][(next(g for g in reps if g != c), c)] = 1
    with pytest.raises(AssertionError, match="ideal does not act trivially"):
        hj_ideal_module(ic, quo, 1)


def test_hj_ideal_modules_pass_the_module_routes(built):
    # H^j(I, C) of the non-abelian osp(2|6) page: superderivations give the
    # Koszul H^1 and fixed points the Koszul H^0, block by block
    alg, ideal = built("osp_even", (1, 3))
    assert not realize.ideal_is_abelian(alg, ideal)
    ic = spectral.IdealComplex(alg, ideal)
    quo = realize.quotient_algebra(alg, ideal)
    for j in (1, 2):
        mod = hj_ideal_module(ic, quo, j)
        assert cohomology(quo, mod, 1).blocks == h1_via_superderivations(quo, mod).blocks, j
        assert cohomology(quo, mod, 0).blocks == h0_fixed_points(quo, mod).blocks, j


# h1s: degree-1 `cohomology` calls for K = 0, 1, 2: the page's (1, 0) and,
# for K = 2, (1, 1) terms, the direct H^1, and H^1(n/I, I*) of each
# recursion step that the page does not hold
@pytest.mark.parametrize("argv, quotients, h1s", [
    ("--family gl --m 3 --n 3", 1, (1, 3, 3)),       # gl(3|3) -> gl(2|2), a base case
    ("--family osp_odd --m 3 --n 1", 2, (2, 4, 4)),  # osp(7|2) -> osp(5|2) -> osp(3|2)
    # the CLI's ideal is not the recursion ideal, so its page is not reused
    ("--family osp_odd --m 3 --n 2 --ideal-reading eps_or_delta", 2, (1, 3, 4)),
    # a non-abelian ideal and a base case
    ("--family osp_even --m 1 --n 3", 1, (0, 2, 3)),
])
def test_spectral_recursion_reuses_the_e2_quotient_and_modules(monkeypatch, capsys, argv,
                                                               quotients, h1s):
    # the top recursion step takes n/I, I* and Lambda_s^2(I*) from the E_2
    # page when its ideal is the abelian recursion ideal, and H^1(n/I, I*)
    # too when K >= 2; for K < 2 it builds what the page left out
    calls = []
    quotient = spectral.quotient_algebra

    def counting(*args):
        calls.append(args)
        return quotient(*args)

    degrees = []

    def counting_cohomology(alg, module, k, *args, **kwargs):
        degrees.append(k)
        return cohomology(alg, module, k, *args, **kwargs)

    monkeypatch.setattr(spectral, "quotient_algebra", counting)
    monkeypatch.setattr(spectral, "cohomology", counting_cohomology)
    seen = []
    for K, h1 in zip(("0", "1", "2"), h1s):
        calls.clear()
        degrees.clear()
        code = cli.main(["spectral", *argv.split(), "--K", K, "--recursive", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["all_match"] and data["h2_match"]
        assert len(calls) == quotients
        assert degrees.count(1) == h1
        seen.append((data["h2_direct"], data["h2_recursive"]))
    assert seen[0] == seen[1] == seen[2]
