"""Acceptance suite: ten end-to-end criteria, one test (one report line) each.

Every expected value here was either computed by an independent exhaustive
oracle inside the library and frozen, or is a hand-checkable closed form.
Time budgets are asserted with generous margins over observed runtimes.
"""

import json
import random
import time
from functools import lru_cache
from itertools import combinations, permutations, product

from bott_rigidity import (
    BottMatrix,
    BottRing,
    CoeffMode,
    admissible_permutations,
    conjugate,
    diffeo_equivalent,
    from_bott_matrix,
    inverse_pair_coefficient_condition,
    is_admissible,
    is_bott,
    line_square_pairs,
    pontrjagin_invariant,
    ring_isomorphic,
    to_bott_matrix,
    twist_number,
    validate_characteristic,
    whitney_sum_trivial,
)
from bott_rigidity.analysis import complexity_oracle
from bott_rigidity.checks import bott_by_exhaustive_permutations
from bott_rigidity.cli import main
from bott_rigidity.linalg import det_fraction
from bott_rigidity.quasitoric import normalize_characteristic, principal_minor


def all_height_three_towers(bound=2):
    rng = range(-bound, bound + 1)
    return [BottMatrix([[0, a, b], [0, 0, c], [0, 0, 0]])
            for a, b, c in product(rng, repeat=3)]


@lru_cache(maxsize=None)
def one_twist_pair_results(mode_value):
    """Verdicts of both routes on every unordered pair over [-2,2]^2."""
    mode = CoeffMode(mode_value)
    vecs = [tuple(v) for v in product(range(-2, 3), repeat=2)]
    out = []
    for i, v in enumerate(vecs):
        for w in vecs[i:]:
            fast = diffeo_equivalent(v, w)[0]
            slow = ring_isomorphic(BottMatrix.from_last_column(list(v)),
                                   BottMatrix.from_last_column(list(w)),
                                   mode).isomorphic
            out.append((v, w, fast, slow))
    return out


def run_twist_cli(tmp_path, capsys, entry, extra=()):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0, entry], [0, 0]]), encoding="utf-8")
    rc = main(["twist", str(path), *extra])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_c01_hirzebruch_twist_dichotomy(tmp_path, capsys):
    """Height-2 towers: even single twist vanishes, odd does not."""
    start = time.monotonic()
    for k in range(-3, 4):
        even = run_twist_cli(tmp_path, capsys, 2 * k)
        assert even["twist"] == 0 and even["certified"] is True
        odd = run_twist_cli(tmp_path, capsys, 2 * k + 1)
        assert odd["twist"] == 1 and odd["certified"] is True
    assert time.monotonic() - start < 1.0


def test_c02_even_top_stage_collapse_with_witness():
    """Rings of [[0,1,c],[0,0,-2c],[0,0,0]] and its top-stage-trivial partner agree."""
    for c in (1, 2, 3):
        start = time.monotonic()
        a = BottMatrix([[0, 1, c], [0, 0, -2 * c], [0, 0, 0]])
        b = BottMatrix([[0, 1, c], [0, 0, 0], [0, 0, 0]])
        rep = ring_isomorphic(a, b)
        assert rep.isomorphic is True
        assert rep.reason == "witness verified"
        rows = rep.witness["rows"]
        assert abs(det_fraction(rows)) == 1
        host, target = (a, b) if rep.witness["direction"] == "second_into_first" \
            else (b, a)
        ring = BottRing(host)
        elems = [ring.line_element(r) for r in rows]
        for k in range(3):
            u = ring.zero()
            for i in range(k):
                u = u + target.entry(i, k) * elems[i]
            assert (elems[k] * elems[k] - u * elems[k]).is_zero()
        for j in range(3):
            if target.is_zero_column(j):
                assert not line_square_pairs(host, rows[j])
        assert time.monotonic() - start < 10.0


def test_c03_move_search_matches_exhaustive_minimum():
    """Greedy move reduction is minimal on every height-3 tower with entries in [-2,2]."""
    start = time.monotonic()
    hist = {0: 0, 1: 0, 2: 0}
    for mat in all_height_three_towers():
        rep = twist_number(mat, certify=True, bound=2)
        assert rep.certified_minimal and not rep.budget_exhausted
        assert rep.twist == complexity_oracle(mat, bound=2).value
        hist[rep.twist] += 1
    assert hist == {0: 15, 1: 66, 2: 44}
    assert time.monotonic() - start < 600.0


def test_c04_twist_number_is_conjugation_invariant():
    """Relabeling stages never changes the twist number (500 seeded samples)."""
    rng = random.Random(20260814)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 4)
        mat = BottMatrix([[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                          for i in range(n)])
        sigma = rng.choice(list(admissible_permutations(mat)))
        assert twist_number(mat).twist == twist_number(conjugate(mat, sigma)).twist
        checked += 1


def test_c05_one_twist_fast_route_matches_ring_oracle():
    """Closed-form equivalence equals ring isomorphism on all 325 pairs over [-2,2]^2."""
    start = time.monotonic()
    results = one_twist_pair_results(CoeffMode.INTEGER.value)
    assert len(results) == 325
    for v, w, fast, slow in results:
        assert slow is not None, (v, w)
        assert fast == slow, (v, w)
    assert time.monotonic() - start < 300.0


def test_c06_two_stage_classification_table(capsys):
    """classify --n 2 --bound 4 splits {-4..4} into the even and odd classes."""
    rc = main(["classify", "--n", "2", "--bound", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["class_count"] == 2
    members = [c["members"] for c in payload["classes"]]
    assert members[0] == [[-4], [-2], [0], [2], [4]]
    assert members[1] == [[-3], [-1], [1], [3]]


def test_c07_inverse_pair_triviality_routes_agree():
    """gamma^a + gamma^(-a) over the odd Hirzebruch base: Chern route == coefficient route."""
    base = BottMatrix([[0, 1], [0, 0]])
    ring = BottRing(base)
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            alpha = (a0, a1)
            neg = (-a0, -a1)
            chern = whitney_sum_trivial(ring, alpha, neg)
            coeff = inverse_pair_coefficient_condition(base, alpha)
            assert chern == coeff, alpha
            assert coeff == (a1 == 0 or a1 == -2 * a0), alpha


def test_c08_recognition_roundtrip_and_counterexamples():
    """1000 scrambled characteristic matrices recover a conjugate tower; cycles rejected."""
    rng = random.Random(4251000)
    for _ in range(1000):
        n = rng.randint(2, 6)
        lam = BottMatrix([[rng.randint(-3, 3) if j > i else 0 for j in range(n)]
                          for i in range(n)])
        rows = from_bott_matrix(lam)
        rho = list(range(n))
        rng.shuffle(rho)
        scr = [[rows[rho[i]][rho[j]] for j in range(n)] for i in range(n)]
        scr = [[-x for x in row] if rng.random() < 0.5 else row for row in scr]
        assert validate_characteristic(scr)
        ok, sigma = is_bott(scr)
        assert ok
        back = to_bott_matrix(scr, sigma)
        assert any(is_admissible(lam, pi) and conjugate(lam, pi) == back
                   for pi in permutations(range(n)))
        norm = normalize_characteristic(scr)
        for k in range(1, n + 1):
            for subset in combinations(range(n), k):
                assert principal_minor(norm, subset) == 1
    for cyc in ([[1, 1], [2, 1]], [[1, 1, 0], [0, 1, 1], [-2, 0, 1]]):
        assert validate_characteristic(cyc)
        assert is_bott(cyc) == (False, None)
        assert bott_by_exhaustive_permutations(cyc) == (False, None)


def test_c09_two_local_ring_gives_identical_verdicts(tmp_path, capsys):
    """Criteria 1, 3 and 5 rerun with odd denominators allowed: same answers."""
    for k in range(-3, 4):
        even = run_twist_cli(tmp_path, capsys, 2 * k, ("--ring", "z2local"))
        assert even["twist"] == 0 and even["certified"] is True
        odd = run_twist_cli(tmp_path, capsys, 2 * k + 1, ("--ring", "z2local"))
        assert odd["twist"] == 1 and odd["certified"] is True
    for mat in all_height_three_towers():
        rep = twist_number(mat, CoeffMode.TWO_LOCAL, certify=True, bound=2)
        assert rep.certified_minimal
        assert rep.twist == complexity_oracle(mat, CoeffMode.TWO_LOCAL, bound=2).value
        assert rep.twist == twist_number(mat, certify=False).twist
    integer_runs = one_twist_pair_results(CoeffMode.INTEGER.value)
    local_runs = one_twist_pair_results(CoeffMode.TWO_LOCAL.value)
    for (v, w, fast, slow), (_, _, fast2, slow2) in zip(integer_runs, local_runs):
        assert fast == fast2 and slow == slow2, (v, w)


def test_c10_equivalent_pairs_share_pontrjagin_data():
    """Every equivalent pair found in the 325-pair scan has identical invariants."""
    hits = 0
    for v, w, fast, _ in one_twist_pair_results(CoeffMode.INTEGER.value):
        if fast:
            hits += 1
            assert pontrjagin_invariant(v) == pontrjagin_invariant(w), (v, w)
    assert hits == 81
