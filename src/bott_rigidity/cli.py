"""Command-line front end.

Subcommands
  twist      greedy twist number of an upper-triangular matrix, with
             certification against the exhaustive minimum when feasible
  equiv      equivalence test for two one-twist vectors
  classify   enumerate a box of one-twist vectors and partition it
  recognize  decide whether a characteristic matrix is a Bott tower
  selftest   seeded desk-scale property checks across every module

Exit codes: 0 affirmative or success, 1 negative verdict or failed
check, 2 malformed input, 3 budget exhausted (certification gap or a
size guard). Inputs are UTF-8 JSON files. Output is byte-stable for a
fixed command line: JSON keys are sorted and randomness is seeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

from .analysis import (
    even_block_forces_even_det,
    ring_isomorphic,
    square_zero_row_constraints,
    twist_number,
)
from .core import (
    BottMatrix,
    BottRing,
    CoeffMode,
    integer_entries,
    inverse_pair_coefficient_condition,
    pontrjagin_one_twist,
    whitney_sum_trivial,
)
from .linalg import det_int
from .moves import (
    admissible_permutations,
    conjugate,
    retwist,
    stage_fibration_trivial,
    trivialize_stage,
)
from .onetwist import classify, diffeo_equivalent, pontrjagin_invariant
from .quasitoric import (
    bott_by_exhaustive_permutations,
    bq_structure_check,
    cycle_matrix,
    from_bott_matrix,
    is_bott,
    to_bott_matrix,
    validate_characteristic,
)

CLASSIFY_GUARD = 200_000
CERTIFY_N_MAX = 4


class InputError(ValueError):
    pass


def _load_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _int_list(data, where: str) -> list[int]:
    if not isinstance(data, list):
        raise InputError(f"{where}: expected a JSON array of integers")
    try:
        return list(integer_entries(data, where))
    except TypeError as exc:
        raise InputError(str(exc)) from exc


def _load_square_matrix(path: str) -> list[list[int]]:
    data = _load_json_file(path)
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a nonempty JSON array of rows")
    rows = [_int_list(r, f"{path} row {i}") for i, r in enumerate(data)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError(f"{path}: matrix must be square")
    return rows


def _load_bott_matrix(path: str) -> BottMatrix:
    rows = _load_square_matrix(path)
    try:
        return BottMatrix(rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_vector(path: str) -> list[int]:
    return _int_list(_load_json_file(path), path)


def _jsonable(x):
    if isinstance(x, BottMatrix):
        return x.to_lists()
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, CoeffMode):
        return x.value
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return str(x)


def _inline(v) -> str:
    return json.dumps(_jsonable(v), sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, fmt: str, table: tuple[list[str], list[dict]] | None = None):
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True) + "\n")
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if table is not None:
            header, rows = table
            writer.writerow(header)
            for row in rows:
                writer.writerow([_inline(row[col]) for col in header])
        else:
            writer.writerow(["key", "value"])
            for key in sorted(payload):
                writer.writerow([key, _inline(payload[key])])
        sys.stdout.write(buf.getvalue())
        return
    for key in sorted(payload):
        sys.stdout.write(f"{key}: {_inline(payload[key])}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_twist(args) -> int:
    matrix = _load_bott_matrix(args.matrix_file)
    report = twist_number(matrix, args.ring, certify=True,
                          bound=max(1, args.bound), certify_n_max=CERTIFY_N_MAX)
    oracle = None
    if report.oracle is not None:
        oracle = {
            "value": report.oracle.value,
            "lower_bound": report.oracle.lower_bound,
            "certified": report.oracle.certified,
        }
    payload = {
        "twist": report.twist,
        "certified": report.certified_minimal,
        "budget_exhausted": report.budget_exhausted,
        "moves": list(report.witness_moves),
        "final_matrix": report.final_matrix.to_lists(),
        "oracle": oracle,
    }
    _emit(payload, args.output_format)
    if args.certified and not report.certified_minimal:
        return 3
    return 0


def cmd_equiv(args) -> int:
    alpha = _load_vector(args.vector_file_a)
    beta = _load_vector(args.vector_file_b)
    try:
        equivalent, witness = diffeo_equivalent(alpha, beta)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "equivalent": equivalent,
        "vectors": [alpha, beta],
        "witness": {"sigma": list(witness.sigma)} if witness is not None else None,
        "pontrjagin": [list(pontrjagin_invariant(alpha)), list(pontrjagin_invariant(beta))],
    }
    _emit(payload, args.output_format)
    return 0 if equivalent else 1


def cmd_classify(args) -> int:
    n = args.n
    if n < 1:
        raise InputError("--n must be at least 1")
    bound = args.bound
    total = (2 * bound + 1) ** (n - 1)
    if total > CLASSIFY_GUARD:
        sys.stderr.write(
            f"refusing to enumerate {total} vectors (guard {CLASSIFY_GUARD})\n")
        return 3
    corpus = [list(v) for v in product(range(-bound, bound + 1), repeat=n - 1)]
    classes = classify(corpus)
    payload = {
        "n": n,
        "bound": bound,
        "vector_count": total,
        "class_count": len(classes),
        "classes": classes,
    }
    _emit(payload, args.output_format,
          table=(["class_id", "representative", "size", "pontrjagin"], classes))
    return 0


def cmd_recognize(args) -> int:
    rows = _load_square_matrix(args.matrix_file)
    try:
        valid = validate_characteristic(rows)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    payload = {"characteristic": valid, "bott": False, "sigma": None, "bott_matrix": None}
    if valid:
        accepted, sigma = is_bott(rows)
        if accepted:
            payload["bott"] = True
            payload["sigma"] = list(sigma)
            payload["bott_matrix"] = to_bott_matrix(rows, sigma).to_lists()
    _emit(payload, args.output_format)
    return 0 if payload["bott"] else 1


# ---------------------------------------------------------------------------
# selftest: every module's documented properties at desk scale


def _rand_bott(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> BottMatrix:
    return BottMatrix([[rng.randint(lo, hi) if j > i else 0 for j in range(n)]
                       for i in range(n)])


def _random_order_reduction(matrix: BottMatrix, word, rng: random.Random) -> dict:
    """Rewrite x_j^2 -> f_j x_j in random order; oracle for confluence."""
    total: Counter = Counter()
    work = [(Counter(word), Fraction(1))]
    while work:
        exps, coeff = work.pop()
        exps = +exps
        reps = sorted(i for i, e in exps.items() if e >= 2)
        if not reps:
            total[frozenset(exps)] += coeff
            continue
        j = rng.choice(reps)
        base = exps.copy()
        base[j] -= 2
        for i in range(j):
            c = matrix.entry(i, j)
            if c:
                nxt = base.copy()
                nxt[i] += 1
                nxt[j] += 1
                work.append((nxt, coeff * c))
    return {k: v for k, v in total.items() if v}


def _check_reduction_confluence(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        mat = _rand_bott(rng, n)
        ring = BottRing(mat)
        word = [rng.randrange(n) for _ in range(rng.randint(2, 5))]
        want = {k: Fraction(v) for k, v in ring.reduce_monomial(word).terms.items()}
        got = _random_order_reduction(mat, word, rng)
        if want != got:
            return False, f"order-dependent reduction of {word} over {mat.to_lists()}"
    return True, "30 random monomials"


def _check_basis_dimension(rng):
    for n in range(1, 6):
        ring = BottRing(_rand_bott(rng, n))
        basis = ring.basis()
        if len(basis) != 2 ** n:
            return False, f"n={n}: basis has {len(basis)} monomials"
        if len(set(basis)) != len(basis):
            return False, f"n={n}: basis monomials repeat"
    return True, "rank 2^n for n=1..5"


def _check_square_law(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        mat = _rand_bott(rng, n)
        ring = BottRing(mat)
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        z = ring.line_element(alpha)
        rhs = ring.zero()
        for j in range(n):
            rhs = rhs + alpha[j] * alpha[j] * (ring.twist_form(j) * ring.generator(j))
        for i in range(n):
            for j in range(i + 1, n):
                rhs = rhs + 2 * alpha[i] * alpha[j] * (ring.generator(i) * ring.generator(j))
        if z * z != rhs:
            return False, f"square law fails for {alpha} over {mat.to_lists()}"
    return True, "40 random line classes"


def _check_grading(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        ring = BottRing(_rand_bott(rng, n))
        z = ring.line_element([rng.randint(-2, 2) for _ in range(n)])
        w = ring.line_element([rng.randint(-2, 2) for _ in range(n)])
        p = z * w
        if p.degree_part(4) != p:
            return False, "degree-2 product left degree 4"
        if not p.is_zero() and p.max_degree() != 4:
            return False, "degree-4 part mislabeled"
        long_product = ring.one()
        for _ in range(n + 2):
            long_product = long_product * ring.generator(rng.randrange(n))
        if long_product.max_degree() > 2 * n:
            return False, "reduced element above top degree"
    return True, "30 random products"


def _check_mode_agreement(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        mat = _rand_bott(rng, n)
        t_z = twist_number(mat, CoeffMode.INTEGER).twist
        t_2 = twist_number(mat, CoeffMode.TWO_LOCAL).twist
        t_q = twist_number(mat, CoeffMode.RATIONAL).twist
        if t_z != t_2:
            return False, f"integer {t_z} vs 2-local {t_2} on {mat.to_lists()}"
        if t_q > t_z:
            return False, f"rational twist {t_q} above integer {t_z} on {mat.to_lists()}"
    return True, "25 random towers"


def _check_conjugation(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        mat = _rand_bott(rng, n)
        perms = list(admissible_permutations(mat))
        sigma = perms[rng.randrange(len(perms))]
        conj = conjugate(mat, sigma)
        if conj.twist_count() != mat.twist_count():
            return False, "conjugation changed the twist count"
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        if conjugate(conj, inverse) != mat:
            return False, "inverse conjugation did not restore the matrix"
        if twist_number(conj).twist != twist_number(mat).twist:
            return False, f"twist not conjugation-invariant on {mat.to_lists()}"
    return True, "25 random conjugations"


def _check_trivialize(rng):
    hits = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        rows = _rand_bott(rng, n).to_lists()
        m = rng.randrange(1, n)
        for i in range(m):
            rows[i][m] *= 2
        mat = BottMatrix(rows)
        if mat.is_zero_column(m) or not stage_fibration_trivial(mat, m):
            continue
        new = trivialize_stage(mat, m)
        if new is None:
            return False, f"predicate accepted stage {m} but the move refused"
        if new.twist_count() != mat.twist_count() - 1 or not new.is_zero_column(m):
            return False, f"move did not remove exactly column {m}"
        hits += 1
    if hits < 10:
        return False, f"only {hits} applicable stages sampled"
    return True, f"{hits} stage moves"


def _check_retwist(rng):
    checked = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        alpha = [rng.randint(-2, 2) for _ in range(k)]
        for w in product(range(-2, 3), repeat=k):
            beta = retwist(alpha, list(w))
            if beta is None:
                continue
            if any((x - y) % 2 for x, y in zip(alpha, beta)):
                return False, f"retwist broke parity: {alpha} -> {beta}"
            if pontrjagin_one_twist(beta) != pontrjagin_one_twist(alpha):
                return False, f"retwist broke the square: {alpha} -> {beta} via {w}"
            checked += 1
    return True, f"{checked} admissible retwists"


def _check_moves_preserve_ring(rng):
    cases = []
    for mat, stage in [(BottMatrix([[0, 2], [0, 0]]), 1),
                       (BottMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]]), 2)]:
        moved = trivialize_stage(mat, stage)
        if moved is None:
            return False, f"expected stage {stage} of {mat.to_lists()} to trivialize"
        cases.append((mat, moved))
    scattered = BottMatrix([[0, 0, 3], [0, 0, 0], [0, 0, 0]])
    for sigma in admissible_permutations(scattered):
        cases.append((scattered, conjugate(scattered, sigma)))
    cases.append((BottMatrix([[0, 1], [0, 0]]), BottMatrix([[0, 3], [0, 0]])))
    for a, b in cases:
        report = ring_isomorphic(a, b)
        if report.isomorphic is not True:
            return False, f"{a.to_lists()} vs {b.to_lists()}: {report.reason}"
    return True, f"{len(cases)} move pairs verified isomorphic"


def _check_twist_vs_oracle(rng):
    mats = [BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]]),
            BottMatrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]])]
    mats += [_rand_bott(rng, 3) for _ in range(10)]
    for mat in mats:
        report = twist_number(mat, certify=True, bound=2)
        if not report.certified_minimal:
            value = report.oracle.value if report.oracle else None
            return False, f"greedy {report.twist} vs oracle {value} on {mat.to_lists()}"
    return True, f"{len(mats)} towers certified"


def _check_witness_square_zero(rng):
    pairs = [(BottMatrix([[0, 2], [0, 0]]), BottMatrix.zeros(2)),
             (BottMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]]), BottMatrix.zeros(3))]
    for a, b in pairs:
        report = ring_isomorphic(a, b)
        if report.isomorphic is not True:
            return False, f"expected isomorphism for {a.to_lists()}"
        host, target = (a, b) if report.witness["direction"] == "second_into_first" else (b, a)
        rows = report.witness["rows"]
        for j in range(target.n):
            if target.is_zero_column(j) and not square_zero_row_constraints(host, rows[j]):
                return False, f"witness row {j} fails the square-zero constraint"
    return True, f"{len(pairs)} witnesses checked"


def _check_parity_block(rng):
    for _ in range(30):
        n = rng.randint(3, 5)
        r = rng.randint(1, n)
        t = n + 1 - r
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        row_idx = rng.sample(range(n), r)
        col_idx = rng.sample(range(n), t)
        for i in row_idx:
            for j in col_idx:
                rows[i][j] = 2 * rng.randint(-2, 2)
        if not even_block_forces_even_det(rows, row_idx, col_idx):
            return False, f"lemma precondition not recognized ({r}x{t} block, n={n})"
        if det_int(rows) % 2:
            return False, f"odd determinant despite even {r}x{t} block, n={n}"
    return True, "30 planted blocks"


def _check_onetwist_relation(rng):
    for _ in range(40):
        k = rng.randint(1, 4)
        a = [rng.randint(-3, 3) for _ in range(k)]
        b = [rng.randint(-3, 3) for _ in range(k)]
        if not diffeo_equivalent(a, a)[0]:
            return False, f"{a} not equivalent to itself"
        if diffeo_equivalent(a, b)[0] != diffeo_equivalent(b, a)[0]:
            return False, f"asymmetric verdict on {a}, {b}"
        flipped = [v if rng.random() < 0.5 else -v for v in a]
        if not diffeo_equivalent(a, flipped)[0]:
            return False, f"sign flips separated {a} from {flipped}"
        shuffled = a[:]
        rng.shuffle(shuffled)
        if not diffeo_equivalent(a, shuffled)[0]:
            return False, f"permutation separated {a} from {shuffled}"
    return True, "40 random vectors"


def _check_onetwist_vs_ring(rng):
    agreements = 0
    for _ in range(15):
        a = [rng.randint(-2, 2) for _ in range(2)]
        b = [rng.randint(-2, 2) for _ in range(2)]
        fast = diffeo_equivalent(a, b)[0]
        report = ring_isomorphic(BottMatrix.from_last_column(a),
                                 BottMatrix.from_last_column(b))
        if report.isomorphic is None:
            return False, f"ring oracle inconclusive on {a} vs {b}"
        if report.isomorphic != fast:
            return False, f"criterion {fast} vs ring {report.isomorphic} on {a}, {b}"
        agreements += 1
    return True, f"{agreements} pairs agree"


def _check_pontrjagin(rng):
    for _ in range(40):
        k = rng.randint(1, 4)
        a = [rng.randint(-3, 3) for _ in range(k)]
        b = [rng.randint(-3, 3) for _ in range(k)]
        if diffeo_equivalent(a, b)[0] and pontrjagin_invariant(a) != pontrjagin_invariant(b):
            return False, f"equivalent pair {a}, {b} with different invariants"
    return True, "40 random pairs"


def _check_bundle_routes(rng):
    base = BottMatrix([[0, 1], [0, 0]])
    ring = BottRing(base)
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            alpha = [a1, a2]
            via_chern = whitney_sum_trivial(ring, alpha, [-a1, -a2])
            via_coeffs = inverse_pair_coefficient_condition(base, alpha)
            closed_form = a2 == 0 or a2 == -2 * a1
            if via_chern != via_coeffs or via_chern != closed_form:
                return False, f"routes disagree at {alpha}: {via_chern}/{via_coeffs}/{closed_form}"
    return True, "5x5 grid, both routes"


def _check_quasitoric_roundtrip(rng):
    for _ in range(60):
        n = rng.randint(2, 6)
        lam = _rand_bott(rng, n, -3, 3)
        rows = from_bott_matrix(lam)
        if not validate_characteristic(rows):
            return False, f"tower matrix rejected as characteristic: {rows}"
        rho = list(range(n))
        rng.shuffle(rho)
        scrambled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                scrambled[rho[i]][rho[j]] = rows[i][j]
        accepted, sigma = is_bott(scrambled)
        if not accepted:
            return False, f"scrambled tower not recognized: {scrambled}"
        pi = [sigma[rho[i]] for i in range(n)]
        if to_bott_matrix(scrambled, sigma) != conjugate(lam, pi):
            return False, f"roundtrip drifted from a conjugate on {lam.to_lists()}"
    return True, "60 scrambled towers"


def _check_quasitoric_rejects_cycles(rng):
    two_cycle = [[1, 1], [2, 1]]
    three_cycle = [[1, 1, 0], [0, 1, 1], [-2, 0, 1]]
    for rows in (two_cycle, three_cycle):
        if not validate_characteristic(rows):
            return False, f"cycle example is not even characteristic: {rows}"
        if is_bott(rows)[0]:
            return False, f"cyclic matrix accepted as a tower: {rows}"
    if validate_characteristic([[1, 1], [1, 1]]):
        return False, "singular matrix accepted as characteristic"
    return True, "both cycle counterexamples rejected"


def _check_digraph_vs_scan(rng):
    compared = 0
    for _ in range(80):
        n = rng.randint(2, 5)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                rows[i][j] = rng.choice([-2, -1, 1, 2])
        if not validate_characteristic(rows):
            continue
        fast = is_bott(rows)[0]
        slow = bott_by_exhaustive_permutations(rows)[0]
        if fast != slow:
            return False, f"digraph {fast} vs scan {slow} on {rows}"
        compared += 1
    if compared < 20:
        return False, f"only {compared} valid samples"
    return True, f"{compared} matrices compared"


def _check_cycle_determinant(rng):
    for _ in range(30):
        k = rng.randint(2, 6)
        hs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k)]
        prod = 1
        for h in hs:
            prod *= h
        expect = 1 + (-1) ** (k + 1) * prod
        if det_int(cycle_matrix(hs)) != expect:
            return False, f"determinant mismatch for cycle {hs}"
    return True, "30 cycles, k=2..6"


def _check_presentation_axioms(rng):
    for _ in range(40):
        mat = _rand_bott(rng, 5, -3, 3)
        if not bq_structure_check(mat):
            return False, f"tower ring failed its own axioms: {mat.to_lists()}"
    return True, "40 random height-5 towers"


SELFTEST_CHECKS = [
    ("ring-reduction-confluence", _check_reduction_confluence),
    ("ring-basis-dimension", _check_basis_dimension),
    ("ring-square-law", _check_square_law),
    ("ring-grading", _check_grading),
    ("coefficient-mode-agreement", _check_mode_agreement),
    ("conjugation-preserves-structure", _check_conjugation),
    ("stage-trivialization-decrement", _check_trivialize),
    ("retwist-preserves-square", _check_retwist),
    ("moves-preserve-ring-type", _check_moves_preserve_ring),
    ("twist-matches-exhaustive-minimum", _check_twist_vs_oracle),
    ("witness-rows-square-to-zero", _check_witness_square_zero),
    ("even-block-parity-lemma", _check_parity_block),
    ("one-twist-equivalence-relation", _check_onetwist_relation),
    ("one-twist-matches-ring-oracle", _check_onetwist_vs_ring),
    ("pontrjagin-class-invariance", _check_pontrjagin),
    ("bundle-triviality-routes-agree", _check_bundle_routes),
    ("quasitoric-roundtrip", _check_quasitoric_roundtrip),
    ("quasitoric-rejects-cycles", _check_quasitoric_rejects_cycles),
    ("digraph-matches-permutation-scan", _check_digraph_vs_scan),
    ("cyclic-determinant-closed-form", _check_cycle_determinant),
    ("presentation-axioms-random", _check_presentation_axioms),
]


def cmd_selftest(args) -> int:
    def run_one(name, fn, check_seed):
        try:
            ok, detail = fn(random.Random(check_seed))
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        return {"name": name, "ok": ok, "detail": detail}

    results = [run_one(name, fn, args.seed * 1_000_003 + i)
               for i, (name, fn) in enumerate(SELFTEST_CHECKS)]

    passed = sum(1 for r in results if r["ok"])
    if args.output_format == "text":
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            sys.stdout.write(f"{mark} {r['name']}: {r['detail']}\n")
        sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    else:
        payload = {
            "checks": results,
            "passed": passed,
            "total": len(results),
            "ok": passed == len(results),
            "seed": args.seed,
        }
        _emit(payload, args.output_format, table=(["name", "ok", "detail"], results))
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    # each flag sits on the subcommands that read it; elsewhere it is a
    # usage error rather than silently ignored
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="output_format",
                        choices=["json", "csv", "text"], default="json")
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--bound", type=int, default=2,
                         help="search bound for witnesses and enumeration boxes")

    parser = argparse.ArgumentParser(
        prog="bott-rigidity",
        description="Twist numbers, ring isomorphism, one-twist classification "
                    "and Bott recognition, all in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twist", parents=[common, bounded],
                       help="greedy twist number of a tower matrix")
    p.add_argument("matrix_file")
    p.add_argument("--ring", choices=[m.value for m in CoeffMode], default="z",
                   help="coefficient ring (default z)")
    p.add_argument("--certified", action="store_true",
                   help="exit 3 unless minimality was certified")

    p = sub.add_parser("equiv", parents=[common],
                       help="equivalence of two one-twist vectors")
    p.add_argument("vector_file_a")
    p.add_argument("vector_file_b")

    p = sub.add_parser("classify", parents=[common, bounded],
                       help="partition a box of one-twist vectors")
    p.add_argument("--n", type=int, required=True,
                   help="tower height; vectors live in [-bound, bound]^(n-1)")

    p = sub.add_parser("recognize", parents=[common],
                       help="decide whether a characteristic matrix is a tower")
    p.add_argument("matrix_file")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the seeded property-check battery")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property sampling")
    return parser


HANDLERS = {
    "twist": cmd_twist,
    "equiv": cmd_equiv,
    "classify": cmd_classify,
    "recognize": cmd_recognize,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "bound" in args and args.bound < 0:
        sys.stderr.write("--bound must be nonnegative\n")
        return 2
    try:
        return HANDLERS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
