"""One-twist towers: pairwise classification, invariants, bundle triviality.

The golden classification tables were cross-checked pair-by-pair against
the cohomology-ring engine before freezing (all 81 ordered pairs for the
n=3 table agree with ring_isomorphic verdicts).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from bott_rigidity import (
    BottMatrix,
    OneTwistClass,
    classify,
    diffeo_equivalent,
    integral_trivial,
    pontrjagin_invariant,
    rational_trivial,
    ring_isomorphic,
)


class TestDiffeoEquivalent:
    def test_frozen_pairs(self):
        assert diffeo_equivalent((1, 0), (3, 0))[0]
        assert diffeo_equivalent((2, 0), (0, 0))[0]
        # equal doubled pairwise products: 2*2*8 == 2*4*4
        assert diffeo_equivalent((2, 8), (4, 4))[0]
        assert not diffeo_equivalent((1, 1), (1, 3))[0]
        assert diffeo_equivalent((0,), (0,))[0]

    def test_witness_sigma(self):
        ok, w = diffeo_equivalent((1, 0), (0, 1))
        assert ok and w.sigma == (1, 0)
        ok, w = diffeo_equivalent((1, 0), (-1, 0))
        assert ok and w.sigma == (0, 1)
        ok, w = diffeo_equivalent((2, 8), (8, 2))
        assert ok and w.sigma == (0, 1)

    def test_sign_and_permutation_invariance(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 4)
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            signs = tuple(rng.choice((-1, 1)) for _ in range(n))
            perm = list(range(n))
            rng.shuffle(perm)
            w = tuple(signs[i] * v[perm[i]] for i in range(n))
            assert diffeo_equivalent(v, w)[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            diffeo_equivalent((1, 0), (1, 0, 0))

    @pytest.mark.parametrize("bad", [1.7, Fraction(1, 2), True])
    def test_non_integer_input_rejected(self, bad):
        # truncating 1.7 to 1 used to report (1.7, 2) ~ (1, 2)
        with pytest.raises(TypeError, match="not an integer"):
            diffeo_equivalent([bad, 2], [1, 2])
        with pytest.raises(TypeError, match="not an integer"):
            diffeo_equivalent([1, 2], (2, bad))
        with pytest.raises(TypeError, match="not an integer"):
            OneTwistClass([bad, 2])
        with pytest.raises(TypeError, match="not an integer"):
            classify([(1, 2), (bad, 2)])

    def test_equivalence_relation(self):
        rng = random.Random(71)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(12)]
        for v in vecs:
            assert diffeo_equivalent(v, v)[0]
        for v in vecs:
            for w in vecs:
                assert diffeo_equivalent(v, w)[0] == diffeo_equivalent(w, v)[0]
        for a in vecs[:6]:
            for b in vecs[:6]:
                for c in vecs[:6]:
                    if diffeo_equivalent(a, b)[0] and diffeo_equivalent(b, c)[0]:
                        assert diffeo_equivalent(a, c)[0]

    def test_matches_ring_oracle_on_small_corpus(self):
        vecs = [tuple(v) for v in product(range(-1, 2), repeat=2)]
        for v in vecs:
            for w in vecs:
                fast = diffeo_equivalent(v, w)[0]
                slow = ring_isomorphic(BottMatrix.from_last_column(list(v)),
                                       BottMatrix.from_last_column(list(w)))
                assert slow.isomorphic is fast


class TestInvariants:
    def test_pontrjagin_values(self):
        assert pontrjagin_invariant((1, 2)) == (4,)
        assert pontrjagin_invariant((1, 1, 1)) == (2, 2, 2)
        assert pontrjagin_invariant((5,)) == ()
        assert pontrjagin_invariant(()) == ()
        assert pontrjagin_invariant((0, 0)) == (0,)
        # sign-insensitive
        assert pontrjagin_invariant((-1, 1)) == (2,)
        assert pontrjagin_invariant((2, -8)) == (32,)

    def test_invariance_under_equivalence(self):
        rng = random.Random(73)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(20)]
        for v in vecs:
            for w in vecs:
                if diffeo_equivalent(v, w)[0]:
                    assert pontrjagin_invariant(v) == pontrjagin_invariant(w)

    def test_bundle_triviality(self):
        # a vector with any nonzero pairwise product is nontrivial over Q
        assert not rational_trivial((2, 4))
        assert rational_trivial((1, 0))
        assert rational_trivial((0, 0))
        # integral triviality additionally needs even entries... of the
        # surviving twist: (1,0) is odd, hence nontrivial over Z
        assert integral_trivial((2, 0))
        assert not integral_trivial((1, 0))
        assert not integral_trivial((2, 4))

    def test_integral_implies_rational(self):
        rng = random.Random(79)
        for _ in range(80):
            v = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            if integral_trivial(v):
                assert rational_trivial(v)
            if integral_trivial(v):
                assert diffeo_equivalent(v, tuple([0] * len(v)))[0]


GOLDEN_N3_B1 = [
    {"representative": [0, 0], "members": [[0, 0]],
     "size": 1, "pontrjagin": [0], "class_id": 0},
    {"representative": [0, -1], "members": [[-1, 0], [0, -1], [0, 1], [1, 0]],
     "size": 4, "pontrjagin": [0], "class_id": 1},
    {"representative": [-1, -1], "members": [[-1, -1], [-1, 1], [1, -1], [1, 1]],
     "size": 4, "pontrjagin": [2], "class_id": 2},
]


class TestClassify:
    def test_single_entry_corpus(self):
        out = classify([(a,) for a in range(-2, 3)])
        assert [c["size"] for c in out] == [3, 2]
        assert out[0]["members"] == [[-2], [0], [2]]
        assert out[1]["members"] == [[-1], [1]]

    def test_golden_two_entry_table(self):
        corpus = [tuple(v) for v in product(range(-1, 2), repeat=2)]
        assert classify(corpus) == GOLDEN_N3_B1

    @pytest.mark.parametrize("k,bound", [(2, 2), (2, 4), (3, 2), (4, 1)])
    def test_classes_are_consistent(self, k, bound):
        corpus = [tuple(v) for v in product(range(-bound, bound + 1), repeat=k)]
        out = classify(corpus)
        assert sum(c["size"] for c in out) == len(corpus)
        for c in out:
            rep = tuple(c["representative"])
            for m in c["members"]:
                assert diffeo_equivalent(rep, tuple(m))[0]
        reps = [tuple(c["representative"]) for c in out]
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                assert not diffeo_equivalent(r, s)[0]

    def test_duplicates_share_a_class(self):
        out = classify([(1, 1), (1, 1), (-1, 1)])
        assert len(out) == 1 and out[0]["size"] == 3

    def test_matches_grouping_by_invariant_and_min_key(self):
        # reference: group by the closed-form invariant of each vector,
        # then key every member again to pick the least
        def class_key(vec):
            return (tuple(sorted(abs(x) for x in vec)), tuple(x % 2 for x in vec), vec)

        def invariant(vec):
            nz = [abs(x) for x in vec if x]
            if len(nz) >= 3:
                return (3, tuple(sorted(abs(x) for x in vec)))
            odd = sum(x % 2 for x in vec)
            if len(nz) == 2:
                return (2, nz[0] * nz[1], odd)
            return (1, odd)

        def reference(corpus):
            vecs = [c.alpha if isinstance(c, OneTwistClass) else tuple(c) for c in corpus]
            groups = {}
            for v in vecs:
                groups.setdefault(invariant(v), []).append(v)
            classes = []
            for members in groups.values():
                rep = min(members, key=class_key)
                classes.append({
                    "representative": list(rep),
                    "members": [list(v) for v in members],
                    "size": len(members),
                    "pontrjagin": list(pontrjagin_invariant(rep)),
                })
            classes.sort(key=lambda c: class_key(tuple(c["representative"])))
            for cid, c in enumerate(classes):
                c["class_id"] = cid
            return classes

        def items(classes):
            # the fields in order, as a caller iterating a class sees them
            return [list(c.items()) for c in classes]

        rng = random.Random(149)
        for _ in range(300):
            k = rng.randint(1, 5)
            bound = rng.randint(0, 6)
            pool = [tuple(rng.randint(-bound, bound) for _ in range(k))
                    for _ in range(rng.randint(1, 12))]
            # duplicates, signed permutations of pool vectors, zeros, and
            # members given as OneTwistClass
            corpus = []
            for _ in range(rng.randint(0, 40)):
                v = list(rng.choice(pool))
                rng.shuffle(v)
                v = [rng.choice((1, -1)) * x for x in v]
                corpus.append(OneTwistClass(v) if rng.random() < 0.2 else v)
            corpus += [(0,) * k] * rng.randint(0, 2)
            rng.shuffle(corpus)
            assert items(classify(corpus)) == items(reference(corpus)), corpus
        for k, bound in [(1, 3), (2, 4), (3, 3), (4, 2)]:
            corpus = list(product(range(-bound, bound + 1), repeat=k))
            assert items(classify(corpus)) == items(reference(corpus))
