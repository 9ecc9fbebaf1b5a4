"""Classification of one-twist towers over a product of projective lines.

A one-twist tower is determined by an integer vector alpha of length
n - 1: all stages are untwisted except the last, whose twist form is
sum alpha[i] x_i. Two such towers are equivalent exactly when some
permutation matches the coordinates of alpha to those of beta in parity
and matches every pairwise product in absolute value. diffeo_equivalent
searches for that permutation and returns it as the witness; classify
groups a corpus by a closed-form complete invariant of the same
relation. The ring-isomorphism oracle in the analysis module provides
the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BottMatrix, integer_entries


@dataclass(frozen=True)
class OneTwistClass:
    """The twist vector of a one-twist tower; the tower has height len + 1."""

    alpha: tuple

    def __init__(self, alpha):
        object.__setattr__(self, "alpha", integer_entries(alpha, "twist vector"))

    @property
    def n(self) -> int:
        return len(self.alpha) + 1

    def bott_matrix(self) -> BottMatrix:
        return BottMatrix.from_last_column(self.alpha)


@dataclass(frozen=True)
class EquivalenceWitness:
    sigma: tuple


def _vec(alpha):
    if isinstance(alpha, OneTwistClass):
        return alpha.alpha
    return integer_entries(alpha, "twist vector")


def diffeo_equivalent(alpha, beta):
    """Match alpha to beta by a permutation preserving parities and |products|.

    Returns (True, EquivalenceWitness) or (False, None). Candidates for
    each slot are filtered by parity up front and products are checked
    incrementally against all previously assigned slots.
    """
    a, b = _vec(alpha), _vec(beta)
    if len(a) != len(b):
        raise ValueError(f"vectors have lengths {len(a)} and {len(b)}")
    k = len(a)
    if sorted(x % 2 for x in a) != sorted(x % 2 for x in b):
        return False, None
    # slots with the rarer parity first: fewer candidates, earlier pruning
    odd_slots = [i for i in range(k) if b[i] % 2]
    even_slots = [i for i in range(k) if b[i] % 2 == 0]
    slot_order = sorted(range(k), key=lambda i: (len(odd_slots if b[i] % 2 else even_slots), i))
    sigma = [None] * k
    used = [False] * k

    def assign(pos):
        if pos == k:
            return True
        i = slot_order[pos]
        for cand in range(k):
            if used[cand] or (a[cand] - b[i]) % 2:
                continue
            ok = True
            for j in range(k):
                if sigma[j] is not None and abs(a[cand] * a[sigma[j]]) != abs(b[i] * b[j]):
                    ok = False
                    break
            if not ok:
                continue
            sigma[i] = cand
            used[cand] = True
            if assign(pos + 1):
                return True
            sigma[i] = None
            used[cand] = False
        return False

    if not assign(0):
        return False, None
    return True, EquivalenceWitness(sigma=tuple(sigma))


def rational_trivial(alpha) -> bool:
    """At most one nonzero coordinate: the rational ring is the product ring."""
    a = _vec(alpha)
    return sum(1 for x in a if x) <= 1


def integral_trivial(alpha) -> bool:
    """Single even twist (or none): the integral ring is the product ring."""
    a = _vec(alpha)
    nz = [x for x in a if x]
    return len(nz) == 0 or (len(nz) == 1 and nz[0] % 2 == 0)


def pontrjagin_invariant(alpha) -> tuple:
    """Sorted multiset {|2 a_i a_j| : i < j}, the coefficient data of alpha^2."""
    a = _vec(alpha)
    return tuple(sorted(abs(2 * a[i] * a[j]) for i in range(len(a)) for j in range(i + 1, len(a))))


def _class_key(vec):
    return (tuple(sorted(abs(x) for x in vec)), tuple(x % 2 for x in vec), vec)


def classify(corpus) -> list[dict]:
    """Partition a corpus of twist vectors into equivalence classes.

    Each vector is keyed once by _class_key, and the vectors are grouped
    by an invariant read off that key, which is complete for the
    one-twist criterion, so no pair is compared. Each class reports the
    lexicographically least representative by (sorted absolute values,
    parities), its members in input order, and the shared Pontrjagin
    multiset; classes are sorted by that key.

    The invariant: the key holds the sorted |a_i| and the parities of the
    vector, so the number of odd entries is the sum of the parities. Let
    m be the number of nonzero entries. For m >= 2 an entry is nonzero
    exactly when it has a nonzero product with another entry, so a
    matching permutation sends nonzero slots to nonzero slots, and m
    itself is recovered from the C(m, 2) nonzero products.

    m >= 3: for any slot i pick nonzero slots j, k other than i; then
    |a_i|^2 = |a_i a_j| |a_i a_k| / |a_j a_k|, so a matching permutation
    matches every |a_i|. Conversely equal sorted |a_i| give a permutation
    that matches products, and parities too since |x| and x share parity.
    Invariant: the sorted absolute values.

    m = 2: the one nonzero product and the number of odd entries are
    preserved. Conversely, with the same odd count the two nonzero
    entries pair up parity for parity and the zeros pair with zeros, and
    every other product is 0 on both sides. Invariant: the product of the
    two nonzero |a_i|, the two largest, and the odd count.

    m <= 1: every product is 0, so only the odd count matters.
    """
    vecs = [_vec(v) for v in corpus]
    if vecs:
        k = len(vecs[0])
        for v in vecs:
            if len(v) != k:
                raise ValueError("corpus vectors must have uniform length")
    groups: dict = {}
    for v in vecs:
        key = _class_key(v)
        sorted_abs, parities, _ = key
        m = len(sorted_abs) - sorted_abs.count(0)
        if m >= 3:
            invariant = (3, sorted_abs)
        elif m == 2:
            invariant = (2, sorted_abs[-1] * sorted_abs[-2], sum(parities))
        else:
            invariant = (1, sum(parities))
        groups.setdefault(invariant, []).append(key)
    # a key ends with its vector, so the least key is the representative's,
    # and equal keys hold equal vectors, of which min keeps the first
    classes = []
    for cid, (rep_key, keys) in enumerate(sorted((min(keys), keys) for keys in groups.values())):
        rep = rep_key[2]
        classes.append({
            "representative": list(rep),
            "members": [list(key[2]) for key in keys],
            "size": len(keys),
            "pontrjagin": list(pontrjagin_invariant(rep)),
            "class_id": cid,
        })
    return classes
