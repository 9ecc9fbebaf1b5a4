"""The three benchmark workloads: seeded inputs, one call per op, output checks.

Each workload is a closed loop with one caller. Its inputs come in
passes: pass p is drawn from the seed and p alone, so a run repeats
exactly for a given seed, and every pass has the same composition so
that runs with different seeds measure comparable work. Construction
(input generation, input files and pass 0) is the timed set-up; checks
run after the timed and traced regions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from collections import Counter, defaultdict
from itertools import product

from reference import (
    conjugate_rows,
    is_strictly_upper,
    one_twist_key,
    tower_stratum,
    witness_matches,
)


class Failure:
    """An op that raised: counted as an error, never as a verdict."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _pass_rng(seed: int, p: int) -> random.Random:
    return random.Random(seed * 1_000_003 + p)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


class Op:
    """One call: `args` go to the program, `ref` stays with the checker."""

    __slots__ = ("kind", "args", "ref")

    def __init__(self, kind: str, args, ref):
        self.kind = kind
        self.args = args
        self.ref = ref


class Workload:
    """Inputs of one workload in passes, how to run one op, and how to check it."""

    name = ""
    rerun_pass0 = False

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir

    def make_pass(self, p: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        """Why the output is wrong, or None when it is right."""
        raise NotImplementedError

    def decided(self, out) -> bool:
        raise NotImplementedError

    def check_pass(self, ops: list[Op], outs: list) -> list[str]:
        """Checks on a whole pass; one message per failed check."""
        return []

    def check_repeat(self, ops: list[Op], first: list, second: list) -> list[str]:
        """Checks that two runs of the same ops gave the same outputs."""
        return [f"{op.kind} {op.ref}: two runs disagree"
                for op, x, y in zip(ops, first, second)
                if not isinstance(x, Failure) and x != y]


def _pair_orbit(a, b) -> tuple:
    """Orbit key of an unordered one-twist pair under signed coordinate swaps.

    Swapping the two base stages or negating a base generator, applied to
    both towers at once, maps the pair to one with the same verdict, so
    each pass takes one member per orbit and every pass holds the same
    mix of verdicts.
    """
    keys = []
    for swap in (False, True):
        for s0 in (1, -1):
            for s1 in (1, -1):
                def move(v):
                    v = (v[1], v[0]) if swap else v
                    return (v[0] * s0, v[1] * s1)
                x, y = move(a), move(b)
                keys.append(min((x, y), (y, x)))
    return min(keys)


class IsoPairs(Workload):
    """ring_isomorphic on unordered one-twist pairs from the height-3 box [-3,3]^2."""

    name = "iso_pairs"

    def __init__(self, pkg, seed, workdir, scale):
        super().__init__(pkg, seed, workdir)
        vecs = list(product(range(-3, 4), repeat=2))
        orbits = defaultdict(list)
        for i, a in enumerate(vecs):
            for b in vecs[i:]:
                orbits[_pair_orbit(a, b)].append((a, b))
        rng = random.Random(seed)
        self.orbits = []
        for key in sorted(orbits):
            members = sorted(orbits[key])
            rng.shuffle(members)
            self.orbits.append(members)
        self.per_pass = _scaled(len(self.orbits), scale)

    def make_pass(self, p):
        rng = _pass_rng(self.seed, p)
        order = list(range(len(self.orbits)))
        rng.shuffle(order)
        from_col = self.pkg.root.BottMatrix.from_last_column
        ops = []
        for k in order[:self.per_pass]:
            members = self.orbits[k]
            a, b = members[p % len(members)]
            if rng.random() < 0.5:
                a, b = b, a
            ops.append(Op("pair", (from_col(a), from_col(b)), (a, b)))
        return ops

    def execute(self, op):
        rep = self.pkg.root.ring_isomorphic(*op.args)
        return rep.isomorphic, rep.reason

    def check(self, op, out):
        verdict, reason = out
        if verdict is None:
            return None
        a, b = op.ref
        expected = self.pkg.root.diffeo_equivalent(a, b)[0]
        if verdict != expected:
            return f"{a} vs {b}: ring_isomorphic {verdict}, diffeo_equivalent {expected}"
        if verdict and reason != "witness verified":
            return f"{a} vs {b}: True with reason {reason!r}"
        return None

    def decided(self, out):
        return out[0] is not None


def _tower(n: int, entries) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for j in range(n):
        for i in range(j):
            rows[i][j] = next(it)
    return rows


# Twist-number histogram of the 125 height-3 towers over [-2,2] (acceptance c03).
HEIGHT3_HISTOGRAM = {0: 15, 1: 66, 2: 44}


class TwistCertify(Workload):
    """twist_number(certify=True, bound=2) on towers of height 3 and 4."""

    name = "twist_certify"
    height4_per_pass = 24

    def __init__(self, pkg, seed, workdir, scale):
        super().__init__(pkg, seed, workdir)
        modes = [pkg.core.CoeffMode(m) for m in ("z", "z2local", "q")]
        towers = [_tower(3, e) for e in product(range(-2, 3), repeat=3)]
        step = max(1, round(1 / scale))
        self.height3 = [(rows, mode) for mode in modes for rows in towers[::step]]
        self.full_height3 = step == 1
        self.height4 = [(tower_stratum(rows), rows)
                        for rows in (_tower(4, e) for e in product(range(-2, 3), repeat=6))]
        self.n4 = _scaled(self.height4_per_pass, scale)

    def _height4_sample(self, rng) -> list:
        """Systematic sample over towers sorted by stratum: every stratum in proportion."""
        keyed = sorted((stratum, rng.random(), rows) for stratum, rows in self.height4)
        step = len(keyed) / self.n4
        offset = rng.random() * step
        return [keyed[int(offset + k * step)][2] for k in range(self.n4)]

    def make_pass(self, p):
        rng = _pass_rng(self.seed, p)
        integer = self.pkg.core.CoeffMode("z")
        cases = self.height3 + [(rows, integer) for rows in self._height4_sample(rng)]
        rng.shuffle(cases)
        bott = self.pkg.root.BottMatrix
        return [Op(f"h{len(rows)}", (bott(rows), mode), (rows, mode.value)) for rows, mode in cases]

    def execute(self, op):
        matrix, mode = op.args
        rep = self.pkg.root.twist_number(matrix, mode, certify=True, bound=2)
        return rep.twist, rep.certified_minimal, rep.oracle.value if rep.oracle else None

    def check(self, op, out):
        twist, certified, oracle_value = out
        if not certified or twist != oracle_value:
            return (f"{op.ref}: twist {twist}, certified {certified}, "
                    f"oracle value {oracle_value}")
        return None

    def decided(self, out):
        return out[1]

    def check_pass(self, ops, outs):
        if not self.full_height3:
            return []
        hist = {"z": Counter(), "z2local": Counter()}
        for op, out in zip(ops, outs):
            rows, mode = op.ref
            if len(rows) == 3 and mode in hist and not isinstance(out, Failure):
                hist[mode][out[0]] += 1
        return [f"height-3 twist histogram in mode {mode}: {dict(h)}"
                for mode, h in hist.items() if dict(h) != HEIGHT3_HISTOGRAM]


# sha256 of the stdout bytes of each classify rung, recorded at the commit
# that introduced this benchmark; CLI output must stay byte-stable.
CLASSIFY_LADDER = {
    (2, 1, "json"):
        "f45e0ae2c499428f24fed11cee0e40ada3f1a7b933a961d4d43ecdc496b5a455",
    (2, 4, "csv"):
        "f84c73be16ba79a87cd0b4ed49033daa8400c74b2616408b2c96dc14c8153fa3",
    (3, 1, "json"):
        "34600b76534bb7115f3f6b237fc82036b3a8ae1d3af19b2ffd84bbc0a8a0edef",
    (3, 2, "json"):
        "0f370d4cba125cea2b87988199563dc82f6a7bbc8a0de96b399c941e345c0d5d",
    (3, 3, "json"):
        "2f08c5a060e450033d2a67be5f2ae334360b5fb2d7da5f2f513b7a66451f6afd",
    (4, 1, "json"):
        "91fc7297523f824b7d6c9000ae00933899b2b38fccf0cdde986c581d808eea50",
    (4, 2, "csv"):
        "6b450e81a8dc2b3980b6f66deca13054c9606cc073e4cfd21fdf9d9ad5ebca4c",
    (4, 3, "json"):
        "dc2472cf393dd2abf9a4d1ddef7e71e9a688ae988a0083aa5e1e47af0f904a86",
    (5, 1, "json"):
        "70b91a14367c810168e5b5e7b440356cbcab16f367d50e9f5df7f177b5d584ec",
    (5, 2, "json"):
        "395c8a71d43b2d670e2614dbf243e9fe7e17a0959505df34423000db466d9f3d",
}


class CliMix(Workload):
    """In-process cli.main runs of classify, equiv and recognize, stdout captured."""

    name = "cli_mix"
    # stdout must be byte-identical for a fixed command line, so untraced
    # runs execute their first pass a second time to compare.
    rerun_pass0 = True
    equiv_per_kind = 40
    recognize_per_height = 40

    def __init__(self, pkg, seed, workdir, scale):
        super().__init__(pkg, seed, workdir)
        self.n_equiv = _scaled(self.equiv_per_kind, scale)
        self.n_recognize = _scaled(self.recognize_per_height, scale)
        self.ladder = list(CLASSIFY_LADDER) if scale >= 1 else list(CLASSIFY_LADDER)[:4]
        self.groups: dict = {}

    def _write(self, path: str, data) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def make_pass(self, p):
        rng = _pass_rng(self.seed, p)
        folder = os.path.join(self.workdir, f"pass{p}")
        os.makedirs(folder, exist_ok=True)
        ops = []
        for n, bound, fmt in self.ladder:
            ops.append(Op("classify", ["classify", "--n", str(n), "--bound", str(bound),
                                       "--format", fmt], (n, bound, fmt)))
        for k in (2, 3, 4):
            for kind in ("signed_perm", "random"):
                for _ in range(self.n_equiv):
                    a = [rng.randint(-3, 3) for _ in range(k)]
                    if kind == "random":
                        b = [rng.randint(-3, 3) for _ in range(k)]
                    else:
                        b = [rng.choice((1, -1)) * x for x in rng.sample(a, k)]
                    idx = len(ops)
                    fa = self._write(os.path.join(folder, f"{idx}a.json"), a)
                    fb = self._write(os.path.join(folder, f"{idx}b.json"), b)
                    ops.append(Op("equiv", ["equiv", fa, fb], (tuple(a), tuple(b))))
        for n in range(2, 9):
            for _ in range(self.n_recognize):
                tower = _tower(n, [rng.randint(-2, 2) for _ in range(n * (n - 1) // 2)])
                scramble = list(range(n))
                rng.shuffle(scramble)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                char = [[signs[i] * (tower[scramble[i]][scramble[j]] + (i == j))
                         for j in range(n)] for i in range(n)]
                path = self._write(os.path.join(folder, f"{len(ops)}r.json"), char)
                ops.append(Op("recognize", ["recognize", path], (tower, scramble)))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(op.args)
        return code, out.getvalue()

    def decided(self, out):
        return out[0] in (0, 1)

    def _key_groups(self, n: int, bound: int) -> list:
        if (n, bound) not in self.groups:
            groups = defaultdict(set)
            for vec in product(range(-bound, bound + 1), repeat=n - 1):
                groups[one_twist_key(vec)].add(vec)
            self.groups[n, bound] = list(groups.values())
        return self.groups[n, bound]

    def check(self, op, out):
        code, text = out
        return getattr(self, f"_check_{op.kind}")(op.ref, code, text)

    def _check_classify(self, ref, code, text):
        n, bound, fmt = ref
        if code != 0:
            return f"classify {ref}: exit {code}"
        groups = self._key_groups(n, bound)
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))[1:]
            sizes = sorted(int(r[2]) for r in rows)
            if sizes != sorted(len(g) for g in groups):
                return f"classify {ref}: class sizes {sizes} differ from the canonical keys"
        else:
            payload = json.loads(text)
            got = sorted(sorted(tuple(m) for m in c["members"]) for c in payload["classes"])
            if payload["class_count"] != len(groups) or got != sorted(sorted(g) for g in groups):
                return f"classify {ref}: {payload['class_count']} classes, {len(groups)} keys"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != CLASSIFY_LADDER[ref]:
            return f"classify {ref}: stdout bytes changed (sha256 {digest})"
        return None

    def _check_equiv(self, ref, code, text):
        a, b = ref
        payload = json.loads(text)
        expected = one_twist_key(a) == one_twist_key(b)
        if payload["equivalent"] != expected or code != (0 if expected else 1):
            return f"equiv {a} {b}: {payload['equivalent']} (exit {code}), keys say {expected}"
        if expected and not witness_matches(a, b, payload["witness"]["sigma"]):
            return f"equiv {a} {b}: witness {payload['witness']} does not match"
        return None

    def _check_recognize(self, ref, code, text):
        tower, scramble = ref
        payload = json.loads(text)
        if code != 0 or not payload["bott"]:
            return f"recognize {tower}: exit {code}, payload {payload}"
        sigma = payload["sigma"]
        # scrambled row i is source stage scramble[i], placed at position sigma[i]
        pi = [0] * len(sigma)
        for i, s in enumerate(scramble):
            pi[s] = sigma[i]
        if sorted(sigma) != list(range(len(sigma))):
            return f"recognize {tower}: sigma {sigma} is not a permutation"
        recovered = payload["bott_matrix"]
        if not is_strictly_upper(recovered) or recovered != conjugate_rows(tower, pi):
            return f"recognize {tower}: {recovered} is not an admissible conjugate"
        return None
