"""Command-line front end.

Subcommands
  twist      greedy twist number of an upper-triangular matrix, certified
             by the square-zero-line lower bound when the two meet
  equiv      equivalence test for two one-twist vectors
  classify   enumerate a box of one-twist vectors and partition it
  recognize  decide whether a characteristic matrix is a Bott tower
  selftest   seeded desk-scale property checks across every module

Exit codes: 0 affirmative or success, 1 negative verdict or failed
check, 2 malformed input or a result too large to print, 3 budget
exhausted (a size guard, or under twist --certified a greedy count above
the line bound). Malformed input includes a file that is not UTF-8,
JSON that does not parse (arrays nested past the recursion limit
included) and a number longer than the int-digit limit; a result too
large to print has an integer past that limit, and nothing of it is
written to stdout.
Inputs are UTF-8 JSON files. Output is byte-stable for a fixed command
line: JSON keys are sorted and randomness is seeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from itertools import product
from math import comb

from .analysis import twist_number
from .checks import SELFTEST_CHECKS
from .core import BottMatrix, CoeffMode
from .onetwist import OneTwistClass, classify, diffeo_equivalent, pontrjagin_invariant
from .quasitoric import _recognition, _reordered_rows

CLASSIFY_GUARD = 200_000


class InputError(ValueError):
    pass


def _load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc}") from exc
    if "\r" in text:
        # read line endings as text mode does, so the positions in a JSON
        # error stay the same; outside strings CR and LF are whitespace
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, a number past the int-digit limit, or arrays
        # nested deeper than the recursion limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


# Each input int is checked once, by the library routine that reads it
# (BottMatrix, quasitoric._recognition, OneTwistClass); the loaders
# check only the shape of the JSON, and a non-int entry's TypeError
# becomes an input error naming the file.


def _load_square_matrix(path: str) -> list[list]:
    """The rows of a square JSON matrix, as read; the entries are not checked."""
    data = _load_json_file(path)
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a nonempty JSON array of rows")
    for i, r in enumerate(data):
        if not isinstance(r, list):
            raise InputError(f"{path} row {i}: expected a JSON array of integers")
    n = len(data)
    if any(len(r) != n for r in data):
        raise InputError(f"{path}: matrix must be square")
    return data


def _load_bott_matrix(path: str) -> BottMatrix:
    rows = _load_square_matrix(path)
    try:
        return BottMatrix(rows)
    except TypeError as exc:
        raise InputError(f"{path} {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_vector(path: str) -> OneTwistClass:
    data = _load_json_file(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON array of integers")
    try:
        return OneTwistClass(data)
    except TypeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _inline(v) -> str:
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, fmt: str, table: tuple[list[str], list[dict]] | None = None):
    """Write the payload in one piece, or nothing when it cannot be printed."""
    try:
        text = _render(payload, fmt, table)
    except ValueError as exc:
        # an integer past the int-digit limit has no decimal form
        raise InputError(f"result too large to print: {exc}") from exc
    sys.stdout.write(text)


def _render(payload: dict, fmt: str, table: tuple[list[str], list[dict]] | None) -> str:
    # payloads hold only str-keyed dicts, lists, tuples, ints, bools,
    # strings and None, which json.dumps writes as they are
    if fmt == "json":
        return json.dumps(payload, sort_keys=True) + "\n"
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
        return buf.getvalue()
    return "".join(f"{key}: {_inline(payload[key])}\n" for key in sorted(payload))


# ---------------------------------------------------------------------------
# subcommands


def cmd_twist(args) -> int:
    matrix = _load_bott_matrix(args.matrix_file)
    report = twist_number(matrix, args.ring, certify=True)
    # certify=True always sets the oracle report
    oracle = report.oracle
    payload = {
        "twist": report.twist,
        "certified": report.certified_minimal,
        "budget_exhausted": report.budget_exhausted,
        "moves": list(report.witness_moves),
        "final_matrix": report.final_matrix.to_lists(),
        "oracle": {
            "value": oracle.value,
            "lower_bound": oracle.lower_bound,
            "certified": oracle.certified,
        },
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
        "vectors": [list(alpha.alpha), list(beta.alpha)],
        "witness": {"sigma": list(witness.sigma)} if witness is not None else None,
        "pontrjagin": [list(pontrjagin_invariant(alpha)), list(pontrjagin_invariant(beta))],
    }
    _emit(payload, args.output_format)
    return 0 if equivalent else 1


def cmd_classify(args) -> int:
    if args.bound < 0:
        raise InputError("--bound must be nonnegative")
    n = args.n
    if n < 1:
        raise InputError("--n must be at least 1")
    bound = args.bound
    side = 2 * bound + 1
    # a side of at least 2 passes the guard by the exponent
    # CLASSIFY_GUARD.bit_length(), so the full power is never formed
    total = side ** min(n - 1, CLASSIFY_GUARD.bit_length())
    if total > CLASSIFY_GUARD:
        sys.stderr.write(
            f"refusing to enumerate {side}^{n - 1} vectors (guard {CLASSIFY_GUARD})\n")
        return 3
    # each class prints C(n - 1, 2) Pontrjagin products; at bound 0 the one
    # vector passes the guard above at any n
    pairs = comb(n - 1, 2)
    if pairs > CLASSIFY_GUARD:
        sys.stderr.write(
            f"refusing to list C({n - 1}, 2) = {pairs} Pontrjagin products (guard {CLASSIFY_GUARD})\n")
        return 3
    classes = classify(product(range(-bound, bound + 1), repeat=n - 1))
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
    path = args.matrix_file
    rows = _load_square_matrix(path)
    try:
        mat, valid, sigma = _recognition(rows)
    except TypeError as exc:
        raise InputError(f"{path} {exc}") from exc
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    bott = sigma is not None
    payload = {"characteristic": valid, "bott": bott,
               "sigma": list(sigma) if bott else None,
               "bott_matrix": _reordered_rows(mat, sigma) if bott else None}
    _emit(payload, args.output_format)
    return 0 if bott else 1


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


def _build_parser():
    """The top-level parser, and the parser and plain spec of each subcommand by name.

    The plain spec (see _plain_spec) is read off the Action objects that
    add_argument returned, which leave out -h/--help, so each flag is
    declared here only.

    Each flag sits on the subcommands that read it; elsewhere it is a
    usage error rather than silently ignored.
    """
    common = argparse.ArgumentParser(add_help=False)
    output_format = common.add_argument("--format", dest="output_format",
                                        choices=["json", "csv", "text"], default="json")

    parser = argparse.ArgumentParser(
        prog="bott-rigidity",
        description="Twist numbers, ring isomorphism, one-twist classification "
                    "and Bott recognition, all in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    declared = {}

    def add(name: str, summary: str):
        """The add_argument of a new subcommand, recording each Action it returns."""
        p = subparsers[name] = sub.add_parser(name, parents=[common], help=summary)
        actions = declared[name] = [output_format]
        return lambda *names, **kwargs: actions.append(p.add_argument(*names, **kwargs))

    arg = add("twist", "greedy twist number of a tower matrix")
    arg("matrix_file")
    arg("--ring", choices=[m.value for m in CoeffMode], default="z",
        help="coefficient ring (default z)")
    arg("--certified", action="store_true",
        help="exit 3 unless minimality was certified by the line bound")

    arg = add("equiv", "equivalence of two one-twist vectors")
    arg("vector_file_a")
    arg("vector_file_b")

    arg = add("classify", "partition a box of one-twist vectors")
    arg("--bound", type=int, default=2,
        help="radius of the enumeration box (default 2)")
    arg("--n", type=int, required=True,
        help="tower height; vectors live in [-bound, bound]^(n-1)")

    arg = add("recognize", "decide whether a characteristic matrix is a tower")
    arg("matrix_file")

    arg = add("selftest", "run the seeded property-check battery")
    arg("--seed", type=int, default=0,
        help="seed for randomized property sampling")
    return parser, subparsers, {name: _plain_spec(a) for name, a in declared.items()}


def _plain_spec(actions):
    """(positionals, options by option string, required options, defaults) of a subcommand."""
    for a in actions:
        # _plain_args reads one-token positionals, one-token stores and
        # store-true flags, and converts with int only
        assert type(a) is argparse._StoreTrueAction or (
            type(a) is argparse._StoreAction and a.nargs is None and a.type in (None, int)), a
    return (tuple(a for a in actions if not a.option_strings),
            {s: a for a in actions for s in a.option_strings},
            frozenset(a for a in actions if a.option_strings and a.required),
            {a.dest: a.default for a in actions})


# parsing leaves the parsers unchanged, so one build serves every call
_PARSER, _SUBPARSERS, _PLAIN = _build_parser()
HANDLERS = {
    "twist": cmd_twist,
    "equiv": cmd_equiv,
    "classify": cmd_classify,
    "recognize": cmd_recognize,
    "selftest": cmd_selftest,
}


def _plain_args(argv):
    """The Namespace argparse returns for a plain command line; None for any other.

    argv[0] names a subcommand. A plain line has only positionals that
    do not start with "-" and exact option strings of that subcommand
    (not -h/--help). A store-true flag takes no value; every other
    option takes the next token, which does not start with "-", is one
    of the option's choices when it has them, and for type=int is at
    most 99 ASCII digits. The positionals are exactly as many as
    declared, and every required option is present. argparse reads such
    a line token by token as here, so the Namespace is the one it
    returns. Abbreviations, "--x=v", negative numbers, "--", help and
    every usage error are left to argparse.
    """
    positionals, options, required, defaults = _PLAIN[argv[0]]
    values = dict(defaults, command=argv[0])
    seen = set()
    given = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if given == len(positionals):
                return None
            values[positionals[given].dest] = token
            given += 1
            continue
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        # a missing value reads as "-", which is refused like an option
        value = next(tokens, "-")
        if value[:1] == "-" or action.choices is not None and value not in action.choices:
            return None
        if action.type is int:
            if not (value.isascii() and value.isdigit() and len(value) < 100):
                return None
            value = int(value)
        values[action.dest] = value
    if given != len(positionals) or not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse(argv):
    """_PARSER.parse_args(argv), parsing a leading subcommand's arguments once.

    Given the subcommand first, the top-level parser would only hand the
    rest to that subcommand's parser and report what it leaves over. A
    plain line (see _plain_args) is read without argparse. Any other line
    is parsed by the subcommand's parser directly, and the leftovers are
    reported by the top-level parser, with its prefix. A command line
    without a leading subcommand (none, -h, an unknown command, an option
    before the command) goes through the full parser. So argparse alone
    writes help text and usage errors.
    """
    if argv is None:
        argv = sys.argv[1:]
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args = _plain_args(argv)
    if args is not None:
        return args
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    return _run(_parse(argv))


def _run(args) -> int:
    """Call the subcommand's handler on parsed arguments; an input error exits 2."""
    try:
        return HANDLERS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
