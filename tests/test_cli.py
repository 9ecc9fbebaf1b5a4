"""Command-line interface: exit codes, payload shapes, byte-stable output."""

import argparse
import hashlib
import json
import random
import sys

import pytest

from bott_rigidity import analysis, cli, core, onetwist, quasitoric
from bott_rigidity.checks import cycle_matrix
from bott_rigidity.cli import CLASSIFY_GUARD, main
from bott_rigidity.linalg import det_int


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


HEIGHT_5_TOWER = [[1, 0, 2, 0, 0], [0, 1, 0, 0, 0], [0, -1, 1, 0, 0],
                  [1, 0, 0, -1, 0], [2, 1, 0, 1, 1]]


class TestTwist:
    def test_even_hirzebruch(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 2], [0, 0]])
        rc, out, _ = run(capsys, ["twist", path])
        assert rc == 0
        payload = json.loads(out)
        assert payload["twist"] == 0
        assert payload["certified"] is True
        assert payload["budget_exhausted"] is False
        assert payload["final_matrix"] == [[0, 0], [0, 0]]
        assert payload["moves"] == [{"matrix": [[0, 0], [0, 0]], "stage": 1}]
        assert payload["oracle"]["value"] == 0

    def test_odd_hirzebruch(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 1], [0, 0]])
        rc, out, _ = run(capsys, ["twist", path])
        assert rc == 0
        payload = json.loads(out)
        assert payload["twist"] == 1 and payload["certified"] is True

    def test_tall_tower_exhausts_budget(self, tmp_path, capsys, monkeypatch):
        # a tower above the search height is certified by the line bound
        path = write_json(tmp_path, "m.json",
                          [[0] * 6 for _ in range(6)])
        rc, out, _ = run(capsys, ["twist", path, "--certified"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["budget_exhausted"] is False and payload["certified"] is True
        assert payload["oracle"] == {"certified": True, "lower_bound": 0, "value": 0}
        # the budget runs out only when the greedy count exceeds the line
        # bound, at any height; no known tower does, so the bound is lowered
        real = analysis._line_lower_bound
        monkeypatch.setattr(analysis, "_line_lower_bound",
                            lambda n, lines, mode: real(n, lines, mode) - 1)
        path = write_json(tmp_path, "t.json", [[0, 1, 1], [0, 0, -2], [0, 0, 0]])
        rc, out, _ = run(capsys, ["twist", path])
        assert rc == 0
        payload = json.loads(out)
        assert payload["budget_exhausted"] is True and payload["certified"] is False
        assert payload["oracle"] == {"certified": False, "lower_bound": 1, "value": 2}
        rc, out, _ = run(capsys, ["twist", path, "--certified"])
        assert rc == 3

    def test_rational_ring_flag(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 1], [0, 0]])
        rc, out, _ = run(capsys, ["twist", path, "--ring", "q"])
        assert rc == 0 and json.loads(out)["twist"] == 0

    def test_input_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(capsys, ["twist", str(bad)])[0] == 2
        lower = write_json(tmp_path, "low.json", [[0, 0], [1, 0]])
        rc, _, err = run(capsys, ["twist", lower])
        assert rc == 2 and err
        assert run(capsys, ["twist", write_json(tmp_path, "ns.json",
                                                [[0, 1]])])[0] == 2
        assert run(capsys, ["twist", write_json(tmp_path, "fl.json",
                                                [[0, 1.5], [0, 0]])])[0] == 2
        assert run(capsys, ["twist", write_json(tmp_path, "bo.json",
                                                [[0, True], [0, 0]])])[0] == 2
        assert run(capsys, ["twist", str(tmp_path / "absent.json")])[0] == 2
        assert run(capsys, ["twist", write_json(tmp_path, "em.json", [])])[0] == 2
        # unreadable input, or a result too large to print, is an input
        # error on one line of stderr, and nothing reaches stdout
        u16 = tmp_path / "u16.json"
        u16.write_text("[1, 0]", encoding="utf-16")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        sevens = write_json(tmp_path, "big.json", [int("7" * 3000)] * 2)
        cases = [["equiv", str(u16), sevens], ["equiv", str(deep), sevens],
                 ["twist", str(deep)]]
        if hasattr(sys, "get_int_max_str_digits"):
            # the int-digit limit (4300 digits by default) meets a number
            # read from the input, or the Pontrjagin invariants of 3000-digit entries
            long = tmp_path / "long.json"
            long.write_text("[" + "7" * 4301 + ", 0]", encoding="utf-8")
            cases += [["equiv", str(long), sevens], ["equiv", sevens, sevens]]
        for argv in cases:
            for fmt in ("json", "csv", "text"):
                rc, out, err = run(capsys, argv + ["--format", fmt])
                assert (rc, out, err.count("\n")) == (2, "", 1), (argv, fmt)
                assert err.endswith("\n")

    def test_bad_flag_values_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 1], [0, 0]])
        with pytest.raises(SystemExit) as exc:
            main(["twist", path, "--ring", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        # classify's box may be a single point, but not have a negative radius;
        # the radius is checked before the height
        assert run(capsys, ["classify", "--n", "2", "--bound", "0"])[0] == 0
        assert run(capsys, ["classify", "--n", "0"])[0] == 2
        for argv in (["classify", "--n", "2", "--bound", "-1"],
                     ["classify", "--n", "0", "--bound", "-1"]):
            assert run(capsys, argv) == (2, "", "--bound must be nonnegative\n")

    def test_text_format(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 2], [0, 0]])
        rc, out, _ = run(capsys, ["twist", path, "--format", "text"])
        assert rc == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert any(line.startswith("twist: 0") for line in lines)

    # sha256 of stdout; csv without a table is the key/value path
    PINNED = {
        ("z", "json"): "7d388defe99607fd2fb832aa00deaa78a6f19ef58e5a2e541f284e1a01266c7b",
        ("z", "csv"): "b2db815862569340056b9066f431daf095a592765bf247f610dafb487c084601",
        ("z", "text"): "20cbc5f36549a46d907bf7b646f3dd51a23dd3a76b97fb4ee0d81e1d8b113e0f",
        ("q", "json"): "ccab13e0ecb2e879168fb395316287d24cd49acab728712158514ae74040f49e",
        ("q", "csv"): "d91623d899bcceb396e7f780de2a89deb2635226967cda443aadac8c6a2a1ad9",
        ("q", "text"): "aec5f3b117ee352afaff466e87eba2db443b19f4a6310d8629872b11a77aa227",
        ("z2local", "json"): "7d388defe99607fd2fb832aa00deaa78a6f19ef58e5a2e541f284e1a01266c7b",
        ("z2local", "csv"): "b2db815862569340056b9066f431daf095a592765bf247f610dafb487c084601",
        ("z2local", "text"): "20cbc5f36549a46d907bf7b646f3dd51a23dd3a76b97fb4ee0d81e1d8b113e0f",
    }

    def test_pinned_format_digests(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", [[0, 1, 1], [0, 0, -2], [0, 0, 0]])
        for (ring, fmt), want in self.PINNED.items():
            rc, out, err = run(capsys, ["twist", path, "--ring", ring, "--format", fmt])
            assert (rc, err, sha256(out)) == (0, "", want), (ring, fmt)
        # a tower above the search height is certified by the line bound
        path = write_json(tmp_path, "z.json", [[0] * 5 for _ in range(5)])
        rc, out, err = run(capsys, ["twist", path, "--format", "csv"])
        assert (rc, err) == (0, "")
        assert 'oracle,"{""certified"":true,""lower_bound"":0,""value"":0}"\n' in out
        assert sha256(out) == (
            "337b1e512d123f4201ced4b9fce1a24bd42b55c931ef93530592c264f1c25352")


class TestEquiv:
    def test_equivalent_pair(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [1, 0])
        b = write_json(tmp_path, "b.json", [3, 0])
        rc, out, _ = run(capsys, ["equiv", a, b])
        assert rc == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["witness"]["sigma"] == [0, 1]
        assert payload["pontrjagin"] == [[0], [0]]

    def test_inequivalent_pair(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [1, 1])
        b = write_json(tmp_path, "b.json", [1, 3])
        rc, out, _ = run(capsys, ["equiv", a, b])
        assert rc == 1
        payload = json.loads(out)
        assert payload["equivalent"] is False and payload["witness"] is None

    def test_length_mismatch(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [1, 0])
        b = write_json(tmp_path, "b.json", [1, 0, 0])
        assert run(capsys, ["equiv", a, b])[0] == 2

    def test_non_integer_vector(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [1, "x"])
        b = write_json(tmp_path, "b.json", [1, 0])
        assert run(capsys, ["equiv", a, b])[0] == 2
        a = write_json(tmp_path, "o.json", {"alpha": [1, 0]})
        assert run(capsys, ["equiv", a, b])[0] == 2

    def test_pinned_format_digests(self, tmp_path, capsys):
        pinned = [
            ([1, 0], [3, 0], "csv", 0,
             "f5a8926e4b8b3b51276e26fbb46e600e446e02251e0c2855b61af73a5c6fc455"),
            ([1, 0], [3, 0], "text", 0,
             "bd460f27156bd85ce200b3274864a4ee4b0b42f9d3ba6b33e3ca994306652d1b"),
            ([1, 1], [1, 3], "csv", 1,
             "4e609f34d76775a01faf2ad7dae25086529d147fefc3d2d9f844c61dff652977"),
            ([1, 1], [1, 3], "text", 1,
             "70f4622ec82a83862e7a0c6f3617f0652843e37d8125bbfaca798e1e1b73609e"),
        ]
        for alpha, beta, fmt, code, want in pinned:
            a = write_json(tmp_path, "a.json", alpha)
            b = write_json(tmp_path, "b.json", beta)
            rc, out, err = run(capsys, ["equiv", a, b, "--format", fmt])
            assert (rc, err, sha256(out)) == (code, "", want), (alpha, beta, fmt)


class TestClassify:
    def test_golden_two_stage_table(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--n", "2", "--bound", "4"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["bound"] == 4
        assert payload["vector_count"] == 9 and payload["class_count"] == 2
        sizes = [c["size"] for c in payload["classes"]]
        assert sizes == [5, 4]
        assert payload["classes"][0]["members"] == [[-4], [-2], [0], [2], [4]]
        assert payload["classes"][1]["members"] == [[-3], [-1], [1], [3]]

    def test_csv_table(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--n", "2", "--bound", "4",
                                  "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "class_id,representative,size,pontrjagin"
        assert lines[1] == "0,[0],5,[]"
        assert lines[2] == "1,[-1],4,[]"

    def test_enumeration_guard(self, capsys):
        # 5^6999 has more digits than int->str allows, so the guard must
        # decide without forming the full count
        for n in ("9", "7000"):
            rc, out, err = run(capsys, ["classify", "--n", n, "--bound", "2"])
            assert rc == 3
            assert out == ""
            assert str(CLASSIFY_GUARD) in err

    def test_pontrjagin_guard(self, capsys):
        # bound 0 enumerates one vector at any n, but its Pontrjagin
        # multiset has C(n - 1, 2) entries
        for n in ("634", "100000"):
            rc, out, err = run(capsys, ["classify", "--n", n, "--bound", "0"])
            assert rc == 3
            assert out == ""
            assert str(CLASSIFY_GUARD) in err
        rc, out, _ = run(capsys, ["classify", "--n", "633", "--bound", "0"])
        assert rc == 0
        assert len(json.loads(out)["classes"][0]["pontrjagin"]) == 632 * 631 // 2

    def test_pinned_height_six_digest(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--n", "6", "--bound", "2"])
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4923cf947c5e1fd55199c0df95591f7cee2c147b81d04e3f92cb302781d70b46")

    def test_certified_is_a_twist_only_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "2", "--bound", "1", "--certified"])
        assert exc.value.code == 2

    def test_repeated_runs_are_identical(self, capsys):
        first = run(capsys, ["classify", "--n", "3", "--bound", "1"])
        second = run(capsys, ["classify", "--n", "3", "--bound", "1"])
        assert first == second


class TestRecognize:
    def test_identity_is_bott(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json",
                          [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 0
        payload = json.loads(out)
        assert payload["characteristic"] is True and payload["bott"] is True
        assert payload["sigma"] == [0, 1, 2]
        assert payload["bott_matrix"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_cycle_is_not_bott(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json", [[1, 1], [2, 1]])
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 1
        payload = json.loads(out)
        assert payload["characteristic"] is True and payload["bott"] is False
        assert payload["sigma"] is None and payload["bott_matrix"] is None

    def test_invalid_characteristic(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json", [[1, 1], [1, 1]])
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 1
        assert json.loads(out)["characteristic"] is False
        path = write_json(tmp_path, "z.json", [[0, 1], [0, 1]])
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 1
        assert json.loads(out)["characteristic"] is False

    def test_minor_scan_guard(self, tmp_path, capsys):
        # only a cyclic support is scanned, so only it meets the guard
        path = write_json(tmp_path, "c.json", cycle_matrix([-2] + [1] * 12))
        rc, out, err = run(capsys, ["recognize", path])
        assert rc == 3 and err and out == ""
        big = [[1 if i == j else 0 for j in range(13)] for i in range(13)]
        path = write_json(tmp_path, "c.json", big)
        rc, out, err = run(capsys, ["recognize", path])
        assert rc == 0 and err == ""
        assert json.loads(out)["sigma"] == list(range(13))

    def test_one_minor_scan_per_tower(self, tmp_path, capsys, monkeypatch):
        # one normalization and one stage order decide; the stage order of
        # an acyclic support proves every principal minor +1, so a tower
        # runs no minor scan and its Bott matrix reuses the normalization,
        # and a cyclic input scans its 2^5 - 5 - 1 minors of size >= 2 once
        calls = {"normalize": 0, "order": 0, "det": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(quasitoric, "normalize_characteristic",
                            counting("normalize", quasitoric.normalize_characteristic))
        monkeypatch.setattr(quasitoric, "_stage_order", counting("order", quasitoric._stage_order))
        monkeypatch.setattr(quasitoric, "det_int", counting("det", det_int))
        path = write_json(tmp_path, "c.json", HEIGHT_5_TOWER)
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 0 and json.loads(out)["bott"] is True
        assert calls == {"normalize": 1, "order": 1, "det": 0}
        calls.update(normalize=0, order=0, det=0)
        path = write_json(tmp_path, "c.json", cycle_matrix([-2, 1, 1, 1, 1]))
        rc, out, _ = run(capsys, ["recognize", path])
        assert rc == 1 and json.loads(out)["characteristic"] is True
        assert calls == {"normalize": 1, "order": 1, "det": 26}

    def test_pinned_format_digests(self, tmp_path, capsys):
        pinned = [
            (HEIGHT_5_TOWER, "csv", 0,
             "dba59775217e82a5166a846b7c01803b11fb64b0f3b0b4e52e54b120f3bfa674"),
            (HEIGHT_5_TOWER, "text", 0,
             "94db83c706f9c9d2d87e8a4628b7f9a5aafebe39a322316c1e5c85e805209a3a"),
            ([[1, 1], [2, 1]], "csv", 1,
             "aebfb3b9d653b556b849cd788a15bd724c1a83e3f2095f9c61473eadbbf9753c"),
            ([[1, 1], [2, 1]], "text", 1,
             "f25c4b1b3c7dabb11285ea184f789e96b0a8d393cb31c138b128b45c61415326"),
        ]
        for rows, fmt, code, want in pinned:
            path = write_json(tmp_path, "c.json", rows)
            rc, out, err = run(capsys, ["recognize", path, "--format", fmt])
            assert (rc, err, sha256(out)) == (code, "", want), (rows, fmt)


class TestSelftest:
    # sha256 of the full selftest stdout: check order, seeds and detail
    # strings; each test owns distinct command lines, so none is run twice
    PINNED = {
        (0, "json"): "e1b18b39e625287a7e13a7ef0e4e2a29ea7ec834de9e1a0da480df28cb33917d",
        (0, "text"): "311b6f6b834c6fa9fd18a22ef3a8bd02184ba5831f64622364ff5302c7d38664",
        (0, "csv"): "8c06eb637cec62f5aff3ccb5123468c4405c8e50be0eafd7f3b7bbd485c0ed67",
        (7, "json"): "3c44579327f6348653926f59c5ba76edb752822c865856f014bc3d2668431fbf",
        (7, "text"): "748575f831b027636af90317555cd8c5b51e08614efa2e082adcb4af3f54f35f",
        (7, "csv"): "3b8cf5f2cc5343863c2cb9b914e907eda06570c854010b4c0d74fd25aa32fd3d",
    }

    def run_pinned(self, capsys, seed, fmt, argv=None):
        if argv is None:
            argv = ["selftest", "--seed", str(seed), "--format", fmt]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[seed, fmt]
        if fmt == "json":
            payload = json.loads(out)
            assert payload["ok"] is True and payload["seed"] == seed
            assert payload["passed"] == payload["total"] == 21
        elif fmt == "text":
            assert out.count("PASS") == 21
            assert "21/21 checks passed" in out

    def test_all_checks_pass(self, capsys):
        # bare `selftest` covers the default seed and format
        self.run_pinned(capsys, 0, "json", ["selftest"])

    def test_text_format(self, capsys):
        self.run_pinned(capsys, 0, "text")

    def test_seed_changes_are_still_green(self, capsys):
        self.run_pinned(capsys, 7, "json")

    def test_pinned_stdout_digests(self, capsys):
        for seed, fmt in [(0, "csv"), (7, "text"), (7, "csv")]:
            self.run_pinned(capsys, seed, fmt)


class TestInputChecks:
    def test_each_input_int_checked_once(self, tmp_path, capsys, monkeypatch):
        # the loaders check only the JSON shape, and the library routine
        # that reads the input checks each of its ints once: OneTwistClass
        # per equiv vector, normalize_characteristic per recognize row, the
        # BottMatrix constructor per twist row
        seen = []
        for module in (core, onetwist, quasitoric):
            def counting(values, where, real=module.integer_entries, name=module.__name__):
                seen.append((name.rsplit(".", 1)[1], where))
                return real(values, where)
            monkeypatch.setattr(module, "integer_entries", counting)
        a = write_json(tmp_path, "a.json", [1, 2, 3])
        b = write_json(tmp_path, "b.json", [3, -2, 1])
        assert run(capsys, ["equiv", a, b])[0] == 0
        assert seen == [("onetwist", "twist vector")] * 2
        seen.clear()
        path = write_json(tmp_path, "c.json", HEIGHT_5_TOWER)
        assert run(capsys, ["recognize", path])[0] == 0
        assert seen == [("quasitoric", f"row {i}") for i in range(5)]
        seen.clear()
        path = write_json(tmp_path, "m.json", [[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        assert run(capsys, ["twist", path])[0] == 0
        assert seen == [("core", f"row {i}") for i in range(3)]

    @pytest.mark.parametrize("command, data, message", [
        ("twist", [[0, 1.5], [0, 0]], " row 0: entry 1.5 is not an integer"),
        ("twist", [[0, 1], 3], " row 1: expected a JSON array of integers"),
        ("recognize", [[1, 0], [True, 1]], " row 1: entry True is not an integer"),
        ("equiv", [1, "x"], ": twist vector: entry 'x' is not an integer"),
    ])
    def test_non_integer_input_names_the_file(self, tmp_path, capsys, command, data, message):
        path = write_json(tmp_path, "bad.json", data)
        other = write_json(tmp_path, "ok.json", [1, 0])
        argv = [command, path, other] if command == "equiv" else [command, path]
        # the matrix messages read as before the loaders stopped checking ints
        assert run(capsys, argv) == (2, "", f"{path}{message}\n")


class TestFlags:
    # a flag given to a subcommand that does not read it is a usage error:
    # --ring belongs to twist, --bound to classify, --seed to
    # selftest (--certified is checked in TestClassify)
    @pytest.mark.parametrize("argv", [
        ["classify", "--n", "2", "--ring", "q"],
        ["classify", "--n", "2", "--seed", "1"],
        ["equiv", "a.json", "b.json", "--ring", "q"],
        ["equiv", "a.json", "b.json", "--bound", "1"],
        ["equiv", "a.json", "b.json", "--seed", "1"],
        ["recognize", "c.json", "--ring", "q"],
        ["recognize", "c.json", "--bound", "1"],
        ["recognize", "c.json", "--seed", "1"],
        ["selftest", "--ring", "q"],
        ["selftest", "--bound", "1"],
        ["twist", "m.json", "--seed", "1"],
        ["twist", "m.json", "--bound", "1"],
    ], ids=lambda argv: f"{argv[0]}{[a for a in argv if a.startswith('--')][-1]}")
    def test_flags_outside_their_subcommands_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    # A, B name one-twist vector files, M a tower and C a characteristic matrix
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"],
        ["equiv"], ["equiv", "A"], ["equiv", "A", "B"], ["equiv", "A", "B", "A"],
        ["equiv", "A", "B", "-h"], ["equiv", "--", "A", "B"],
        ["equiv", "A", "B", "--format", "text"],
        ["classify", "--n", "x"], ["classify", "--n=3", "--bound=1"],
        ["classify", "--n", "2", "--b", "1"],
        ["--format", "json", "equiv", "A", "B"],
        ["twist", "M", "--cert"], ["recognize", "C", "extra"],
        # plain lines, read without argparse
        ["equiv", "A", "--format", "csv", "B"],
        ["classify", "--bound", "1", "--n", "3", "--format", "text"],
        ["classify", "--n", "03", "--bound", "0", "--n", "2"],
        ["twist", "--certified", "M", "--ring", "q", "--certified"],
        ["recognize", "--format", "text", "C"], ["selftest", "--seed", "1", "--format", "csv"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_direct_dispatch_matches_the_full_parser(self, tmp_path, capsys, argv):
        # a leading subcommand is parsed by its own parser alone; the exit
        # code and every byte written must be those of the full parser
        files = {"A": [1, 1], "B": [1, 3], "M": [[0, 1, 1], [0, 0, -2], [0, 0, 0]],
                 "C": HEIGHT_5_TOWER}
        argv = [write_json(tmp_path, f"{a}.json", files[a]) if a in files else a
                for a in argv]

        def outcome(call):
            try:
                code = call()
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        direct = outcome(lambda: main(argv))
        full = outcome(lambda: cli._run(cli._PARSER.parse_args(argv)))
        assert direct == full

    @pytest.mark.parametrize("argv, plain", [
        (["equiv", "A", "B"], True),
        (["twist", "M", "--certified", "--ring", "z2local"], True),
        (["classify", "--n", "3", "--n", "4"], True),
        (["classify", "--n", "9" * 99], True),
        (["classify", "--n", "9" * 100], False),
        (["classify", "--n", "-3"], False),
        (["classify", "--n", "\u0663"], False),
        (["classify", "--n", " 3"], False),
        (["classify", "--n", "3_0"], False),
        (["classify", "--n=3"], False),
        (["classify", "--bound", "1"], False),
        (["classify", "--n", "3", "--b", "1"], False),
        (["twist", "M", "--ring", "x"], False),
        (["twist", "M", "--format"], False),
        (["twist", "M", "--certified", "1"], False),
        (["twist", "M", "-h"], False),
        (["equiv", "A", "-"], False),
        (["equiv", "--", "A", "B"], False),
        (["equiv", "A", "B", "C"], False),
        (["recognize", "C", "--seed", "1"], False),
    ])
    def test_plain_lines_and_fall_throughs(self, argv, plain):
        # a plain line gives argparse's Namespace; any other returns None
        # and is left to argparse
        ns = cli._plain_args(argv)
        assert (ns is not None) == plain
        if plain:
            want, extras = cli._SUBPARSERS[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
            assert (ns, extras) == (want, [])

    # every option of every subcommand, abbreviations, "=" forms, numbers
    # argparse reads but the plain path leaves to it, bad choices, help
    # and separators
    TOKENS = (["--format", "--ring", "--certified", "--bound", "--n", "--seed", "-h",
               "--help", "--form", "--f", "--r", "--cert", "--b", "--bo", "--se", "--s",
               "-n", "--format=csv", "--n=3", "--bound=1", "--ring=q", "--seed=2",
               "--certified=1", "json", "csv", "text", "xml", "JSON", "z", "q", "z2local",
               "Z", "0", "1", "2", "3", "03", "007", "-3", "-1", "\u0663", " 3", "3 ", "",
               "-", "--", "3_0", "+3", "1" * 100, "9" * 99, "A", "B", "a.json", "twist",
               "x y", "-x.json"])

    def test_plain_parse_agrees_with_argparse(self):
        # differential check over a seeded corpus: whenever the plain path
        # accepts a line, argparse reads the same values, of the same types,
        # and leaves nothing over. Half the lines are drawn from TOKENS
        # alone, half are well-formed lines with up to two tokens inserted.
        rng = random.Random(2024)
        per_command = 25_000
        accepted = {}
        for name, sub in cli._SUBPARSERS.items():
            positionals, options, _, _ = cli._PLAIN[name]
            accepted[name] = 0
            for _ in range(per_command):
                if rng.random() < 0.5:
                    tokens = rng.choices(self.TOKENS, k=rng.randint(0, 6))
                else:
                    tokens = [rng.choice(("A", "B", "")) for _ in positionals]
                    for opt in rng.sample(sorted(options), rng.randint(0, len(options))):
                        at = rng.randint(0, len(tokens))
                        action = options[opt]
                        if action.nargs == 0:
                            tokens[at:at] = [opt]
                        else:
                            value = (rng.choice(action.choices) if action.choices
                                     else str(rng.randint(0, 12)))
                            tokens[at:at] = [opt, value]
                    for _ in range(rng.choice((0, 0, 1, 2))):
                        tokens.insert(rng.randint(0, len(tokens)), rng.choice(self.TOKENS))
                argv = [name] + tokens
                ns = cli._plain_args(argv)
                if ns is None:
                    continue
                accepted[name] += 1
                want, extras = sub.parse_known_args(tokens, argparse.Namespace(command=name))
                assert extras == [], argv
                assert (sorted((k, type(v), v) for k, v in vars(ns).items())
                        == sorted((k, type(v), v) for k, v in vars(want).items())), argv
        # each subcommand meets many plain lines and many it leaves to argparse
        assert all(per_command // 20 < count < per_command // 2 for count in accepted.values()), accepted

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # a good command line and then a usage error construct no parser
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, ["classify", "--n", "2", "--bound", "1"])[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "2", "--ring", "q"])
        assert exc.value.code == 2
        assert built == []
