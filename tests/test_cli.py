"""Command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import noncross
from noncross import decomp, exact, linsys, ncposet
from noncross.cli import main
from noncross.ncposet import ResourceGuardError
from noncross.rootsystem import SUPPORTED_AMBIENTS
from noncross.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_info(capsys):
    code, out, _ = run(capsys, "rootsys", "info", "D4")
    assert code == 0
    assert "coxeter_number: 6" in out
    assert "group_order: 192" in out


def test_rootsys_info_json(capsys):
    code, out, _ = run(capsys, "rootsys", "info", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["degrees"] == [2, 3]


def test_nc_enumerate(capsys):
    code, out, _ = run(capsys, "nc", "enumerate", "A3")
    assert code == 0
    assert "elements: 14" in out


def test_nc_enumerate_cache_dir(capsys, monkeypatch, tmp_path):
    # the flag and the variable are accepted and ignored: nothing is
    # written and the output is the plain one
    plain = run(capsys, "nc", "enumerate", "A3")
    assert run(capsys, "nc", "enumerate", "A3",
               "--cache-dir", str(tmp_path)) == plain
    monkeypatch.setenv("NONCROSS_CACHE_DIR", str(tmp_path))
    assert run(capsys, "nc", "enumerate", "A3") == plain
    assert plain[0] == 0
    assert os.listdir(tmp_path) == []


def _unusable_cache_dir(tmp_path, case):
    """A cache directory that is a regular file, lies under one, or holds
    a directory where the cache file of A3 would go."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    if case == "file":
        return blocker
    if case == "under-file":
        return blocker / "cache"
    (tmp_path / "nc_A3.jsonl").mkdir()
    return tmp_path


@pytest.mark.parametrize("case", ["file", "under-file", "entry-is-dir"])
def test_nc_enumerate_unusable_cache_dir_is_skipped(capsys, tmp_path, case):
    _, plain, _ = run(capsys, "nc", "enumerate", "A3")
    cache_dir = _unusable_cache_dir(tmp_path, case)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, "nc", "enumerate", "A3",
                         "--cache-dir", str(cache_dir))
    assert (code, out, err) == (0, plain, "")
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_decomp_count(capsys):
    code, out, _ = run(capsys, "decomp", "count", "A3", "A1,A1,A1")
    assert code == 0
    assert out.strip() == "16"


@pytest.mark.parametrize("key", ["A1,,A1", "A1,", ",A1", " ", ""])
def test_decomp_count_empty_factor_exits_2(capsys, key):
    # a stray comma used to drop the factor silently (D4 A1,,A1 gave 63),
    # and a blank argument read as the empty tuple
    with pytest.raises(SystemExit) as exc:
        main(["decomp", "count", "D4", key])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    token = " " if key == " " else ""
    assert captured.err == ("error: bad type label %r: empty factor in %r\n"
                            % (token, key))


def test_huge_label_power_exits_2_with_one_line(capsys):
    # the label used to be built before any check: a MemoryError
    # traceback and exit 1
    with pytest.raises(SystemExit) as exc:
        main(["decomp", "count", "E8", "A1^99999999999"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == ("error: bad type label 'A1^99999999999': "
                            "rank 99999999999 exceeds 10000\n")


@pytest.mark.parametrize("argv", [["chi", ""], ["chi", " "], ["zeta", ""],
                                  ["zeta", " "]])
def test_blank_label_exits_2(capsys, argv):
    # a blank label used to read as the empty type and print 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == ("error: bad type label %r: blank type label; "
                            "write 0 for the empty type\n" % argv[1])


@pytest.mark.parametrize("key, value", [("0", 1), ("-", 1), ("A1,0,A1", 63),
                                        ("A1,A1", 63)])
def test_decomp_count_empty_type_and_empty_tuple(capsys, key, value):
    code, out, err = run(capsys, "decomp", "count", "D4", key)
    assert (code, out, err) == (0, "%d\n" % value, "")


@pytest.mark.parametrize("key, value", [("A1", 56), ("D8", 1)])
def test_decomp_count_D8(capsys, key, value):
    # D8 has no published table; its census table is the production route
    code, out, _ = run(capsys, "decomp", "count", "D8", key)
    assert code == 0
    assert out == "%d\n" % value


@pytest.mark.parametrize("argv", [("decomp", "table", "D8"),
                                  ("mtriangle", "D8"),
                                  ("ftriangle", "D8", "--m", "2")])
def test_D8_commands_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_resource_guard_exits_3_with_one_line(capsys, monkeypatch):
    def refused(name):
        raise ResourceGuardError("table for %s refused" % name)
    monkeypatch.setattr(decomp, "full_table", refused)
    code, out, err = run(capsys, "decomp", "count", "E6", "A3,A3")
    assert (code, out) == (3, "")
    assert err == "resource guard: table for E6 refused\n"


def test_decomp_table_full_rank_only(capsys):
    code, out, _ = run(capsys, "decomp", "table", "A2", "--full-rank-only",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["A2"] == 1
    assert payload["entries"]["A1,A1"] == 3


def test_chi(capsys):
    code, out, _ = run(capsys, "chi", "A2")
    assert code == 0
    assert out.strip() == "y^2 - 3*y + 2"


def test_zeta_value(capsys):
    code, out, _ = run(capsys, "zeta", "A2")
    assert code == 0
    # zeta(2) must equal the element count 5
    assert "z" in out


def test_mtriangle_symbolic(capsys):
    code, out, _ = run(capsys, "mtriangle", "A1", "--symbolic")
    assert code == 0
    assert "m" in out


def test_ftriangle(capsys):
    code, out, _ = run(capsys, "ftriangle", "A2", "--m", "1")
    assert code == 0
    assert "none" in out


@pytest.mark.parametrize("m", ["0", "-1"])
def test_ftriangle_refuses_m_below_1(capsys, m):
    # F=M is stated for m >= 1: bad input (exit 2), not a failed check
    code, out, err = run(capsys, "ftriangle", "A3", "--m", m)
    assert code == 2
    assert out == ""
    assert err == "error: ftriangle needs --m >= 1, got %s\n" % m


def test_linsys_replay_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "linsys", "replay", "D4",
                       "--report", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["dimension"] == 0


def test_linsys_replay_unwritable_report_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "report.json"
    code, out, err = run(capsys, "linsys", "replay", "D4",
                         "--report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report %s: " % path)
    assert err.count("\n") == 1


def test_linsys_replay_rows_by_family_in_report_only(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, plain, _ = run(capsys, "linsys", "replay", "E6")
    code, out, _ = run(capsys, "linsys", "replay", "E6", "--report", str(path))
    assert code == 0
    assert out == plain and "rows_by_family" not in out
    payload = json.loads(path.read_text())
    counts = payload["rows_by_family"]
    assert counts["oracle-pin"] == len(payload["pins"]) == 1
    assert sum(counts.values()) == payload["equations"] + 1


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "zeta")
    assert code == 0
    assert "failed: 0" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert err == "error: unknown suite 'nope' (choose from %s)\n" % (
        ", ".join(SUITES))


def test_bad_label_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "chi", "Q7")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, ambient", [("zeta A9", "A9"),
                                           ("chi A1*D9", "D9")])
def test_unsupported_component_exits_2(capsys, argv, ambient):
    # a valid label with a component outside the degree table
    assert run(capsys, *argv.split()) == (
        2, "", "error: unsupported ambient type %r (supported: %s)\n"
        % (ambient, ", ".join(SUPPORTED_AMBIENTS)))


@pytest.mark.parametrize("command", ["table", "count"])
def test_decomp_of_reducible_ambient_exits_2(capsys, command):
    # A1*D4 is not a supported ambient: refused before any table is built
    argv = ["decomp", command, "A1*D4"] + (["A1"] if command == "count" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unsupported ambient 'A1*D4'" in captured.err


def test_internal_key_error_is_not_bad_input(capsys, monkeypatch):
    # a lookup bug inside a command is not reported as bad input (exit 2):
    # main lets it through, and the interpreter exits 1 with a traceback
    def broken(name):
        raise KeyError(name)
    monkeypatch.setattr(decomp, "full_table", broken)
    with pytest.raises(KeyError):
        run(capsys, "decomp", "count", "A3", "A1")


def test_failed_replay_exits_1_with_one_line(capsys, monkeypatch):
    # E6 keeps one free variable; expecting none makes elimination fail
    monkeypatch.setitem(linsys.EXPECTED_DIMENSION, "E6", 0)
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    code, out, err = run(capsys, "linsys", "replay", "E6")
    assert code == 1
    assert out == ""
    assert err == ("error: linsys replay E6: elimination: solution space "
                   "has dimension 1, expected 0; free: N(A3,A3)\n")


def test_inconsistent_replay_exits_1_naming_the_row(capsys, monkeypatch):
    def inconsistent(system):
        raise exact.InconsistentSystemError("zeta:m^1 z^2")
    monkeypatch.setattr(linsys, "echelon", inconsistent)
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    code, out, err = run(capsys, "linsys", "replay", "E6")
    assert (code, out) == (1, "")
    assert err == ("error: linsys replay E6: inconsistent linear system "
                   "(row: zeta:m^1 z^2)\n")


def test_linsys_replay_internal_check_exits_1_with_one_line(capsys,
                                                            monkeypatch):
    def broken(name):
        raise AssertionError("orbit leaves the level")
    monkeypatch.setattr(linsys, "replay", broken)
    code, out, err = run(capsys, "linsys", "replay", "E6")
    assert (code, out) == (1, "")
    assert err == "error: linsys replay E6: orbit leaves the level\n"


def test_linsys_replay_D8(capsys):
    code, out, _ = run(capsys, "linsys", "replay", "D8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    assert payload["pins"] == {"A3,D5": 7, "A2^2,D4": 7, "A4,A4": 14,
                               "A4,D4": 7, "D4,D4": 0}


def test_verify_failed_replay_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setitem(linsys.EXPECTED_DIMENSION, "E6", 0)
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    code, out, err = run(capsys, "verify", "e6")
    assert (code, out) == (1, "")
    assert err == ("error: verify e6: elimination: solution space "
                   "has dimension 1, expected 0; free: N(A3,A3)\n")


def test_verify_inconsistent_replay_exits_1_naming_the_row(capsys,
                                                           monkeypatch):
    def inconsistent(system):
        raise exact.InconsistentSystemError("zeta:m^1 z^2")
    monkeypatch.setattr(linsys, "echelon", inconsistent)
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    code, out, err = run(capsys, "verify", "e6")
    assert (code, out) == (1, "")
    assert err == ("error: verify e6: inconsistent linear system "
                   "(row: zeta:m^1 z^2)\n")


def test_verify_internal_check_exits_1_with_one_line(capsys, monkeypatch):
    def broken(rs):
        raise AssertionError("orbit size 18 not in {h, h/2}")
    monkeypatch.setattr(ncposet, "reflection_orbits", broken)
    code, out, err = run(capsys, "verify", "orbits")
    assert (code, out) == (1, "")
    assert err == "error: verify orbits: orbit size 18 not in {h, h/2}\n"


NUMPY_GUARD = """
import sys
from noncross import cli
assert cli.main(["nc", "enumerate", "D4"]) == 0
assert cli.main(["rootsys", "info", "E8"]) == 0
print("numpy imported:", "numpy" in sys.modules)
"""


def test_cli_does_not_import_numpy():
    # a fresh interpreter: this test process may have imported numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(noncross.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", NUMPY_GUARD], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.endswith("numpy imported: False\n")


def test_bad_threads_exit_code(capsys):
    # there is no --threads flag; argparse rejects it with exit 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "chi", "A2", "--threads", "1")
    assert exc.value.code == 2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "rootsys", "info", "A2", "--format", "csv")
    assert code == 0
    assert "rank,2" in out
