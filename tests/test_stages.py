"""The stage harness ``benchmarks/stages.py`` runs and prints the keys its
docstring documents.  Nothing here checks a timing."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "benchmarks" / "stages.py"
DOC = ast.get_docstring(ast.parse(HARNESS.read_text()))


def documented_keys(group=None):
    """The keys at the head of each bullet of the docstring, of one
    group's section or of all, in order."""
    text = DOC
    if group is not None:
        text = re.search(r"^The ``%s`` group(.*?)(?=^The ``|\Z)" % group,
                         DOC, re.M | re.S).group(1)
    heads = re.findall(r"^\* ((?:``[^`]+``[,\s]*(?:and\s+)?)+)", text, re.M)
    return [key for head in heads for key in re.findall(r"``([^`]+)``", head)]


def stage_keys(node):
    """The keys of a group's report above the values of each tree."""
    if "this" in node:
        return set()
    return set(node).union(*(stage_keys(value) for value in node.values()))


def test_every_key_is_documented_once():
    keys = documented_keys()
    assert len(keys) == len(set(keys))
    assert {"at:E8", "cold_verify_e8_s", "rank", "total_s",
            "peak_rss_mb"} <= set(keys)


def run_harness(*groups):
    """The report of a fresh harness run of ``groups``, one repeat."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(HARNESS), *groups,
                           "--repeats", "1"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_algebra_and_families_print_their_documented_keys():
    report = run_harness("algebra", "families")
    assert list(report["trees"]) == ["this"]
    for group in ("algebra", "families"):
        assert stage_keys(report[group]) == set(documented_keys(group))
    assert all(isinstance(value["this"], float)
               for value in report["algebra"].values())
    assert set(report["families"]["warm"]["total_s"]) == {"this"}


def test_linsys_prints_its_documented_keys_per_ambient():
    report = run_harness("linsys")["linsys"]
    assert list(report) == ["E7", "E8", "D8"]
    documented = set(documented_keys("linsys"))
    for name, stages in report.items():
        # each ambient times its own published relations only
        assert set(stages) == documented - {
            "relations_%s_s" % other for other in report if other != name}
        assert all(isinstance(value["this"], (int, float))
                   for value in stages.values())


def tree_values(node):
    """The value of the tree ``this`` at every key of a group's report."""
    if "this" in node:
        return [node["this"]]
    return [value for child in node.values() for value in tree_values(child)]


def test_nc_prints_its_documented_keys_and_no_null():
    # a stage whose name a tree lacks reads null; none may in this tree
    report = run_harness("nc")["nc"]
    ambients = ["D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
    assert stage_keys(report) == set(documented_keys("nc")) | set(ambients)
    for per_ambient in ("descent_table_s", "coxeter_permutation_s",
                        "root_tables_s"):
        assert list(report[per_ambient]) == ambients
    assert None not in tree_values(report)


def test_startup_prints_its_documented_keys_and_no_null():
    report = run_harness("startup")["startup"]
    commands = list(report["light_s"])
    assert "zeta D4 --m 1" in commands
    documented = set(documented_keys("startup"))
    assert stage_keys(report) == documented | set(commands)
    assert None not in tree_values(report)
    loads = report["loads"]["this"]
    assert list(loads) == commands
    assert set(report["peak_rss_mb"]["this"]) == {
        "import", "decomp count E7 A4,A3", "verify e8"}
    # the closed forms compile neither the walk nor the linear solver
    assert not set(loads["zeta D4 --m 1"]["noncross"]) & {
        "ncposet", "weyl", "exact"}
    nodes = report["compiled_nodes"]["this"]
    assert list(nodes) == ["import"] + commands
    # a command compiles the CLI and more; the walk more than a lookup
    assert all(nodes["import"] < nodes[command] for command in commands)
    assert nodes["decomp count A5 A2,A3"] < nodes["nc enumerate D5"]


def test_census_prints_its_documented_keys_and_one_walk_per_command():
    report = run_harness("census")["census"]
    assert stage_keys(report) == set(documented_keys("census"))
    assert None not in tree_values(report)
    # a process walks only its highest ambient and builds one root system
    counts = {key: value["this"] for key, value in report.items()
              if key.startswith(("walks_", "root_systems_"))}
    assert len(counts) == 12
    assert set(counts.values()) == {1}
