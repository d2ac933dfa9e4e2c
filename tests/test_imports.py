"""Import footprint of the CLI and the lazy package namespace, and the
per-layer counts that perfbench's tracer records on a cold ``verify e8``.

Each footprint check runs one fresh interpreter with ``-S`` (no site
hooks, so nothing but the interpreter itself is loaded beforehand) and
records the modules that appear between the start of the script and the
end of the call.  Nothing here is timed.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import noncross

SRC = os.path.dirname(os.path.dirname(os.path.abspath(noncross.__file__)))

# the names ``noncross`` exported when it imported every submodule
# eagerly, by defining submodule, less ``classify_parabolic_type`` (now a
# test oracle), with ``reflection_orbits`` moved to ``ncposet``, and with
# the closed forms, the direct oracles and the polynomials split off
# ``ncposet`` and ``exact``, and with ``SUPPORTED_AMBIENTS`` moved to
# ``typelabel``; the submodules are exported too
EXPORTS = {
    "closedform": ("zeta_closed",),
    "decomp": ("DecompositionTable", "all_labels_of_rank",
               "all_tuples_of_rank", "canonical_tuple", "census_table",
               "count_bruteforce", "count_product", "count_typeA",
               "full_table", "orderings", "special_values", "tuple_rank"),
    "direct": ("build_ncm", "characteristic_direct", "mobius",
               "mobius_from_top", "zeta_direct"),
    "exact": ("Echelon", "InconsistentSystemError", "LinearSystem",
              "SolutionSpace", "echelon", "solve"),
    "linsys": ("EXPECTED_DIMENSION", "ReplayError", "ReplayReport",
               "generate_equations", "replay"),
    "ncposet": ("NcPoset", "characteristic_polynomial", "enumerate_nc",
                "ncm_cardinality", "read_cache", "reflection_orbits",
                "write_cache"),
    "polynomial": ("SparsePolynomial",),
    "refdata": ("CHI_STAR_COEFFS", "REFERENCE_TABLE_NAMES",
                "chi_star_reference", "golden_dual", "reference_table"),
    "rootsystem": ("RootSystem", "build_root_system"),
    "triangles": ("FTriangleCandidate", "MTriangle", "TransformFailure",
                  "assemble_dual", "dual_to_primal", "f_reciprocity_checks",
                  "fm_transform", "mtriangle_direct", "reciprocity_check",
                  "zeta_identity_check"),
    "typelabel": ("ResourceGuardError", "SUPPORTED_AMBIENTS", "TypeLabel",
                  "label"),
    "weyl": ("absolute_length", "bipartite_coxeter", "enumerate_group"),
}

HEAVY_STDLIB = {"dataclasses", "tempfile"}

# run by a fresh ``python -S``: the arguments are the command ("import"
# alone only imports the CLI, "triangles" only ``noncross.triangles``);
# the last line of stdout is the list of modules loaded since the script
# started, printed as a Python literal, so that the script loads no json
FOOTPRINT = """
import sys
before = set(sys.modules)
argv = sys.argv[1:]
if argv == ["import"]:
    import noncross.cli
elif argv == ["triangles"]:
    import noncross.triangles
elif argv == ["all"]:
    from noncross import *
    import noncross.cli, noncross.verify
else:
    from noncross import cli
    assert cli.main(argv) == 0
print(sorted(set(sys.modules) - before))
"""


def loaded_by(argv):
    argv = [argv] if isinstance(argv, str) else argv
    child = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, *argv],
                           env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True, text=True, check=True)
    return set(ast.literal_eval(child.stdout.splitlines()[-1]))


def package_modules(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("noncross.")}


def test_import_noncross_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, noncross; "
         "print(sorted(m for m in sys.modules if m.startswith('noncross')))"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "['noncross']"


def test_import_cli_loads_only_cli_and_typelabel():
    modules = loaded_by("import")
    assert package_modules(modules) == {"cli", "typelabel"}
    assert not modules & HEAVY_STDLIB


# layers a light command skips besides the replay layers
ALSO_SKIPPED = {("decomp", "count", "A6", "A3,A3"): {"ncposet", "weyl",
                                                     "exact"}}


@pytest.mark.parametrize("argv", [["rootsys", "info", "A1"],
                                  ["decomp", "count", "A6", "A3,A3"],
                                  ["nc", "enumerate", "D5"],
                                  ["zeta", "D4"]])
def test_light_commands_skip_the_replay_layers(argv):
    modules = loaded_by(argv)
    skipped = {"linsys", "refdata", "triangles", "verify"}
    skipped |= ALSO_SKIPPED.get(tuple(argv), set())
    assert not package_modules(modules) & skipped
    assert not modules & HEAVY_STDLIB


def test_nc_enumerate_with_cache_dir_loads_no_tempfile(tmp_path):
    # the directory is ignored: nothing is written, so nothing imports
    # tempfile for an atomic write
    modules = loaded_by(["nc", "enumerate", "D5", "--cache-dir",
                         str(tmp_path)])
    assert "tempfile" not in modules
    assert os.listdir(tmp_path) == []


# the modules of the closed forms, the direct oracles and the polynomials
NOT_WALKED = {"closedform", "direct", "polynomial"}


def test_nc_enumerate_loads_only_the_walk():
    # the walk checks its size against an integer Fuss-Catalan product,
    # and reads its tables off the Coxeter word: no matrix, no kernel
    modules = loaded_by(["nc", "enumerate", "D5", "--format", "json"])
    assert package_modules(modules) == {"cli", "typelabel", "rootsystem",
                                        "ncposet"}


@pytest.mark.parametrize("argv", [["mtriangle", "A3", "--dual"],
                                  ["ftriangle", "A3"]])
def test_type_a_triangles_load_no_walk_and_no_root_system(argv):
    # chi* of type A is a closed form beside the type-A counts in
    # ``decomp``, and the ambient is checked against the degree table
    modules = package_modules(loaded_by(argv))
    assert {"decomp", "triangles"} <= modules
    assert not modules & {"ncposet", "weyl", "exact", "rootsystem"}


@pytest.mark.parametrize("argv", [["zeta", "D4"],
                                  ["decomp", "count", "A5", "A2,A3"]])
def test_closed_forms_load_no_root_system(argv):
    # the degree table lives in ``typelabel``
    assert "rootsystem" not in package_modules(loaded_by(argv))


def test_verify_e8_loads_no_weyl():
    # only the ``length`` suite multiplies matrices
    assert "weyl" not in package_modules(loaded_by(["verify", "e8"]))


def test_decomp_count_of_a_census_loads_no_closed_form():
    modules = package_modules(loaded_by(["decomp", "count", "E7", "A4,A3"]))
    assert "ncposet" in modules and not modules & NOT_WALKED


@pytest.mark.parametrize("argv", [["zeta", "D4", "--m", "1"], "triangles"])
def test_closed_forms_load_no_walk(argv):
    # ``zeta`` and the triangles reach the walk only at call time, and
    # the polynomials compile no linear solver
    modules = package_modules(loaded_by(argv))
    assert {"closedform", "polynomial"} <= modules
    assert not modules & {"ncposet", "weyl", "exact"}


def test_rootsys_info_loads_only_the_root_system():
    modules = loaded_by(["rootsys", "info", "A1"])
    assert package_modules(modules) == {"cli", "typelabel", "rootsystem"}


@pytest.mark.parametrize("argv", [["decomp", "count", "A5", "A2,A3"],
                                  ["decomp", "table", "A6"]])
def test_type_a_lookups_load_no_fractions(argv):
    # the closed form and the special values divide once in integers
    assert not loaded_by(argv) & {"fractions", "decimal"}


@pytest.mark.parametrize("argv", [["nc", "enumerate", "D5"],
                                  ["decomp", "count", "E7", "A4,A3"],
                                  ["decomp", "count", "E8", "D4,A4"]])
def test_walk_and_census_lookups_load_no_fractions(argv):
    # ``exact`` imports Fraction only when ``solve`` reads a solution out
    assert not loaded_by(argv) & {"fractions", "decimal"}


@pytest.mark.parametrize("argv", [["decomp", "count", "E7", "A1,A1,A1,A1"],
                                  ["chi", "D4"], ["verify", "e8"]])
def test_text_commands_that_walk_load_no_json(argv):
    # ``json`` is imported where JSON is written or read: ``--format
    # json``, ``--report`` and the poset cache functions
    assert "json" not in loaded_by(argv)


def test_json_output_loads_json():
    assert "json" in loaded_by(["nc", "enumerate", "D5", "--format", "json"])


@pytest.mark.parametrize("argv", [["decomp", "table", "D4"],
                                  ["mtriangle", "A3", "--dual"],
                                  ["ftriangle", "D4", "--format", "json"]])
def test_table_commands_skip_linsys_refdata_verify(argv):
    modules = loaded_by(argv)
    assert not package_modules(modules) & {"linsys", "refdata", "verify"}
    assert not modules & HEAVY_STDLIB


def test_no_module_of_the_package_imports_dataclasses():
    modules = loaded_by("all")
    assert package_modules(modules) >= set(EXPORTS) | {"cli", "verify"}
    assert "dataclasses" not in modules


def test_all_keeps_every_exported_name():
    names = {name for names in EXPORTS.values() for name in names}
    assert set(noncross.__all__) == names | set(EXPORTS)
    assert len(noncross.__all__) == 73


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_resolve_to_the_defining_module(module):
    defining = importlib.import_module("noncross." + module)
    assert getattr(noncross, module) is defining
    for name in EXPORTS[module]:
        assert getattr(noncross, name) is getattr(defining, name), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from noncross import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(noncross.__all__)
    assert set(dir(noncross)) >= set(noncross.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        noncross.nonesuch
    assert not hasattr(noncross, "verify_everything")
    with pytest.raises(ImportError):
        exec("from noncross import nonesuch", {})


def test_traced_names_resolve():
    """perfbench/tracer.py wraps each ``TRACED`` (module, function) pair
    by ``getattr``, so every pair must name a package function."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, fn in tracer.TRACED:
        assert callable(getattr(importlib.import_module("noncross." + module),
                                fn)), (module, fn)


def test_traced_verify_e8_counts(tmp_path):
    """A cold ``verify e8`` traced by perfbench/cli_child.py records the
    same calls of each layer and the same counts as before: the walk
    eliminates nothing (its tables come from the Coxeter word, so no
    ``int_kernel`` span), the tables go through four brute-force counts,
    and the E8 system through one replay and one solve."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, os.path.join("perfbench", "cli_child.py"),
                    "trace", "0", str(out), "verify", "e8", "--format",
                    "json"], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    trace = json.loads(out.read_text())
    calls = {}
    for name, *_ in trace["spans"]:
        calls[name] = calls.get(name, 0) + 1
    assert {name: calls.get(name, 0) for name in (
        "weyl.int_kernel", "exact.solve", "decomp.count_bruteforce",
        "linsys.replay", "linsys.generate_equations")} == {
        "weyl.int_kernel": 0, "exact.solve": 1,
        "decomp.count_bruteforce": 4, "linsys.replay": 1,
        "linsys.generate_equations": 1}
    assert trace["counts"] == {
        "linsys.rows.forbidden": 75, "linsys.rows.special": 27,
        "linsys.rows.split": 688, "linsys.rows.zeta": 72,
        "linsys.variables": 291, "linsys.dimension": 4,
        "ncposet.elements": 25_080}
    assert trace["maxima"] == {"exact.solve.rank": 291,
                               "exact.solve.max_bits": 26}


# a traced call made with a label, in a fresh process: ``install`` rebinds
# the module globals; prints the spans of the walk and the elements counted
TRACED_LABEL = r"""
import sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from noncross import ncposet
from noncross.typelabel import label
tracer = tracing.Tracer()
tracing.install(tracer)
ncposet.enumerate_nc(label("D5"))
print(sum(span[0] == "ncposet.enumerate_nc" for span in tracer.spans),
      tracer.counts["ncposet.elements"])
"""


def test_traced_label_call_counts_its_work_once():
    """A label is one call of a per-type function: the tracer records one
    walk of NC(D5) and its 182 elements, not a second pass through a
    text re-entry."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.run([sys.executable, "-c", TRACED_LABEL,
                            os.path.join(root, "perfbench")],
                           env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "1 182\n"
