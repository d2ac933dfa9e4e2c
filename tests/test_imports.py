"""Import footprint of the CLI and the lazy package namespace.

Each footprint check runs one fresh interpreter with ``-S`` (no site
hooks, so nothing but the interpreter itself is loaded beforehand) and
records the modules that appear between the start of the script and the
end of the call.  Nothing here is timed.
"""

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
# test oracle) and with ``reflection_orbits`` moved to ``ncposet``; the
# submodules are exported too
EXPORTS = {
    "decomp": ("DecompositionTable", "all_labels_of_rank",
               "all_tuples_of_rank", "canonical_tuple", "census_table",
               "count_bruteforce", "count_product", "count_typeA",
               "full_table", "orderings", "special_values", "tuple_rank"),
    "exact": ("Echelon", "InconsistentSystemError", "LinearSystem",
              "SolutionSpace", "SparsePolynomial", "echelon", "solve"),
    "linsys": ("EXPECTED_DIMENSION", "ReplayError", "ReplayReport",
               "generate_equations", "replay"),
    "ncposet": ("NcPoset", "ResourceGuardError", "build_ncm",
                "characteristic_direct", "characteristic_polynomial",
                "enumerate_nc", "mobius", "mobius_from_top",
                "ncm_cardinality", "read_cache", "reflection_orbits",
                "write_cache", "zeta_closed", "zeta_direct"),
    "refdata": ("CHI_STAR_COEFFS", "REFERENCE_TABLE_NAMES",
                "chi_star_reference", "golden_dual", "reference_table"),
    "rootsystem": ("SUPPORTED_AMBIENTS", "RootSystem", "build_root_system"),
    "triangles": ("FTriangleCandidate", "MTriangle", "TransformFailure",
                  "assemble_dual", "dual_to_primal", "f_reciprocity_checks",
                  "fm_transform", "mtriangle_direct", "reciprocity_check",
                  "zeta_identity_check"),
    "typelabel": ("TypeLabel", "label"),
    "weyl": ("absolute_length", "bipartite_coxeter", "enumerate_group"),
}

HEAVY_STDLIB = {"dataclasses", "tempfile"}

# run by a fresh ``python -S``: argv[1] is the command as a JSON list
# ("import" only imports the CLI); the last line of stdout is the JSON
# list of modules loaded since the script started
FOOTPRINT = """
import sys
before = set(sys.modules)
import json
argv = json.loads(sys.argv[1])
if argv == "import":
    import noncross.cli
elif argv == "all":
    from noncross import *
    import noncross.cli, noncross.verify
else:
    from noncross import cli
    assert cli.main(argv) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(argv):
    child = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT,
                            json.dumps(argv)],
                           env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True, text=True, check=True)
    return set(json.loads(child.stdout.splitlines()[-1]))


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


def test_rootsys_info_loads_only_the_root_system():
    modules = loaded_by(["rootsys", "info", "A1"])
    assert package_modules(modules) == {"cli", "typelabel", "rootsystem"}


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
    assert len(noncross.__all__) == 70


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
