import ast
from pathlib import Path

import ogpf

SRC = Path(ogpf.__file__).parent


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts; runtime checks raise the typed errors of
    # ogpf.errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_only_pwa_and_mipbuild_name_the_region_binaries():
    # the region binaries mean what pwa.emit_mld and pwa.config_columns say;
    # every other module goes through a region configuration
    names = {"ALPHA", "BETA", "DM"}
    kinds = {"alpha", "beta", "dm"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("mipbuild.py", "pwa.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names
                    or isinstance(node, ast.Constant) and node.value in kinds):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_pwa_names_config_columns():
    # stage 2 and the oracle read configuration models, whose columns hold
    # no binary; the binaries' values at a configuration are pwa's to give,
    # and only the tests' big-M reference reduction asks for them
    found = {path.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Name) and node.id == "config_columns"
             or isinstance(node, ast.Attribute)
             and node.attr == "config_columns"
             or isinstance(node, (ast.alias, ast.FunctionDef))
             and node.name == "config_columns"}
    assert found == {"pwa.py"}


def test_the_oracle_reduces_no_big_m_model():
    # the oracle screens and solves configuration models; relaxing,
    # fixing and aliasing big-M columns is the tests' reference
    path = SRC / "oracle.py"
    names = {"relax", "substitute_columns", "config_columns"}
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.alias) and node.name in names]
    assert found == []


def test_only_pwa_reads_the_chord_segments():
    # the chord coefficients and breakpoints enter the model only through
    # pwa.emit_mld and pwa.emit_hull, so stage 2 reads them off the model's
    # rows rather than off the curves, and finds a flow's region through
    # PwaCurve.region
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "pwa.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("segments", "breakpoints")]
    assert found == []


def test_no_module_imports_scipy_spatial():
    # the pipes' hulls are two monotone chains in numpy; qhull would add an
    # import to every process start
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [f"{node.module}.{alias.name}" for alias in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module
                     else [])
            if any(name == "scipy.spatial" or name.startswith("scipy.spatial.")
                   for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_factor_helper_names_splu():
    # every KKT factor goes through ipm._lu, so no factor call can drift
    # from its symmetric-mode options
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "splu"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "splu"
                        or isinstance(node, ast.alias) and node.name == "splu"):
                    found.append((path.name, getattr(top, "name", "import")))
    assert found == [("ipm.py", "import"), ("ipm.py", "_lu")]


def test_only_the_interior_point_names_its_stopping_rule():
    # every convex solve stops by one rule: ipm defines its constants at top
    # level and _iterate alone reads them; no options object carries them
    names = {"_FEAS_TOL", "_OPT_TOL", "_MAX_ITER", "SolveOptions"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name in names:
                    found.add((path.name, getattr(top, "name", "top level"),
                               name))
    stopping = ("_FEAS_TOL", "_OPT_TOL", "_MAX_ITER")
    assert found == {("ipm.py", where, name) for name in stopping
                     for where in ("top level", "_iterate")}


def test_only_the_highs_helpers_name_linprog():
    # the convex-solve verdicts share one HiGHS LP in convexsolve's
    # cutting-plane loop; stage 2's pressure LP is the only other one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "linprog"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "linprog"
                        or isinstance(node, ast.alias)
                        and node.name == "linprog"):
                    found.append((path.name, getattr(top, "name", "import")))
    assert found == [("convexsolve.py", "import"),
                     ("convexsolve.py", "_cutting_planes"),
                     ("recovery.py", "import"),
                     ("recovery.py", "solve_pressure_lp")]


def test_only_pwa_pairs_orientations():
    # one curve per internal pipe; pwa alone expands a pipe into its two
    # orientations, so no other module strides through an orientation list
    def step_two(node):
        if isinstance(node, ast.Slice):
            step = node.step
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "slice" and len(node.args) == 3):
            step = node.args[2]
        else:
            return False
        return isinstance(step, ast.Constant) and step.value == 2

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "pwa.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if step_two(node)]
    assert found == []
