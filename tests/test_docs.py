"""The README examples run and parse, the demos import, the exports resolve, and the
dependencies match the imports."""

import ast
import math
import re
import runpy
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import ire_sim
from ire_sim import ConfigDocument, config, parse_config_text
from ire_sim.experiments import METHODS
from ire_sim.retrieval import _cell_table

from conftest import canonical_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs_and_prints_its_comment(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    # the block's last line prints eta and states the value in its comment
    claimed = re.search(r"print\(est\.eta\)\s+# ([0-9.]+)", blocks[0]).group(1)
    assert f"{float(printed[-1]):.{len(claimed) - 2}f}" == claimed


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports(path):
    # every name a demo imports from the package still exists; main() is
    # guarded, so nothing heavy runs
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])


def _third_party_imports(paths):
    """The top-level third-party modules the files at paths import."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return {name for name in imported
            if name not in sys.stdlib_module_names and name not in ("ire_sim", "conftest")}


def _names(deps):
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    assert _third_party_imports((ROOT / "src" / "ire_sim").glob("*.py")) == declared


def test_the_test_extra_declares_what_the_tests_import_beyond_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"]) | _names(project["optional-dependencies"]["test"])
    assert _third_party_imports((ROOT / "tests").glob("*.py")) == declared


def test_every_exported_name_resolves():
    missing = [name for name in ire_sim.__all__ if not hasattr(ire_sim, name)]
    assert missing == []
    assert len(set(ire_sim.__all__)) == len(ire_sim.__all__)


def test_readme_ini_block_is_the_grammar():
    (block,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    doc = parse_config_text(block)
    declared = sorted(key.name for key in fields(ConfigDocument))
    # every key, the commented-out alternatives included, and each once
    assert sorted(re.findall(r"^;?(\w+)\s+=", block, re.M)) == declared
    assert sorted(re.findall(r"^    (\w+)\s+= ", config.__doc__, re.M)) == declared
    # both list the method names of the one table of methods
    for text in (block, config.__doc__):
        (names,) = re.findall(r"^\s*method\s+= \w+\s+;?\s*(\w+(?: \| \w+)+)", text, re.M)
        assert tuple(names.split(" | ")) == tuple(METHODS)
    # the optional blocks show the defaults
    for key in fields(ConfigDocument):
        if key.metadata["block"] in ("species", "run"):
            default = key.metadata["default"]
            expected = None if default is None else key.metadata["read"](default, key.name)
            assert getattr(doc, key.name) == expected, key.name


def _imaginary(node):
    """Whether an expression holds an imaginary literal such as 1j."""
    return any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
               for n in ast.walk(node))


def test_no_phase_factor_bypasses_cis():
    # The README states that every phase factor e^{i phi} comes from
    # beams.cis: no np.exp of the package takes an imaginary literal.
    found = []
    for path in sorted((ROOT / "src" / "ire_sim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and any(_imaginary(arg) for arg in [*node.args, *node.keywords])):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_half_angle_tangent_lives_in_beams():
    # beams._cos_sin is the package's one half-angle tangent: cis and the
    # angular kernel's real sums take cos and sin from it, so no other
    # module names np.tan.
    found = []
    for path in sorted((ROOT / "src" / "ire_sim").glob("*.py")):
        if path.name == "beams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "tan"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_gouy_phase_lives_in_beams():
    # beams._mode_terms is the package's one set of Gaussian-mode terms: the
    # idler projection and the lobe table's source grid take their Gouy
    # phases from it, so no other module names np.arctan.
    found = []
    for path in sorted((ROOT / "src" / "ire_sim").glob("*.py")):
        if path.name == "beams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "arctan"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_package_reads_no_environment_variable():
    # Every setting of a run is an argument or an INI key, so the run record
    # names all of them: no module under src/ire_sim names os.environ,
    # os.getenv or environ.
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted((ROOT / "src" / "ire_sim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_normals_take_their_trig_from_cos_sin():
    # The sampler's Box-Muller normals take each angle's cos and sin from
    # beams._cos_sin, the package's one half-angle tangent: ensemble.py
    # calls no np.sin or np.cos.
    path = ROOT / "src" / "ire_sim" / "ensemble.py"
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("sin", "cos") and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert found == []


def test_every_prune_floor_the_readme_states_is_the_package_s():
    # the floor is one module constant; a README that kept an old value
    # would state a skip, and a bound, the package no longer makes
    stated = re.findall(r"PRUNE_FLOOR\s*=\s*([0-9][0-9.eE+-]*)", (ROOT / "README.md").read_text())
    assert stated
    assert [float(value) for value in stated] == [ire_sim.PRUNE_FLOOR] * len(stated)


def test_the_streamed_cells_the_readme_states_are_the_cell_table_s():
    # README states how many cells the canonical cloud streams; a change to
    # the cell bound or to the floor that moved them would leave it stale
    readme = " ".join((ROOT / "README.md").read_text().split())
    streamed = {theta: _cell_table(canonical_scenario(skew_theta=math.radians(theta)))[0]
                for theta in range(5)}
    stated = re.findall(r"(\d+) of 512 at 0°(?: \([^)]*\))? and (\d+) at 1–4°", readme)
    assert len(stated) == 2
    for at_0, at_tilt in stated:
        assert int(at_0) == streamed[0].sum()
        assert {int(streamed[theta].sum()) for theta in range(1, 5)} == {int(at_tilt)}
    ((cells, shells),) = re.findall(r"in (\d+) cells of (\d+) shells are streamed", readme)
    assert (int(cells), int(shells)) == (streamed[0].sum(), streamed[0].any(axis=1).sum())
