"""Every name README.md gives in backticks exists, so that the README cannot
keep a name the code has deleted: a dotted name whose head is `ziclab`,
one of its modules or a name the package exports resolves; a bare name in
a module's row of the "What is inside" table is one of those heads, or
an attribute of the module or of one of its classes; and a `path::name`
reference is a file of the repository defining that name."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ziclab

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
TICKED = re.findall(r"`([^`\n]+)`", README)
HEADS = {"ziclab", *(m.name for m in pkgutil.iter_modules(ziclab.__path__)), *dir(ziclab)}
DOTTED = sorted({t for t in TICKED if re.fullmatch(r"\w+(\.\w+)+", t) and t.split(".")[0] in HEADS})
DEFINED = sorted({t for t in TICKED if re.fullmatch(r"[\w/]+\.py::\w+", t)})
ROW_NAMES = sorted(
    {
        (module, re.match(r"\w+", t).group())
        for module, row in re.findall(r"^\| `ziclab\.(\w+)` \|(.*)\|$", README, re.MULTILINE)
        for t in re.findall(r"`([^`\n]+)`", row)
        if re.fullmatch(r"[A-Za-z_]\w*(\([^()]*\))?", t)
    }
)


def resolve(dotted: str):
    """The object a dotted name names, importing submodules on the way."""
    obj = ziclab
    for part in dotted.removeprefix("ziclab.").split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_readme_names_some_of_each_kind():
    assert "ziclab.counterexamples" in DOTTED and "hkregion.power_control_cell" in DOTTED
    assert DEFINED
    assert ("counterexamples", "select_epsilon") in ROW_NAMES


@pytest.mark.parametrize("dotted", DOTTED)
def test_readme_dotted_name_resolves(dotted):
    resolve(dotted)


@pytest.mark.parametrize("module, name", ROW_NAMES)
def test_readme_module_row_name_resolves(module, name):
    owner = importlib.import_module(f"ziclab.{module}")
    holders = [owner, *(v for v in vars(owner).values() if isinstance(v, type))]
    assert name in HEADS or any(hasattr(h, name) for h in holders)


@pytest.mark.parametrize("reference", DEFINED)
def test_readme_test_reference_is_defined(reference):
    path, name = reference.split("::")
    assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE)
