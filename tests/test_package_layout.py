import ast
from pathlib import Path

import slopestrike

PACKAGE = Path(slopestrike.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cross_module_private_reads(path: Path) -> list[str]:
    """``_name`` attributes this module reads from a sibling module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import autodiff as ad
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):  # from .features import _decay_scan
                    found.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in _cross_module_private_reads(path)]
    assert not found, found


def test_the_check_sees_a_private_read(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from . import defense\nfrom .features import _decay_scan\n"
                   "defense._digest_file(None)\n")
    assert len(_cross_module_private_reads(bad)) == 2
