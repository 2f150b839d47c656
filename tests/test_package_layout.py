import ast
import re
from pathlib import Path

import slopestrike

PACKAGE = Path(slopestrike.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


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


def _public_definitions(path: Path) -> list[tuple[str, str]]:
    """(name, where) of each public module-level function or class and each
    public method of a module-level class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found.append((node.name, f"{path.stem}.{node.name}"))
        if isinstance(node, ast.ClassDef):
            found += [(m.name, f"{path.stem}.{node.name}.{m.name}") for m in node.body
                      if isinstance(m, kinds) and not m.name.startswith("_")]
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    kinds = (ast.Module, ast.FunctionDef, ast.ClassDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, kinds) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _named(path: Path) -> set[str]:
    """Every name a module uses: names, attributes, imported names and the
    identifiers inside its string constants (docstrings aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docs, names = _docstrings(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _unnamed_public_api(package: list[Path], users: list[Path]) -> list[str]:
    """Public functions, classes and methods of the package that no module of
    ``users`` names; a definition does not name itself."""
    named = set().union(*(_named(path) for path in users))
    return sorted(where for path in package for name, where in _public_definitions(path)
                  if name not in named)


def test_every_public_function_class_and_method_is_named_outside_the_tests():
    package = sorted(PACKAGE.glob("*.py"))
    perfbench = sorted(PERFBENCH.glob("*.py"))
    assert len(package) > 5 and perfbench
    unnamed = _unnamed_public_api(package, package + perfbench)
    assert not unnamed, unnamed


def test_the_check_sees_public_api_that_only_tests_call(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text('"""used_in_docstring_only is no use."""\n'
                   "class Model:\n    def run(self):\n        return helper()\n"
                   "    def unused_method(self):\n        pass\n"
                   "def helper():\n    return 1\n"
                   "def used_in_docstring_only():\n    pass\n"
                   "def _private():\n    pass\n"
                   "def by_string():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text('from lib import Model\nModel().run()\nTARGETS = [("lib", "by_string")]\n')
    assert _unnamed_public_api([lib], [lib, user]) == ["lib.Model.unused_method",
                                                       "lib.used_in_docstring_only"]


# cli.main's argv: the console script calls main() with none, and the tests
# drive the entry point through it
_UNPASSED_DEFAULT_EXEMPT = {("main", "argv")}


def _defaulted_parameters(path: Path) -> list[tuple[str, str, str, int | None]]:
    """(call name, parameter, where, position) of each defaulted parameter of a
    function or method; the call name of ``__init__`` is its class's, and the
    position (None: keyword-only) does not count ``self`` or ``cls``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {id(m): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for m in cls.body if isinstance(m, ast.FunctionDef)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = owner.get(id(fn))
        skip = 0 if cls is None else 1
        name = cls.name if cls is not None and fn.name == "__init__" else fn.name
        where = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found += [(name, p.arg, where, i - skip) for i, p in enumerate(positional) if i >= first]
        found += [(name, p.arg, where, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
    return found


def _calls_and_references(paths: list[Path]) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """The calls of each callee name, and every name used other than as a callee."""
    calls, referenced = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callees.add(id(node.func))
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if id(node) in callees:
                continue
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return calls, referenced


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True  # *args or **kwargs may pass anything
    return ((position is not None and len(call.args) > position)
            or any(k.arg == param for k in call.keywords))


def _unpassed_defaults(package: list[Path], callers: list[Path]) -> list[str]:
    """Defaulted parameters of the package that no call in ``callers`` passes,
    by position or keyword.  Calls are matched by name, and a function named
    other than as a callee is skipped: its caller is not visible."""
    calls, referenced = _calls_and_references(callers)
    return sorted(f"{where}:{param}" for path in package
                  for name, param, where, position in _defaulted_parameters(path)
                  if name not in referenced and (name, param) not in _UNPASSED_DEFAULT_EXEMPT
                  and not any(_passes(c, param, position) for c in calls.get(name, ())))


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # the test oracles do not count: a default only they pass is one no command uses
    package = sorted(PACKAGE.glob("*.py"))
    callers = package + sorted(PERFBENCH.glob("*.py"))
    assert len(package) > 5 and len(callers) > len(package)
    unpassed = _unpassed_defaults(package, callers)
    assert not unpassed, unpassed


def test_the_check_sees_a_default_no_caller_passes(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Model:\n"
                   "    def __init__(self, seed=0, scale=1.0):\n        pass\n"
                   "    def run(self, x, hook=None, *, log=False):\n        pass\n"
                   "def chart(path, width=900, title=''):\n    pass\n"
                   "def callback(value=1):\n    pass\n"
                   "def main(argv=None):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("m = Model(3)\nm.run(1, log=True)\nchart('a.svg', title='t')\n"
                    "handlers = [callback]\n")
    assert _unpassed_defaults([lib], [lib, user]) == [
        "lib.Model.__init__:scale", "lib.Model.run:hook", "lib.chart:width"]


def _is_classvar(annotation: ast.expr) -> bool:
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return (isinstance(base, ast.Name) and base.id == "ClassVar") or (
        isinstance(base, ast.Attribute) and base.attr == "ClassVar")


def _config_fields(path: Path) -> list[tuple[str, list[str], list[str]]]:
    """(class, fields in order, defaulted fields) of each ``@dataclass`` named
    ``*Config``; a ``ClassVar`` is not a field."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Config") and any(
                _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in cls.decorator_list)):
            continue
        fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name) and not _is_classvar(s.annotation)]
        found.append((cls.name, [s.target.id for s in fields],
                      [s.target.id for s in fields if s.value is not None]))
    return found


def _constant_keys(node: ast.expr) -> list[str]:
    """The keys of a dict display, or of a ``dict(...)`` call, with constant keys."""
    if isinstance(node, ast.Dict) and all(isinstance(k, ast.Constant) for k in node.keys):
        return [k.value for k in node.keys]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
            and not node.args and all(k.arg is not None for k in node.keywords)):
        return [k.arg for k in node.keywords]
    return []


def _callee(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else None)


def _set_config_fields(paths: list[Path], fields: dict[str, list[str]]) -> set[tuple[str, str]]:
    """(class, field) of each config field that a call passes: to the class, or
    to a call whose first positional argument names the class, by position, by
    keyword or through ``**`` of a dict display with constant keys or of a
    module-level name bound to one.  Calls inside ``with pytest.raises`` do not count."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {t.id: _constant_keys(s.value) for s in tree.body if isinstance(s, ast.Assign)
                 for t in s.targets if isinstance(t, ast.Name)}
        raising = {id(n) for w in ast.walk(tree) if isinstance(w, ast.With)
                   and any(isinstance(i.context_expr, ast.Call)
                           and _callee(i.context_expr.func) == "raises" for i in w.items)
                   for s in w.body for n in ast.walk(s)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in raising:
                continue
            args = call.args
            cls = _callee(call.func)
            if cls not in fields and args and _callee(args[0]) in fields:
                cls, args = _callee(args[0]), args[1:]
            if cls not in fields:
                continue
            names = fields[cls][:len(args)]
            for k in call.keywords:
                if k.arg is not None:
                    names.append(k.arg)
                elif isinstance(k.value, ast.Name):
                    names += bound.get(k.value.id, [])
                else:
                    names += _constant_keys(k.value)
            found.update((cls, name) for name in names)
    return found


def _unset_config_fields(package: list[Path], callers: list[Path]) -> list[str]:
    """Defaulted fields of the package's config dataclasses that no call in
    ``callers`` sets."""
    configs = [c for path in package for c in _config_fields(path)]
    set_fields = _set_config_fields(callers, {name: fields for name, fields, _ in configs})
    return sorted(f"{name}.{f}" for name, _, defaulted in configs for f in defaulted
                  if (name, f) not in set_fields)


def test_every_config_field_is_set_by_some_call():
    package = sorted(PACKAGE.glob("*.py"))
    callers = package + sorted(PERFBENCH.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(package) > 5 and any(_config_fields(path) for path in package)
    unset = _unset_config_fields(package, callers)
    assert not unset, unset


def test_the_check_sees_a_config_field_no_call_sets(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from dataclasses import dataclass\nfrom typing import ClassVar\n"
                   "@dataclass\nclass ModelConfig:\n"
                   "    fixed: ClassVar[int] = 3\n    name: str\n    width: int = 8\n"
                   "    depth: int = 2\n    lr: float = 0.1\n    seed: int = 0\n"
                   "    decay: float = 0.0\n    unset: int = 1\n    only_raising: int = 1\n"
                   "class OtherConfig:\n    plain: int = 1\n")
    user = tmp_path / "user.py"
    user.write_text("import pytest\nSMALL = dict(depth=1)\n"
                    "ModelConfig('m', 4, **SMALL)\ncheck(lib.ModelConfig, lr=0.2)\n"
                    "ModelConfig('m', **{'seed': 1}, **{k: 2 for k in ('decay',)})\n"
                    "with pytest.raises(ValueError):\n    ModelConfig('m', only_raising=0)\n")
    assert _unset_config_fields([lib], [lib, user]) == [
        "ModelConfig.decay", "ModelConfig.only_raising", "ModelConfig.unset"]
