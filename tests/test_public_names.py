"""Every public name has a caller outside the tests, or a stated reason.

A name in a module's ``__all__`` that only tests reach is code kept alive
by its own test. This walks the library and the demos and fails for any
such name that is not on the allow-list below, and for any allow-listed
name that has since gained a caller or stopped being public.

The same holds for a public name's defaulted parameters: one that no call
in the library or the demos sets, by position or by keyword, is a knob
only tests turn, and fails unless ALLOWED_DEFAULTS gives a reason. The
names on ALLOWED are test-facing as a whole, so their parameters are exempt.
"""

import ast
import importlib
import inspect
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kernelcontrast"

ALLOWED = {
    "save_sym_csv": "writes the symmetric-table CSV that kc reads",
    "save_process": "writes the pair-process file that kc reads",
    "grad_check": "the central-difference gradient oracle of acceptance criterion 10",
    "is_psd": "the PSD oracle of acceptance criterion 11",
    "k_sigmoid": "the activation --activation names, which _shift applies in closed form",
    "simclr_loss_mc": "the sampled estimator EnumerationBudgetError points users to",
    "nce_loss_grad": "the per-sample NCE loss whose optimum train_nce reaches on counts",
}

ALLOWED_DEFAULTS: dict = {}  # "name.parameter" -> reason


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_names():
    names = {}
    for path in _modules():
        module = importlib.import_module(f"kernelcontrast.{path.stem}")
        for name in getattr(module, "__all__", ()):
            names[name] = path.stem
    return names


def _nodes():
    for path in _modules() + sorted((ROOT / "demos").glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _referenced_names():
    seen = set()
    for node in _nodes():
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            seen.update(alias.name for alias in node.names)
    return seen


def test_every_public_name_has_a_caller_or_a_reason():
    public = _public_names()
    unreferenced = public.keys() - _referenced_names()
    unexplained = sorted(f"{public[name]}.{name}" for name in unreferenced - ALLOWED.keys())
    assert not unexplained, f"public names that only tests reach: {unexplained}"
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, f"allow-listed names that are no longer test-only publics: {stale}"


def _set_parameters():
    """Per called name: the most positional arguments any call passes, and
    every keyword any call passes; a * or ** argument sets them all."""
    positional, keywords = {}, {}
    for node in _nodes():
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        count = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            count = math.inf
        positional[name] = max(positional.get(name, 0), count)
        keywords.setdefault(name, set()).update(kw.arg or "**" for kw in node.keywords)
    return positional, keywords


def _unset_defaults():
    positional, keywords = _set_parameters()
    unset = set()
    for name, module in _public_names().items():
        value = getattr(importlib.import_module(f"kernelcontrast.{module}"), name)
        if name in ALLOWED or not callable(value):
            continue
        try:
            params = list(inspect.signature(value).parameters.values())
        except ValueError:  # exception classes have no inspectable signature
            continue
        passed = keywords.get(name, set())
        for i, param in enumerate(params):
            by_position = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            if param.default is param.empty or passed & {"**", param.name}:
                continue
            if not (by_position and positional.get(name, 0) > i):
                unset.add(f"{name}.{param.name}")
    return unset


def test_every_defaulted_parameter_is_set_somewhere_or_has_a_reason():
    unset = _unset_defaults()
    unexplained = sorted(unset - ALLOWED_DEFAULTS.keys())
    assert not unexplained, f"defaulted parameters that no library or demo call sets: {unexplained}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - unset)
    assert not stale, f"allow-listed parameters that a call now sets: {stale}"
