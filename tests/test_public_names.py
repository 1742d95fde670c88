"""Every public name has a caller outside the tests, or a stated reason.

A name in a module's ``__all__`` that only tests reach is code kept alive
by its own test. This walks the library and the demos and fails for any
such name that is not on the allow-list below, and for any allow-listed
name that has since gained a caller or stopped being public.
"""

import ast
import importlib
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


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_names():
    names = {}
    for path in _modules():
        module = importlib.import_module(f"kernelcontrast.{path.stem}")
        for name in getattr(module, "__all__", ()):
            names[name] = path.stem
    return names


def _referenced_names():
    seen = set()
    for path in _modules() + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
