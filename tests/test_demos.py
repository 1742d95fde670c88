"""Smoke test: every script under demos/ runs to completion, and so does
the README's library example."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert {"word_vectors.py", "eigenfunction_stages.py"} <= {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_example_runs(capsys):
    """The README's one Python block trains InfoNCE through the top-level
    namespace and reaches the pair-odds conditionals."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    match = re.fullmatch(r"final loss 0\.94899, normalized score gap (\S+)\n", out)
    assert match and float(match.group(1)) < 1e-6
