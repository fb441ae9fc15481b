import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
