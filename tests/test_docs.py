"""The examples in the docs run: the package doctest and every ``python``
block of README.md, so that no removed name lingers there."""

import doctest
import re
from pathlib import Path

import qexpseries

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_doctest():
    result = doctest.testmod(qexpseries)
    assert result.attempted and not result.failed


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
