"""The Python examples of README.md run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs(k):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(BLOCKS[k], f"README.md python block {k + 1}", "exec"), {"__name__": "__readme__"})
    assert out.getvalue()  # every example prints what it shows
