"""README's library example runs as written against the current signatures.

It prints ``t_end`` and the last J; the expected pair was measured with one
and with two BLAS threads, and J is compared to 1e-12 relative.
"""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    t_end, j = out.getvalue().split()
    assert int(t_end) == 508
    assert float(j) == pytest.approx(0.0009964318514859016, rel=1e-12)
