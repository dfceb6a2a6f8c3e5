"""The README's "Quick start" block runs and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_four_lines():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "CodeSetParams(K=12, M=4, N=24, Z=8, q=2, m=3, k=1, delta=6, p=3, s=2)",
        "True",
        "True",
        "8",
    ]
