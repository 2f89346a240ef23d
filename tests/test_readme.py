"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, str(README), "exec"), {})
    # greedy SR1 on the paper's n=50 instance, as in the benchmark table
    assert capsys.readouterr().out == "converged 67\n"
