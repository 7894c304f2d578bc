"""The README's library sketch runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_runs(capsys):
    code = _sketch()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # each print's comment starts with its output, up to an optional ": explanation"
    claimed = [line.split("#", 1)[1].strip().split(":")[0]
               for line in code.splitlines() if line.startswith("print(")]
    assert printed == claimed
    assert namespace["rank"] == 9
    assert namespace["rmse"] < 1e-6
