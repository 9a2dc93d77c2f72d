"""README claims are executed: the library tour runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_prints_one_line_per_task(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md (Library tour)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for step, line in enumerate(lines, start=1):
        fields = line.split()
        assert int(fields[0]) == step
        assert all(0.0 <= float(acc) <= 1.0 for acc in fields[1:])
