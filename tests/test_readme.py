"""The README's Python API example prints what the README says it prints."""

import itertools
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_prints_the_lines_the_readme_shows(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    shown = section.split("This prints:\n\n", 1)[1].splitlines()
    expected = [line.strip() for line in itertools.takewhile(lambda line: line.startswith("    "), shown)]
    assert len(expected) == 4
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
