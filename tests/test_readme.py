"""The README's Python quick tour runs as written against the package's public names."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_tour_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "2 ((1, 1), (1, 1))"
