"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_example() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_its_comments():
    code = library_example()
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    assert want and out.getvalue().splitlines() == want
