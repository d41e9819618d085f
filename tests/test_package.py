"""The package as a reader meets it: what an import loads, and the README's
Python examples run as written."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import otclust

README = Path(__file__).resolve().parent.parent / "README.md"


def test_importing_core_modules_loads_no_solver():
    # the modules a benchmark run imports before its first solve; the package
    # root re-exports nothing, so the solvers, the sweep's thread pool and
    # its logging stay unloaded
    probe = (
        "import sys, otclust.core, otclust.datagen, otclust.pointio; "
        "print(sorted(m for m in sys.modules if m.startswith('otclust'))); "
        "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    )
    package_root = str(Path(otclust.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "['otclust', 'otclust.core', 'otclust.datagen', 'otclust.pointio']",
        "False False",
    ]


def _pattern(comment):
    # a lowercase word in a comment stands for a number: (iterations, 2)
    return re.compile(re.sub(r"[a-z_]+", r"\\d+", re.escape(comment)))


def test_readme_examples_print_their_comments():
    comments = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL):
        expected = [
            line.split("#", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(")
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            exec(compile(block, str(README), "exec"), {})
        lines = stdout.getvalue().splitlines()
        assert len(lines) == len(expected)
        for comment, line in zip(expected, lines):
            assert _pattern(comment).fullmatch(line), (comment, line)
        comments += expected
    assert comments == ["2", "[0 0 2 2]", "(iterations, 2)", "[4, 1, 1]"]
