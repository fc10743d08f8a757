"""The README's Quick start block, run as written: each line it prints must
be the `# ...` comment line that follows its print call."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The source of the README's one Python block."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def stated_output(source):
    """The comment line after each print call, without its `# `, in order."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            after = lines[node.end_lineno]  # the line after the call ends
            assert after.startswith("# "), after
            out.append((node.lineno, after[2:]))
    return [text for _, text in sorted(out)]


def test_quick_start_prints_what_it_states():
    source = quick_start()
    stated = stated_output(source)
    assert len(stated) == 4
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == stated
