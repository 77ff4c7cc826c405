"""README's Python API example runs against the package as installed."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block() -> str:
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_python_api_example_runs(capsys):
    # Fails on ImportError if a name the example uses leaves the package.
    exec(compile(_python_api_block(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
