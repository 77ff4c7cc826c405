"""README's Python API example and command-line block run against the package as installed."""
import re
import shlex
from pathlib import Path

import paoiplan.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_blocks(heading: str, language: str) -> list[str]:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.DOTALL)


def _python_api_block() -> str:
    blocks = _section_blocks("Python API", "python")
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_python_api_example_runs(capsys):
    # Fails on ImportError if a name the example uses leaves the package.
    exec(compile(_python_api_block(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # The block writes scenario.json with a heredoc, then runs one paoiplan
    # command a line; each runs in process, in a scratch directory, and exits 0.
    blocks = _section_blocks("Command line", "bash")
    assert len(blocks) == 1, blocks
    heredocs = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF\n", blocks[0], flags=re.DOTALL | re.MULTILINE)
    assert [name for name, _ in heredocs] == ["scenario.json"]
    lines = [line for line in blocks[0].splitlines() if line.startswith("paoiplan ")]
    commands = [shlex.split(line, comments=True) for line in lines]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for name, text in heredocs:
        (tmp_path / name).write_text(text)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
