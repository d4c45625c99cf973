"""The README's examples, run: the Python quickstart and the command-line session."""

import re
import shlex
from pathlib import Path

from pgroebner.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    """The bodies of the README's fenced code blocks of one language."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def test_quickstart_runs_and_prints_what_its_comments_say(capsys):
    (code,) = [b for b in _blocks("python") if "import" in b]
    lines = code.splitlines()
    # each print's output is its trailing comment, or the comment line under it
    want = [
        (line.split("#", 1)[1] if "#" in line else lines[k + 1].lstrip("# ")).strip()
        for k, line in enumerate(lines) if line.startswith("print(")
    ]
    assert len(want) == 2
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


def test_command_line_session_matches_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (session,) = [b for b in _blocks("text") if b.startswith("$ ")]
    runs = 0
    for command in re.split(r"^\$ ", session, flags=re.M)[1:]:
        line, _, shown = command.partition("\n")
        argv = shlex.split(line)
        if argv[0] == "printf":  # printf 'TEXT' > FILE
            assert argv[2] == ">"
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "pgroebner"
        assert main(argv[1:]) == 0
        # a line of `...` stands for any lines of the output
        pattern = "".join(r"(?:.*\n)*?" if row.strip() == "..." else re.escape(row) + r"\n"
                          for row in shown.strip("\n").splitlines())
        assert re.fullmatch(pattern, capsys.readouterr().out), line
        runs += 1
    assert runs == 2
