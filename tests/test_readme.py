"""README.md's examples, run as written.

Every ``$ quadsing ...`` line of a ``text`` block goes through ``cli.run``,
and its stdout must be the lines that follow it, up to the next ``$`` line
or the end of the block; a last line ``...`` asks only for those lines as a
prefix.  The ``python`` block of "Library use" runs as it stands.
"""

from __future__ import annotations

import io
import re
import shlex
from pathlib import Path

import pytest

from quadsing import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.S | re.M)


def _transcripts():
    calls = []
    for block in _blocks("text"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ quadsing "):
                command, _, output = chunk.partition("\n")
                calls.append((shlex.split(command[2:])[1:], output))
    return calls


TRANSCRIPTS = _transcripts()
LIBRARY_USE = _blocks("python", README.partition("## Library use")[2])


def test_the_readme_has_transcripts_and_a_library_example():
    assert len(TRANSCRIPTS) >= 8
    assert LIBRARY_USE


@pytest.mark.parametrize(
    "argv, expected", TRANSCRIPTS, ids=[" ".join(argv) for argv, _ in TRANSCRIPTS]
)
def test_transcript(monkeypatch, argv, expected):
    monkeypatch.delenv("QUADSING_ASCII", raising=False)
    out = io.StringIO()
    assert cli.run(argv, stdout=out) == 0
    if expected.endswith("...\n"):
        assert out.getvalue().startswith(expected[: -len("...\n")])
    else:
        assert out.getvalue() == expected


def test_library_use_runs_as_written():
    source = LIBRARY_USE[0]
    exec(compile(source, "README.md", "exec"), {})
