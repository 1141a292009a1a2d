"""The README's examples: every python block runs, every json block parses."""
import os
import re

import pytest

from wavenav.config import parse_config

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FENCED = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_blocks(language: str) -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    blocks = [body for tag, body in FENCED.findall(text) if tag == language]
    assert blocks, f"README has no {language} block"
    return blocks


def numbered(blocks: list[str]):
    return pytest.mark.parametrize(
        "text", blocks, ids=[f"block{i}" for i in range(len(blocks))])


@numbered(readme_blocks("python"))
def test_python_blocks_run(text, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name configs relative to the repo
    exec(compile(text, "README.md", "exec"), {})


@numbered(readme_blocks("json"))
def test_json_blocks_are_valid_scenarios(text):
    parse_config(text)
