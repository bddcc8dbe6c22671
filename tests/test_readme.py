"""README.md against the code it documents: its default config and its
list of subcommands."""

import argparse
import json
import re
from pathlib import Path

from speechmine.cli import build_parser
from speechmine.curation import CurationConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_config_block_is_the_default_config():
    data = json.loads(_block("Configuration", "json"))
    assert data == CurationConfig().to_dict()
    assert CurationConfig.from_dict(data).config_hash() == CurationConfig().config_hash()


def test_listed_subcommands_are_the_parsers():
    listed = re.findall(r"^speechmine (\S+)", _block("Subcommands", "sh"), re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)
