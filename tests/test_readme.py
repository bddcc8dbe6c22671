"""README.md against the code it documents: its default config, its
backend kinds and their parameters, and its list of subcommands."""

import argparse
import json
import re
from pathlib import Path

from speechmine.cli import build_parser
from speechmine.curation import CurationConfig
from speechmine.enhance import ENHANCER_PARAMS
from speechmine.vad import VAD_PARAMS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_config_block_is_the_default_config():
    data = json.loads(_block("Configuration", "json"))
    assert data == CurationConfig().to_dict()
    assert CurationConfig.from_dict(data).config_hash() == CurationConfig().config_hash()


def test_listed_backend_kinds_are_the_tables():
    text = " ".join(README.split())
    enhancers, vads = re.search(r"Enhancer kinds are (.*?); VAD kinds are (.*?)\.", text).groups()
    # each kind in backticks, then its parameters' names in parentheses
    listed = {kind: sorted(re.findall(r"`(\w+)`", params))
              for kind, params in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", enhancers)}
    assert listed == {kind: sorted(params) for kind, params in ENHANCER_PARAMS.items()}
    assert re.findall(r"`(\w+)`", vads) == list(VAD_PARAMS)


def test_listed_subcommands_are_the_parsers():
    listed = re.findall(r"^speechmine (\S+)", _block("Subcommands", "sh"), re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)
