"""README's "Library use" section is the package's documented surface:
its examples run as written, and it names exactly what `modalmetric`
exports. Its table of config keys is exactly `config.SCHEMA`, and it
names every method tag, and every command line in its `sh` blocks
parses."""

import os
import re
import shlex

import modalmetric
from modalmetric.cli import build_parser
from modalmetric.config import SCHEMA
from modalmetric.training import METHOD_RECIPES

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text():
    with open(README, encoding="utf-8") as f:
        return f.read()


def library_use():
    """The text of README's "Library use" section."""
    text = readme_text()
    start = text.index("## Library use")
    return text[start:text.index("\n## ", start)]


def python_blocks(section):
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in python_blocks(library_use()):
        exec(compile(block, README, "exec"), namespace)


def test_exports_are_the_documented_names():
    section = library_use()
    imported = set()
    for block in python_blocks(section):
        for group, line in re.findall(
                r"from modalmetric import (?:\(([^)]*)\)|(.*))", block):
            imported.update(re.findall(r"\w+", group + line))
    exported = set(modalmetric.__all__)
    assert imported and imported <= exported, imported - exported
    assert exported <= set(re.findall(r"\w+", section)), (
        exported - set(re.findall(r"\w+", section)))


def test_settings_table_is_the_schema():
    table = {(section, key): (kind, default) for section, key, kind, default
             in re.findall(r"^\| (\w+) \| `(\w+)` \| (\w+) \| (.*?) \|$",
                           readme_text(), re.M)}
    schema = {(section, key): spec for section, keys in SCHEMA.items()
              for key, spec in keys.items()}
    assert table.keys() == schema.keys(), table.keys() ^ schema.keys()
    for name, (kind, default) in schema.items():
        assert table[name][0] == kind.__name__, name
        assert kind(table[name][1]) == default, name


def test_names_every_method_tag():
    named = set(re.findall(r"`([\w+-]+)`", readme_text()))
    assert METHOD_RECIPES.keys() <= named, METHOD_RECIPES.keys() - named


def test_command_lines_parse():
    # parsed, not run: a flag the CLI no longer takes fails here
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme_text(),
                                           re.S)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("modalmetric ")]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
