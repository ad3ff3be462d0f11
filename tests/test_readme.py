"""README's "Library use" section is the package's documented surface:
its examples run as written, and it names exactly what `modalmetric`
exports."""

import os
import re

import modalmetric

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use():
    """The text of README's "Library use" section."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
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
