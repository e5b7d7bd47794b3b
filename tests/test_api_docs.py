"""docs/API.md names only what the packages export.

Each ``## `repro.X``` section's tables list names importable from
``repro.X``.  Every bare identifier in a row's first cell must be in
``repro.X.__all__``; a module without ``__all__`` (the sections for
``repro.obs.analyze``, ``repro.obs.bench``, ``repro.obs.ops`` and
``repro.schema``) exports its public attributes plus what its package
re-exports.  A deleted name therefore cannot linger in the docs.
"""

import importlib
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"
TEXT = API_MD.read_text(encoding="utf-8")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _sections() -> dict[str, str]:
    """``{module name: section body}`` for every ``## `repro...``` heading."""
    found = re.findall(
        r"^## `(repro(?:\.\w+)*)`[^\n]*\n(.*?)(?=^## |\Z)",
        TEXT,
        flags=re.MULTILINE | re.DOTALL,
    )
    return dict(found)


def _first_cell_names(section: str) -> list[str]:
    names = []
    for line in section.splitlines():
        if not line.startswith("|") or line.startswith(("|---", "| Name")):
            continue
        first_cell = line.split("|")[1]
        names += [
            span for span in re.findall(r"`([^`]*)`", first_cell)
            if IDENTIFIER.fullmatch(span)
        ]
    return names


def _exported(module_name: str) -> set[str]:
    module = importlib.import_module(module_name)
    if hasattr(module, "__all__"):
        return set(module.__all__)
    package = importlib.import_module(module_name.rpartition(".")[0])
    public = {name for name in vars(module) if not name.startswith("_")}
    return public | set(package.__all__)


SECTIONS = _sections()


def test_every_package_section_is_found():
    assert {"repro", "repro.video", "repro.p2p", "repro.obs"} <= set(SECTIONS)


@pytest.mark.parametrize("module_name", sorted(SECTIONS))
def test_table_names_are_exported(module_name):
    missing = [
        name for name in _first_cell_names(SECTIONS[module_name])
        if name not in _exported(module_name)
    ]
    assert missing == [], f"docs/API.md lists unexported {missing}"


def test_top_level_import_block_executes():
    (block,) = re.findall(
        r"```python\n(from repro import \(.*?\)\n)```", TEXT, flags=re.DOTALL
    )
    exec(compile(block, str(API_MD), "exec"), {})
