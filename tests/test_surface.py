"""The names that README "Library surface" documents import from hahnchain,
and the deleted series specs stay deleted."""

import re
from pathlib import Path

import pytest

import hahnchain

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library surface"):]
    block = re.search(r"from hahnchain import \(([^)]*)\)", section)
    assert block, "README Library surface has no `from hahnchain import (...)` block"
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_readme_surface_block_is_parsed():
    names = documented_names()
    assert len(names) == len(set(names)) >= 20
    assert "ChainSpec" in names and "q_diff_residual_2" in names


@pytest.mark.parametrize("name", documented_names())
def test_documented_name_imports(name):
    assert callable(getattr(hahnchain, name, None))


def test_deleted_series_specs_are_gone():
    # the float 3F2 and 3phi2 series specs and their evaluators: the plain
    # family is exact, and the q family is described by _series.QForm
    for module in (hahnchain, hahnchain.special):
        assert [n for n in dir(module) if n.endswith(("SeriesSpec", "_terminating"))] == []
    assert sorted(hahnchain.special.__all__) == ["log_pochhammer", "pochhammer", "q_pochhammer"]
