"""Paths to the bundled four-program dataset shipped with the package."""

from __future__ import annotations

from pathlib import Path

PROGRAM_FILES = ("taiko.txt", "mantle.txt", "arbitrum-stip.txt", "optimism.txt")

#: The package data lives beside this module; ``importlib.resources`` would
#: find the same directory but loads ``typing``, ``tempfile`` and ``shutil``.
_DATA_ROOT = Path(__file__).parent / "data"


def bundled_program_paths() -> list[Path]:
    root = _DATA_ROOT / "programs"
    return [root / name for name in PROGRAM_FILES]


def bundled_category_table_path() -> Path:
    return _DATA_ROOT / "category_scores.txt"
