"""Packaging metadata: ``setup.py`` names the distribution and its version."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def _setup(flag):
    completed = subprocess.run(
        [sys.executable, "setup.py", flag],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.strip().splitlines()[-1]


def test_distribution_name_is_repro():
    assert _setup("--name") == "repro"


def test_version_matches_the_package():
    assert _setup("--version") == repro.__version__
