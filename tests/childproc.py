"""The environment of tests that run the package in a child process."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    child interpreter imports the freetransform under test."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
