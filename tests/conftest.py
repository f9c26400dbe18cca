import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

# Make the shared fixture-data module and the uninstalled package importable
# from any test, and the package importable by the ``python -m tbforge``
# child processes the CLI tests start.
sys.path[:0] = [str(TESTS), SRC]
inherited = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + os.pathsep + inherited if inherited else SRC
