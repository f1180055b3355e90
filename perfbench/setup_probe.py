"""Set-up probe: import the CLI, build its parser and parse the prelude.

``run.py`` starts this in a fresh interpreter and times it until the
``ready`` line, which is what ``setup_s`` reports.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from effectdiagrams import cli, lang  # noqa: E402

cli.build_parser()
lang.default_defs()
print("ready", flush=True)
