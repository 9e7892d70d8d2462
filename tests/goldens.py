"""Every pinned value of the digest, report and gradcheck tests, read from
``goldens.json``. ``regen_goldens.py`` recomputes them after a change that
moves rounding on purpose."""

import json
from pathlib import Path

PATH = Path(__file__).with_name("goldens.json")
GOLDENS = json.loads(PATH.read_text())
