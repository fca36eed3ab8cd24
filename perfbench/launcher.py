"""Runs one of the program's HTTP servers for the benchmark.

Usage: python perfbench/launcher.py <ledger.json|-> <chrome.json|-> -- <repro args>

With a ledger path, the layer wrappers are installed before the server
starts, and when the server stops (SIGTERM) the ledger of every op but the
client's warm-up request, op 1, is written there.  With ``-`` nothing is
installed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def main(argv: list[str]) -> int:
    ledger_path, chrome_path = argv[:2]
    repro_args = argv[argv.index("--") + 1:]
    ledger = None
    if ledger_path != "-":
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    from repro.cli import main as repro_main

    code = repro_main(repro_args)
    if ledger is not None:
        Path(ledger_path).write_text(json.dumps(ledger.summary(skip_ops=1)))
        if chrome_path != "-":
            ledger.write_chrome_trace(chrome_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
