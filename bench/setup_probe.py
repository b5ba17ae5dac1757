"""Time one cold set-up: import ``steinmac.cli`` in this fresh interpreter,
then parse every input file a workload run uses.

    python3 bench/setup_probe.py MANIFEST.json

MANIFEST.json is a list of [loader, path] pairs with loader one of
``problem``, ``kernel`` or ``config``. Prints the seconds taken.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(manifest: str) -> None:
    inputs = json.loads(Path(manifest).read_text())
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from steinmac import cli

    loaders = {"problem": cli.load_problem, "kernel": cli.load_dmmac,
               "config": cli.load_config}
    for loader, path in inputs:
        loaders[loader](path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
