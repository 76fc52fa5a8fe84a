"""Set-up probe: a fresh interpreter imports the CLI and parses the configs.

Usage: python3 probe.py <config.json> ...

Prints {"import_s": ...}, the time `import negdep_qmc.cli` took inside the
interpreter. The caller times the whole launch, which is the set-up time.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import import_program  # noqa: E402

t0 = time.perf_counter()
nq = import_program(os.path.dirname(HERE))
import_s = time.perf_counter() - t0
cli = nq.cli
for path in sys.argv[1:]:
    with open(path) as fh:
        cfg = json.load(fh)
    if "scheme" in cfg:
        cli.parse_scheme(cfg["scheme"])
    for key in ("a_box", "b_box"):
        if cfg.get(key) is not None:
            cli.parse_box(cfg[key])
    if "weights" in cfg:
        cli.parse_weights(cfg["weights"])
print(json.dumps({"import_s": import_s}))
