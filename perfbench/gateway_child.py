"""Traced gateway process: ``python -m repro.gateway`` with layer wrappers.

Usage::

    python3 perfbench/gateway_child.py SPANS.json [repro.gateway options...]

Installs the layer wrappers, serves exactly as ``python -m repro.gateway``
would, and on SIGINT (the gateway's own clean shutdown) writes every
recorded span and counter to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from repro.gateway.__main__ import main as serve

    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        return serve(argv[1:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
