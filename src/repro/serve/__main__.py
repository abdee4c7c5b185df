"""``python -m repro.serve`` — boot the contraction server.

Configuration comes from the ``REPRO_SERVE_*`` environment (strictly
parsed; a typo, in a value or a name, refuses to boot: exit 2) with
``--host``/``--port`` overrides for convenience.  Prints
``REPRO_SERVE_READY host:port`` once the socket is listening, runs
until SIGTERM/SIGINT, drains, and exits 0 on a clean drain, 1 on a
forced one.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import ConfigError
from repro.serve.app import serve_forever
from repro.serve.config import ServeConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = ServeConfig.from_env()
    except ConfigError as exc:
        print(f"repro.serve: {exc}", file=sys.stderr)
        return 2
    if args.host is not None:
        config.host = args.host
    if args.port is not None:
        config.port = args.port
    clean = asyncio.run(serve_forever(config))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
