"""Start a shard server with the traced run's wrappers installed.

Usage (from the root of a checkout)::

    python3 perfbench/server_launcher.py SPANS.json shardserver --listen ...

Everything after SPANS.json is handed to the ``python -m repro`` entry
point unchanged.  The server's spans are written to SPANS.json when it
shuts down (``SIGTERM`` drains and closes it).
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.require_checkout()
    import spans
    from repro.cli import main as repro_main

    output, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install_server(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(output)


if __name__ == "__main__":
    sys.exit(main())
