"""``repro serve`` with the benchmark's tracer installed.

Usage::

    python bench/serve_traced.py --spans OUT.npz serve --unix PATH [serve flags]

Installs the same wrappers as an in-process traced run (plus the
daemon's own entry points, ``spans.DAEMON_LAYERS``), then runs the
``serve`` subcommand of ``repro.__main__`` unchanged. When the daemon
exits (SIGTERM), the spans go to ``OUT.npz`` and the daemon Session's
cache statistics and GC pauses to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import DAEMON_LAYERS, LAYERS, GcPauses, Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    args, serve_argv = parser.parse_known_args(argv)

    from repro.__main__ import main as repro_main
    from repro.common.cache import global_cache
    from repro.serve.server import ReproServer

    servers: list[ReproServer] = []
    original_init = ReproServer.__init__

    def capturing_init(self, *init_args, **init_kwargs):
        original_init(self, *init_args, **init_kwargs)
        servers.append(self)

    tracer = Tracer()
    pauses = GcPauses()
    ReproServer.__init__ = capturing_init
    tracer.install(LAYERS)
    tracer.install(DAEMON_LAYERS)
    pauses.start()
    try:
        code = repro_main(serve_argv)
    finally:
        pauses.stop()
        tracer.uninstall()
        ReproServer.__init__ = original_init
    tracer.save(args.spans)
    stats = {
        "cache": servers[0].session.cache_stats() if servers else {},
        "tile-format": global_cache().stats().get("tile-format", {}),
        "gc": pauses.summary(),
    }
    args.spans.with_suffix(".json").write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
