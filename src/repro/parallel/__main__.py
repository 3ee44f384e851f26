"""``python -m repro.parallel`` — the sweep service command line.

The subcommands are listed once, in ``_USAGE`` below (printed by
``--help``); each one parses its own flags.
"""

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro.parallel COMMAND ...

commands:
  worker   serve sweep shards to a SocketExecutor coordinator
  submit   execute a workload JSON file, streaming JSONL results
  serve    accept workload submissions over TCP
  cache    inspect/maintain the shared result store (stats|gc|clear)
  fleet    launch/supervise a self-healing worker fleet (up|status|down)

run `python -m repro.parallel COMMAND --help` for details.
"""


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "worker":
        from repro.parallel.worker import main as worker_main

        return worker_main(rest)
    if command == "submit":
        from repro.parallel.service import submit_main

        return submit_main(rest)
    if command == "serve":
        from repro.parallel.service import serve_main

        return serve_main(rest)
    if command == "cache":
        from repro.parallel.service import cache_main

        return cache_main(rest)
    if command == "fleet":
        from repro.parallel.supervisor import fleet_main

        return fleet_main(rest)
    print(f"python -m repro.parallel: unknown command {command!r}\n",
          file=sys.stderr)
    print(_USAGE, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
