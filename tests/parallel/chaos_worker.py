"""A sweep worker with a chaos schedule armed.

A ``FleetSpec`` launches it in place of the plain worker, with the
repository root on the children's ``PYTHONPATH``::

    {python} -m tests.parallel.chaos_worker --spec FILE --index {index}
        -- --listen {listen} --heartbeat-s {heartbeat_s} --quiet

Everything after ``--`` goes to ``repro.parallel.worker.main``
unchanged; the controller is armed first, as fleet role ``--index``.
Each role is armed once per spec file: a supervisor-restarted
incarnation of the role runs clean, so a soak shows the fleet healing
rather than being hurt again on every restart.
"""

import argparse
import os
import sys
from typing import List, Optional

from repro.parallel import worker
from tests.parallel.chaos import ChaosController, ChaosSpec, arm


def first_incarnation(spec_path: str, index: int) -> bool:
    """Claim role ``index`` of ``spec_path``; False once it was claimed.

    The claim is a marker file beside the spec, created with
    ``O_EXCL``, so it holds across the processes a restart spawns.
    """
    marker = f"{spec_path}.armed.{index}"
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="python -m tests.parallel.chaos_worker")
    parser.add_argument("--spec", metavar="FILE", required=True,
                        help="ChaosSpec JSON file")
    parser.add_argument("--index", type=int, required=True,
                        help="this worker's fleet role")
    args = parser.parse_args(argv[:split])
    if first_incarnation(args.spec, args.index):
        arm(ChaosController(ChaosSpec.from_file(args.spec), args.index))
    return worker.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())
