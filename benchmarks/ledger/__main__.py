"""``python -m benchmarks.ledger`` — see :mod:`benchmarks.ledger.cli`."""

import sys

from benchmarks.ledger.paths import require_program

if __name__ == "__main__":
    require_program()
    from benchmarks.ledger.cli import main

    sys.exit(main())
