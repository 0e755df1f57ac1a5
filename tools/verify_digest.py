"""Digest of ``clarinet verify all`` stdout over a range of seeds.

    python3 tools/verify_digest.py --first 0 --last 39

Runs ``cli.main(["verify", "all", "--seed", s])`` in this process, with the
checkout's own ``src/``, once per seed in the range.  Per seed it prints the
exit code and the first 16 hex digits of the sha256 of the printed report;
then one sha256 over every seed's report, in seed order.  Two checkouts
whose oracles compute the same bits print the same last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0, help="first seed")
    p.add_argument("--last", type=int, default=39, help="last seed, included")
    args = p.parse_args(argv)
    if not 0 <= args.first <= args.last:
        p.error("need 0 <= --first <= --last")
    sys.path.insert(0, str(ROOT / "src"))
    from clarinet import cli

    total = hashlib.sha256()
    print("seed  exit  sha256")
    for seed in range(args.first, args.last + 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all", "--seed", str(seed)])
        text = out.getvalue().encode()
        total.update(text)
        print("%4d  %4d  %s" % (seed, code, hashlib.sha256(text).hexdigest()[:16]),
              flush=True)
    print("all seeds %d-%d: %s" % (args.first, args.last, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
