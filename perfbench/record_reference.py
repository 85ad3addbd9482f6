"""Record the reference values the compare_dense and certify_norms checks
compare against, from the gltkit in ``./src``.

Run from the root of a checkout whose results are trusted::

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``.  Re-recording at a later commit
hides any change that commit made to the results, so do it only when a
change to the recorded values is the point, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

from run import pin_threads  # noqa: E402
from workloads import (COMPARE_CASES, SIZES, Session, certify_argv, compare_argv,  # noqa: E402
                       compare_gaps, import_gltkit, parse_certify)


def main():
    pin_threads()
    session = Session(import_gltkit(), {})
    ref = {"compare_dense": {}, "certify_norms": {}}
    for size in SIZES:
        gaps = {}
        for case, coeff in COMPARE_CASES:
            rc, out = session.cli(compare_argv(case, coeff, size))
            if rc != 0:
                raise SystemExit(f"compare {case} exited {rc}")
            for key, g in compare_gaps(json.loads(out)).items():
                if g.pop("rearrangement_error") is not None:
                    raise SystemExit(f"compare {key}: rearrangement error")
                gaps[key] = g
        ref["compare_dense"][size] = gaps
        rc, out = session.cli(certify_argv(size, 0))
        lines = parse_certify(out)
        if rc != 0 or any(mark != "PASS" for mark, *_ in lines):
            raise SystemExit("certify did not pass")
        ref["certify_norms"][size] = {"checks": len(lines)}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
