#!/usr/bin/env python3
"""Rewrite bench/reference.json from the current source tree.

For every input of the large and hilbert workloads it computes the
polynomial, runs that workload's gate with the class number and the
polynomial's own digest as the reference (so every check except the
digest comparison is real), and stores the digest only if the gate
passes.  Run it from the root of a checkout, only at a commit whose
polynomials are known to be right:

    python3 bench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from classinv.quadforms import class_number  # noqa: E402

from workloads import WORKLOADS, coefficient_digest  # noqa: E402


def main() -> int:
    reference = {}
    for name in ("large", "hilbert"):
        workload = WORKLOADS[name]
        reference[name] = {}
        for n in workload.inputs:
            result = workload.compute(n)
            entry = {"class_number": class_number(-n),
                     "sha256": coefficient_digest(result.polynomial.coefficients)}
            errors = workload.gate(n, result, entry)
            if errors:
                print(f"{name} n={n}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            reference[name][str(n)] = entry
            print(f"{name} n={n}: h={entry['class_number']} "
                  f"digits={result.precision_digits} {entry['sha256']}")
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
