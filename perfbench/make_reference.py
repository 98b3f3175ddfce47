"""Write ``reference.json``: the outputs of this checkout on every pooled input.

    python3 perfbench/make_reference.py

Runs every unit of each workload's pool once, untraced, and stores its
outputs by data seed. Regenerate only for a change that is meant to move the
package's numbers, and say so in CHANGES.md; otherwise the reference is what
later commits are checked against.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from reference import REFERENCE_PATH, TOLERANCE
    from workloads import Sizes, make_workload

    sizes = Sizes()
    data = {"tolerance": TOLERANCE}
    for name in run.WORKLOADS:
        workload = make_workload(name, sizes, run.RESULTS / "tmp")
        outputs = {}
        for unit in workload.make_inputs(0):
            result = workload.run(unit)
            if result.failed:
                print(f"{name} {result.key}: {len(result.failed)} failed operations")
                return 1
            outputs[result.key] = result.outputs
        data[name] = dict(sorted(outputs.items(), key=lambda kv: int(kv[0])))
        print(f"{name}: {len(outputs)} reference outputs")
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
