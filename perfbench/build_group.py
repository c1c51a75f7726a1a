"""Set-up child: import steinberg and build one Weyl group, nothing else.

    PYTHONPATH=src python3 perfbench/build_group.py D5 [--tracemalloc]

Prints one JSON line: the imported package file and, with ``--tracemalloc``,
the peak bytes allocated inside ``enumerate_weyl``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import steinberg
from steinberg import cartan_from_name, enumerate_weyl, root_system


def main(argv) -> int:
    type_name, *flags = argv
    roots = root_system(cartan_from_name(type_name))
    record = {"steinberg_file": steinberg.__file__}
    if "--tracemalloc" in flags:
        tracemalloc.start()
        enumerate_weyl(roots)
        record["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        enumerate_weyl(roots)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
