"""One set-up in a fresh process: import kdalign, load the config, load the CSV.

Usage: python3 setup_child.py SRC_DIR INI CSV [section.key=value ...]
Prints the seconds from before the first kdalign import to the loaded
dataset as one JSON object.  Interpreter start-up itself is not included.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    src, ini, csv_path, *overrides = argv
    sys.path.insert(0, src)
    from kdalign import config, evaluate, experiment, train  # noqa: F401  (import cost is set-up)

    config.load_config(ini, [tuple(item.split("=", 1)) for item in overrides])
    data = evaluate.load_csv(csv_path)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "rows": data.n_samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
