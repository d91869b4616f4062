"""One repeat of the benchmark's set-up, in a fresh interpreter.

    python3 -S perfbench/setup_once.py PLAN_DIR SRC_DIR

Imports semimc from SRC_DIR, then parses and validates every ``.model``
file in PLAN_DIR, and prints the seconds this took followed by three
calibration times (see worker.py).  Nothing but the interpreter's own
start-up modules is loaded before the timed part, so it pays every import
a command-line user of semimc pays.
"""

import os
import sys
import time


def main():
    plan_dir, src_dir = sys.argv[1:3]
    texts = []
    for fname in sorted(os.listdir(plan_dir)):
        if fname.endswith(".model"):
            with open(os.path.join(plan_dir, fname), encoding="utf-8") as fh:
                texts.append(fh.read())
    sys.path.insert(0, src_dir)

    start = time.perf_counter()
    import semimc
    import semimc.cli  # noqa: F401
    for text in texts:
        semimc.validate(semimc.parse_model(text))
    elapsed = time.perf_counter() - start

    from worker import calibrate
    print(elapsed, *(calibrate() for _ in range(3)))


if __name__ == "__main__":
    main()
