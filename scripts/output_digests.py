"""Print one ``qid sha256`` line per query of a benchmark workload.

    python scripts/output_digests.py SRC_DIR WORKLOAD SEED [--format text|json]

Builds the workload for SEED with ``perfbench/workloads.py`` (read only),
writes its model files to a temporary directory and runs every query once,
in-process, through ``semimc.cli.main`` imported from SRC_DIR.  Every
workload query ends in ``--format json``; ``--format text`` runs each one
with ``--format text`` instead, so the text output is compared too.  Each digest
covers the query's argv, exit code, standard output and standard error, so
two source trees print the same lines exactly when they answer every query
the same way.  To compare a change with its parent checked out next to it:

    python scripts/output_digests.py ../parent/src prob-kleene 5 > parent.txt
    python scripts/output_digests.py src prob-kleene 5 > change.txt
    diff parent.txt change.txt

An uncaught exception is recorded by its type and message only, without
the traceback, whose file paths differ between source trees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_query(main, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # --help
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:
        code = None
        err.write("".join(traceback.format_exception_only(type(e), e)))
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="directory that holds the semimc package to run")
    p.add_argument("workload", help="perfbench workload name")
    p.add_argument("seed", type=int)
    p.add_argument("--format", choices=("text", "json"), default="json",
                   help="output format each query is run with (default: json, as the workload)")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import workloads
    from semimc import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(args.src) + os.sep):
        return f"semimc was imported from {cli.__file__}, not from {args.src}"

    b = workloads.build(args.workload, args.seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in b.models.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)  # the queries name their model files relative to it
        try:
            for q in b.queries:
                if q.argv[-2] != "--format":
                    return f"{q.qid} does not end in a --format option: {q.argv}"
                argv = q.argv[:-1] + [args.format]
                code, out, err = run_query(cli.main, argv)
                blob = json.dumps([argv, code, out, err]).encode()
                print(q.qid, hashlib.sha256(blob).hexdigest())
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
