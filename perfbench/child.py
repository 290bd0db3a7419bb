"""Run one denflow command in this fresh interpreter, as a shell user would.

    python3 perfbench/child.py [--trace FILE] [--ref FILE] -- <denflow arguments>

With ``--trace`` the tracer is installed before ``denflow.cli.main`` runs
and its spans are written to FILE afterwards.  With ``--ref`` the
benchmark's reference loop is timed every ``Reference.PERIOD`` seconds of
this process's CPU time, from ``import denflow.cli`` to the end of ``main``,
and the timings go to FILE, so that the parent can measure the command
against the speed of the core it ran on.  The exit code is the command's.
"""

import json
import sys


def main(argv):
    paths = {}
    while argv[:1] in (["--trace"], ["--ref"]):
        paths[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    ref = None
    if "--ref" in paths:
        from reference import Reference

        ref = Reference()
        ref.start()
    try:
        import denflow.cli

        if "--trace" not in paths:
            return denflow.cli.main(argv)
        from tracer import Tracer

        tracer = Tracer().install()
        try:
            code = denflow.cli.main(argv)
        finally:
            tracer.restore()
        tracer.dump(paths["--trace"])
        return code
    finally:
        if ref is not None:
            ref.stop()
            with open(paths["--ref"], "w", encoding="utf-8") as fh:
                json.dump({"times": ref.times, "inside": ref.inside}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
