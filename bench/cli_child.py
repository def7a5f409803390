"""One `fracorder` CLI process, as `python -m fracorder.cli ARGS` would run it.

    PYTHONPATH=src python3 bench/cli_child.py [--spans PATH] ARGS...

Before the CLI runs, the file of the imported fracorder package goes to
stderr, so the caller can check that it lies under the checkout's src/.
With --spans, the layers are traced and the spans are saved to PATH.
"""

import sys

import fracorder

sys.stderr.write(f"bench-fracorder-file: {fracorder.__file__}\n")
args = sys.argv[1:]
if args[:1] == ["--spans"]:
    import json

    import fracorder.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = fracorder.cli.main(args[2:])
    with open(args[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    raise SystemExit(code)

import runpy

sys.argv = ["fracorder", *args]
runpy.run_module("fracorder.cli", run_name="__main__", alter_sys=True)
