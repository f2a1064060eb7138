"""One workload iteration in a fresh interpreter.

Usage: python3 child.py PLAN.json

PLAN.json holds {"commands": [[cli args], ...], "result": path, "spans": path or
null}. The process imports ``centereffects.cli`` first, so the parent can time
interpreter start plus import, then runs the commands one after another through
``centereffects.cli.main`` and writes a result file: the import-finished clock
reading, the wall time of the commands, their exit codes and the peak RSS. With
a spans path it installs the layer tracer before the first command and dumps
the spans afterwards.
"""
import sys
import time

import centereffects.cli as cli

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402  (imported after the timed import on purpose)
import resource  # noqa: E402


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["spans"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    codes = []
    start = time.perf_counter()
    for argv in plan["commands"]:
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(plan["spans"])
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "exit_codes": codes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
