"""Closed-loop CI-gate caller, run in a fresh interpreter by ``run.py``.

Usage: ``python perfbench/gate_loop.py CALLS_JSON RESULT_JSON`` with
``PYTHONPATH=src``. ``CALLS_JSON`` lists ``[rollout, spec, out]`` triples;
each becomes one ``safetrace monitor ROLLOUT SPEC --out OUT -q`` call made
through ``safetrace.cli.main`` after the previous one returned. The result
file gets each call's start (``time.perf_counter``), wall time in seconds
and exit code.
"""

import json
import sys
import time

from safetrace import cli


def main(calls_path: str, result_path: str) -> None:
    with open(calls_path) as stream:
        calls = json.load(stream)
    starts, seconds, codes = [], [], []
    for rollout, spec, out in calls:
        start = time.perf_counter()
        code = cli.main(["monitor", rollout, spec, "--out", out, "-q"])
        seconds.append(time.perf_counter() - start)
        starts.append(start)
        codes.append(code)
    with open(result_path, "w") as stream:
        json.dump({"starts": starts, "seconds": seconds, "codes": codes}, stream)


if __name__ == "__main__":
    main(*sys.argv[1:])
