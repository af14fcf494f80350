"""A ``repro worker`` with the benchmark's host-speed probe, layer spans or
profiler on.

Usage: ``python3 perfbench/worker.py probe|spans|profile <out-dir> <repro
worker arguments...>``, with ``src/`` on ``PYTHONPATH``. The steal-tiny
workload points the coordinator's worker command here, so sessions
simulated in worker processes are probed, traced or profiled as in-process
ones are. When the worker exits it writes ``<out-dir>/worker-<pid>.probe``
(the time of a probe run after each session, one a line),
``<out-dir>/worker-<pid>.jsonl`` (spans) or ``<out-dir>/worker-<pid>.prof``
(cProfile stats).
"""

import cProfile
import os
import sys


def main(argv):
    mode, out_dir = argv[:2]
    from repro.cli import main as repro_main
    from spans import Tracer

    stem = os.path.join(out_dir, f"worker-{os.getpid()}")
    if mode == "probe":
        from hostspeed import HostSpeed
        from repro.experiments import batch

        speed = HostSpeed()
        execute = batch.execute_spec

        def probed(spec):
            result = execute(spec)
            speed.sample()
            return result

        batch.execute_spec = probed
        try:
            return repro_main(argv[2:])
        finally:
            batch.execute_spec = execute
            with open(stem + ".probe", "w") as handle:
                handle.writelines(f"{took!r}\n" for took in speed.samples)
    if mode == "profile":
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return repro_main(argv[2:])
        finally:
            profiler.disable()
            profiler.dump_stats(stem + ".prof")
    tracer = Tracer().install()
    try:
        return repro_main(argv[2:])
    finally:
        tracer.close()
        tracer.dump(stem + ".jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
