"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED OUTDIR RESULT_JSON [--trace] [--setup-only]

Imports rosenlab from the checkout's src/, builds the workload's argv lists
and stamps the monotonic clock: the parent measures set-up time from just
before it started this process to that stamp. It then runs each argv through
rosenlab.expcli.main, timing the calls, and writes a JSON result with the
stamp, the command time and the peak resident memory. With --trace the
layer functions are wrapped first (tracer.py), the spans are written to
OUTDIR/spans.csv and the captured X_r values to OUTDIR/statistics.json.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    workload, seed, outdir, result_path = argv[:4]
    flags = set(argv[4:])
    if not os.path.isdir(os.path.join(SRC, "rosenlab")):
        print(f"worker: no rosenlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from rosenlab import expcli

    import workloads

    commands = workloads.commands(workload, int(seed), outdir)
    ready = time.monotonic()
    result = {"ready": ready, "package": os.path.abspath(expcli.__file__)}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        for args in commands:
            code = expcli.main(args)
            if code not in (0, None):
                print(f"worker: {args[:2]} exited {code}", file=sys.stderr)
                return 1
        result["command_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
            tracer.write_spans(os.path.join(outdir, "spans.csv"))
            with open(os.path.join(outdir, "statistics.json"), "w", encoding="utf-8") as fh:
                json.dump({repr(r): v for r, v in tracer.statistics.items()}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
