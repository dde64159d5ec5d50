"""sslcl benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 40 --trace 0

Runs the workload's set-up once, then repeats whole rounds of it until the
next round would end past --seconds, checks the last round's outputs and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, medians over the rounds;
with --trace 1 the program is traced and the metrics are per layer, and
the spans go to perfbench/runs/trace-<workload>-seed<seed>.json.gz.
See perfbench/README.md.
"""

import os
import sys

# A fixed environment, set before numpy loads: one BLAS thread, so that the
# two --jobs workers of the ablation use at most two cores, and no seed
# override for the CLI.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SSLCL_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "train_samples_per_s": "samples/s",
                    "peak_rss_mb": "MB"}


def process_age_s() -> float:
    """Seconds since this process started, by the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _SCRIPT_START


_SCRIPT_START = time.perf_counter()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-batch", "large-batch", "ablation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sslcl from this checkout's source tree, never from elsewhere."""
    if not (SRC / "sslcl" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sslcl sources under {SRC}; run it from a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sslcl
    if Path(sslcl.__file__).resolve().parent != (SRC / "sslcl").resolve():
        raise SystemExit(f"benchmark: sslcl imported from {sslcl.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    runs = HERE / "runs"
    work = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer().install() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, work)
        setup_s = process_age_s()

        rounds, failed = [], 0
        start = time.perf_counter()
        while True:
            # Every round starts from the same heap, so that the peak RSS does
            # not depend on how many rounds fit (a step's tape is a reference
            # cycle that only the collector frees). Only the last round's
            # outputs are kept.
            gc.collect()
            try:
                finished = workload.run_round(len(rounds))
                if rounds:
                    rounds[-1].outputs = None
                rounds.append(finished)
            except (ArithmeticError, ValueError, RuntimeError, OSError) as err:
                print(f"benchmark: a round failed: {err!r}", file=sys.stderr)
                failed += workload.ops_per_round
            if not rounds:
                return 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in rounds)
            if elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(r.ops for r in rounds) + failed

        end_to_end = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "train_samples_per_s": statistics.median(r.rows / r.train_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            tracer.uninstall()
            spans, ops = tracer.spans(), tracer.op_counts()
            layer = tracing.layer_metrics(spans, ops)
            tracing.write_trace(runs / f"trace-{args.workload}-seed{args.seed}.json.gz", tracer,
                                layer, {"workload": args.workload, "seed": args.seed,
                                        "rounds": len(rounds), "traced_end_to_end": end_to_end})
            metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                       for name, value in layer.items()}
        else:
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end.items()}

        problems = workload.check(rounds[-1])
        for problem in problems:
            print(f"benchmark: check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
