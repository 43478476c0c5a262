"""wedgespec benchmark: closed-loop workloads, checked answers, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload large-grid|small-exact|cli-batch \
        --seed N --seconds S --trace 0|1

One operation runs at a time, and a run repeats whole passes over the
workload's operation list until ``--seconds`` have gone by. Every answer is
checked against a reference the package does not compute (see checks.py).
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run and the tracing overhead against untraced passes of the same run. Metric
names and units are read from BENCHMARK.json. Details of each run go to
bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

# One BLAS thread, for this process and every CLI process it starts: on a
# shared machine a second thread only adds run-to-run noise. This must be
# set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Tally:
    """Counts attempted and failed operations and keeps the failure messages.

    An operation fails when it raises or its check rejects the answer, or
    when its answer differs from the one it gave in the first pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}
        self._first = {}

    def check(self, op, answers):
        from checks import CheckError, expect

        self.attempted += 1
        answer = answers[op.name]
        try:
            if isinstance(answer, Exception):
                raise CheckError(f"raised {type(answer).__name__}: {answer}")
            op.check(answer, answers)
            expect(answer == self._first.setdefault(op.name, answer),
                   "answer differs from the first pass")
        except Exception as exc:  # a malformed answer can break any parser
            self.failed += 1
            message = f"{op.name}: {type(exc).__name__}: {exc}"
            if op.known_fault is None:
                self.unexpected.append(message)
            else:
                self.known[op.known_fault] = message


class Runner:
    def __init__(self, workload, seed, workdir, tracer):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tally = Tally()
        self.ops = None
        self.op_times = {}

    def setup(self):
        """One timed set-up. Every set-up of a run builds the same
        operations; the passes run the first list built."""
        start = time.perf_counter()
        ops = self.workload.setup(self.seed, self.workdir)
        seconds = time.perf_counter() - start
        if self.ops is None:
            self.ops = ops
        return seconds

    def one_pass(self, traced):
        """Run every operation once, timed one by one, then check them all."""
        answers, calls = {}, []
        spans_file = os.path.join(self.workdir, "spans.json")
        for op in self.ops:
            if self.tracer:
                self.tracer.op = op.name
            args = () if self.workload.in_process else ((spans_file if traced else None),)
            start = time.perf_counter()
            try:
                answer = op.run(*args)
            except Exception as exc:  # counted as a failed operation
                answer = exc
                traceback.print_exc(file=sys.stderr)
            calls.append(time.perf_counter() - start)
            if traced and args and not isinstance(answer, Exception):
                self.tracer.absorb(spans_file, answer.spawned)
            answers[op.name] = answer
        for op, seconds in zip(self.ops, calls):
            self.tally.check(op, answers)
            self.op_times.setdefault(op.name, []).append(seconds)
        return sum(calls), calls


def tail_percentile(samples):
    """The highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for pct in (90, 99):
        if len(samples) * (100 - pct) / 100 >= 10:
            best = (f"p{pct}", statistics.quantiles(samples, n=100)[pct - 1])
    return best


def end_to_end(runner, seconds):
    """A set-up and a warm-up pass, then a set-up and a timed pass in turn
    until ``seconds`` have gone by since the warm-up began (at least one
    timed pass). Set-ups spread over the run sample the machine's speed
    as the passes do. The warm-up pays first-call costs (lazy imports, cold
    caches); its answers are checked, but its times are not reported."""
    setup_times = [runner.setup()]
    deadline = time.perf_counter() + seconds
    runner.one_pass(traced=False)
    pass_times, call_times = [], []
    while True:
        setup_times.append(runner.setup())
        total, calls = runner.one_pass(traced=False)
        pass_times.append(total)
        call_times.extend(calls)
        if time.perf_counter() >= deadline:
            break
    who = resource.RUSAGE_SELF if runner.workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {"setup_times": setup_times, "pass_times": pass_times,
              "calls": len(call_times), "call_p50": statistics.median(call_times),
              "call_tail": tail_percentile(call_times),
              "op_medians": {name: statistics.median(t) for name, t in runner.op_times.items()},
              "op_times": runner.op_times}
    return metrics, detail


def per_layer(runner, seconds, names):
    """A traced set-up and an untraced warm-up pass, then an untraced pass,
    a traced pass and a traced set-up in turn, so that a drift in machine
    speed does not show up as tracing overhead."""
    tracer = runner.tracer

    def under_trace(fn):
        lo = len(tracer.spans)
        tracer.install()
        try:
            result = fn()
        finally:
            tracer.uninstall()
        return result, (lo, len(tracer.spans))

    setup_ranges = [under_trace(runner.setup)[1]]
    deadline = time.perf_counter() + seconds
    runner.one_pass(traced=False)
    untraced, traced, pass_ranges = [], [], []
    while time.perf_counter() < deadline or not traced:
        untraced.append(runner.one_pass(traced=False)[0])
        (total, _), span_range = under_trace(lambda: runner.one_pass(traced=True))
        traced.append(total)
        pass_ranges.append(span_range)
        setup_ranges.append(under_trace(runner.setup)[1])

    setups = [tracing.phase_metrics(tracer.spans, lo, hi) for lo, hi in setup_ranges]
    passes = [tracing.phase_metrics(tracer.spans, lo, hi) for lo, hi in pass_ranges]

    def median_over(phases, name):
        return statistics.median(phase.get(name, 0.0) for phase in phases)

    metrics = {}
    for name in names:
        if name == "cli.startup_s":
            value = statistics.median(tracer.startups) if tracer.startups else 0.0
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        else:
            value = median_over(setups, name) + median_over(passes, name)
        metrics[name] = value
    detail = {"untraced_pass_times": untraced, "traced_pass_times": traced,
              "spans": len(tracer.spans)}
    return metrics, detail


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wedgespec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no wedgespec sources or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    import wedgespec

    if Path(wedgespec.__file__).resolve().parent != SRC / "wedgespec":
        print(f"error: imported wedgespec from {wedgespec.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir,
                        tracing.Tracer() if args.trace else None)
        if args.trace:
            values, detail = per_layer(runner, args.seconds, list(units))
            runner.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            values, detail = end_to_end(runner, args.seconds)

    tally = runner.tally
    for message in sorted(set(tally.unexpected))[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": int(round(value)) if unit == "count" else value,
                         "unit": unit}
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), detail=detail,
                  known_faults=tally.known, failures=tally.unexpected)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} blas_threads={env['blas_threads']} "
          f"numpy={env['numpy']} blas={env['blas']!r} nproc={env['nproc']} "
          f"passes={len(detail.get('pass_times') or detail['traced_pass_times'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
