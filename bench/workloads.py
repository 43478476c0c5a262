"""The three workloads: each set-up turns a seed into a fixed list of
operations, each operation knows how to check its answer.

An operation's ``run`` is the only part that is timed. Its ``check`` gets
the answer and the answers of the whole pass (the invariance cases compare
against the untransformed draw) and raises CheckError on a wrong answer;
references are computed on first use, outside every timed region, by
``checks``, which does not call wedgespec.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import checks
import wedgespec as ws
from checks import expect

KERNELS = ("green_string", "gaussian", "cauchy")

# large-grid: sizes where analyze takes the implicit wedge route (pair
# dimension above 1000) and the order-2 certificate is sampled (C(n,2)^2
# above the 10^7 minor budget), so matvecs and the dense eigensolve dominate.
LARGE_GRIDS = (("green_string", 200), ("green_string", 400), ("gaussian", 300),
               ("gaussian", 600), ("cauchy", 250))

# small-exact: either side of the dense/implicit wedge switch (44 | 46) and
# of the exhaustive order-2 range (80 | 96).
SMALL_GRIDS = (20, 44, 46, 80, 96)
# Three small draws: their 13 operations take a few milliseconds each, so
# their seed-dependent cost stays a small share of a pass.
OSCILLATORY_SIZES = (4, 7, 10)

# The two operations that fail today (see the README).
PLANTED_N, PLANTED_AT, PLANTED_MINOR = 100, 50, -5e-8
SCALED_SEED, SCALED_N, SCALED_POWER = 3, 6, -24

# cli-batch sizes: generated matrices, compound order, kernel grids, and the
# verify sizes whose product multisets hold 256 and 276 values. The decay of
# the tabulated kernel exp(-c|t-s|) is fixed: it sets the number of wedge
# power-iteration steps, which then does not depend on the seed.
CLI_N, CLI_COMPOUND_ORDER, CLI_GREEN_GRID, CLI_TABLE_GRID = 8, 3, 128, 64
CLI_TABLE_DECAY = 2.0
CLI_VERIFY = ((1, 16, 3), (2, 24, 3))

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation of a pass. ``known_fault`` names the fault an operation
    exposes when it is expected to fail until that fault is mended."""

    name: str
    run: Callable
    check: Callable
    known_fault: Optional[str] = None


def _draw_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------- in-process

def _analyze(m):
    """An ``analyze`` call on a matrix built at set-up. ``ws.analyze`` is
    looked up at call time, so the tracer's wrapper is seen only while it
    is installed."""
    return lambda: ws.analyze(m)


def _grid_op(name, n):
    m = ws.discretize(ws.builtin_kernel(name), n).discretized
    closed = checks.GREEN_CLOSED_FORMS if name == "green_string" else None
    ref = cache(lambda: checks.SymmetricRef(m, closed))
    return Op(f"{name}-{n}", _analyze(m),
              lambda r, _: checks.check_grid(checks.report_fields(r), ref()))


def setup_large_grid(seed, workdir):
    """The grids hold nothing random, so the seed changes nothing. The order
    is fixed too: the peak resident set depends on it (112.5, 115.7 or
    119.5 MB over seed-shuffled orders)."""
    del seed, workdir
    return [_grid_op(name, n) for name, n in LARGE_GRIDS]


def _planted_op():
    m = ws.discretize(ws.builtin_kernel("green_string"), PLANTED_N).discretized.copy()
    i = PLANTED_AT
    m[i + 1, i + 1] = (m[i, i + 1] * m[i + 1, i] + PLANTED_MINOR) / m[i, i]

    def check(report, _):
        expect(not checks.contiguous_two_minors_ok(m), "planted minor is not negative")
        expect(report.classification == checks.VIOLATED,
               f"classification {report.classification}, expected {checks.VIOLATED}")
    return Op("planted-violation", _analyze(m), check, known_fault="planted-violation")


def _scaled_op():
    base = ws.random_oscillatory(SCALED_N, seed=SCALED_SEED)
    ref = cache(lambda: checks.OscillatoryRef(base))

    def check(report, _):
        r = ref()
        scaled = SimpleNamespace(
            classification=checks.SECOND,
            lambda1=math.ldexp(r.lambda1, SCALED_POWER),
            lambda2=math.ldexp(r.lambda2, SCALED_POWER),
            rho_wedge=math.ldexp(r.rho_wedge, 2 * SCALED_POWER),
        )
        checks.check_second(checks.report_fields(report), scaled, checks.PERRON_RTOL)
    return Op("scaled-oscillatory", _analyze(math.ldexp(1.0, SCALED_POWER) * base), check,
              known_fault="scaled-oscillatory")


def _oscillatory_ops(n, draw_seed):
    """A seeded oscillatory draw with its transpose, its reversal J m J and
    a rescaling by an even power of two."""
    m = ws.random_oscillatory(n, seed=draw_seed)
    k = 2 * int(np.random.default_rng(draw_seed).choice([-4, -3, -2, -1, 1, 2, 3, 4]))
    ref = cache(lambda: checks.OscillatoryRef(m))
    base = f"oscillatory-{n}"

    def check_base(report, _):
        checks.check_second(checks.report_fields(report), ref(), checks.PERRON_RTOL)

    def check_invariant(what, k=None):
        return lambda report, answers: checks.check_invariant(
            checks.report_fields(report), checks.report_fields(answers[base]), what, k)

    return [
        Op(base, _analyze(m), check_base),
        Op(f"{base}-transpose", _analyze(m.T.copy()), check_invariant("transpose")),
        Op(f"{base}-reversal", _analyze(m[::-1, ::-1].copy()), check_invariant("J m J")),
        Op(f"{base}-scaled", _analyze(math.ldexp(1.0, k) * m), check_invariant(f"2^{k} m", k)),
    ]


def setup_small_exact(seed, workdir):
    del workdir
    ops = [_grid_op(name, n) for name in KERNELS for n in SMALL_GRIDS]
    ops += [_planted_op(), _scaled_op()]
    for i, n in enumerate(OSCILLATORY_SIZES):
        ops += _oscillatory_ops(n, _draw_seed(seed, i))
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


# ----------------------------------------------------------------- cli-batch

@dataclass
class CliResult:
    code: int
    out: str
    err: str
    spawned: float = field(compare=False)


class _Cli:
    """``python -m wedgespec.cli ARGS`` in a fresh process; traced runs go
    through the benchmark's launcher instead, which writes spans to a file."""

    def __init__(self, args, workdir):
        self.args = [str(a) for a in args]
        self.workdir = workdir

    def __call__(self, trace_file=None):
        if trace_file is None:
            argv = [sys.executable, "-m", "wedgespec.cli", *self.args]
            env = None
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
            argv = [sys.executable, launcher, *self.args]
            env = dict(os.environ, BENCH_TRACE_FILE=trace_file)
        spawned = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, spawned)


def _write_csv(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")


def _exit(result, code):
    expect(result.code == code,
           f"exit code {result.code}, expected {code}; stderr: {result.err.strip()[-300:]}")


def setup_cli_batch(seed, workdir):
    rng = np.random.default_rng(seed)
    m = ws.random_oscillatory(CLI_N, seed=_draw_seed(seed, 0))
    _write_csv(os.path.join(workdir, "osc.csv"), m)
    planted = m.copy()
    # rows (1,2) x cols (1,2) becomes negative; an oscillatory matrix is
    # positive on its diagonal and first off-diagonals, so this always bites
    planted[2, 2] = 0.999 * m[1, 2] * m[2, 1] / m[1, 1]
    _write_csv(os.path.join(workdir, "planted.csv"), planted)
    with open(os.path.join(workdir, "ragged.csv"), "w", encoding="utf-8") as fh:
        fh.write("1.0,2.0\n3.0\n")
    t = (np.arange(CLI_TABLE_GRID) + 0.5) / CLI_TABLE_GRID
    table = np.exp(-CLI_TABLE_DECAY * np.abs(np.subtract.outer(t, t)))
    _write_csv(os.path.join(workdir, "table.csv"), table)
    gen_seed = int(rng.integers(0, 2 ** 31))
    verify_seed = int(rng.integers(0, 2 ** 31))

    osc_ref = cache(lambda: checks.OscillatoryRef(m))
    green_ref = cache(lambda: checks.SymmetricRef(checks.green_grid(CLI_GREEN_GRID),
                                                  checks.GREEN_CLOSED_FORMS))
    table_ref = cache(lambda: checks.SymmetricRef(table / CLI_TABLE_GRID))

    def cli(args):
        return _Cli(args, workdir)

    def check_generate(r, _):
        _exit(r, 0)
        g = checks.parse_csv(r.out)
        expect(g.shape == (CLI_N, CLI_N), f"generated shape {g.shape}")
        expect(checks.oscillatory(g), "generated matrix is not oscillatory")

    def check_tn_ok(r, _):
        _exit(r, 0)
        expect(" verdict ok " in r.out, f"tn-check output: {r.out.strip()}")
        expect(checks.totally_nonnegative(m, CLI_N), "reference finds a negative minor")

    def check_tn_planted(r, _):
        _exit(r, 1)
        checks.check_witness(r.out, planted)

    def check_text(r, _):
        _exit(r, 0)
        checks.check_second(checks.parse_report_text(r.out), osc_ref(), checks.PERRON_RTOL)

    def check_json(r, answers):
        _exit(r, 0)
        got = checks.parse_report_json(json.loads(r.out))
        checks.check_second(got, osc_ref(), checks.PERRON_RTOL)
        text = answers["analyze-text"]
        expect(text.code != 0 or got == checks.parse_report_text(text.out),
               "text and JSON reports disagree")

    def check_compound(r, _):
        _exit(r, 0)
        checks.check_compound(r.out, m, CLI_COMPOUND_ORDER)

    def check_kernel(ref):
        def check(r, _):
            _exit(r, 0)
            doc = json.loads(r.out)
            expect(doc["kernel_certificate"]["verdict"] is True,
                   "sampled kernel check rejected a totally positive kernel")
            checks.check_grid(checks.parse_report_json(doc["analysis"]), ref())
        return check

    def check_verify(r, _):
        _exit(r, 0)
        expect("all_matched: True" in r.out, f"verify output: {r.out.strip()}")

    def check_ragged(r, _):
        _exit(r, 2)
        expect(r.out == "" and r.err.startswith("error:"), f"input error output: {r.err!r}")

    def check_repeat(r, answers):
        check_json(r, answers)
        expect(r.out == answers["analyze-json"].out, "repeated command printed other bytes")

    ops = [
        Op("generate", cli(["generate", "--n", CLI_N, "--seed", gen_seed, "--oscillatory"]),
           check_generate),
        Op("tn-check-ok", cli(["tn-check", "osc.csv", "--order", CLI_N]), check_tn_ok),
        Op("tn-check-planted", cli(["tn-check", "planted.csv", "--order", CLI_N]),
           check_tn_planted),
        Op("analyze-text", cli(["analyze", "osc.csv"]), check_text),
        Op("analyze-json", cli(["analyze", "osc.csv", "--format", "json"]), check_json),
        Op("compound", cli(["compound", "osc.csv", "--order", CLI_COMPOUND_ORDER]),
           check_compound),
        Op("kernel-builtin", cli(["kernel", "--name", "green_string", "--grid", CLI_GREEN_GRID,
                                  "--format", "json"]), check_kernel(green_ref)),
        Op("kernel-file", cli(["kernel", "--file", "table.csv", "--grid", CLI_TABLE_GRID,
                               "--format", "json"]), check_kernel(table_ref)),
        *[Op(f"verify-{th}", cli(["verify", "--theorem", th, "--n", n, "--trials", trials,
                                  "--seed", verify_seed]), check_verify)
          for th, n, trials in CLI_VERIFY],
        Op("input-error", cli(["analyze", "ragged.csv"]), check_ragged),
    ]
    # The repeat runs last so that it always follows the command it repeats.
    order = [ops[i] for i in rng.permutation(len(ops))]
    return order + [Op("analyze-json-repeat", cli(["analyze", "osc.csv", "--format", "json"]),
                       check_repeat)]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    in_process: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("large-grid", setup_large_grid, True),
        Workload("small-exact", setup_small_exact, True),
        Workload("cli-batch", setup_cli_batch, False),
    )
}
