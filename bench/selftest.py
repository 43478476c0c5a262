"""Shows that every answer check rejects a wrong answer.

Usage (from the repository root): ``python3 bench/selftest.py``

Runs one pass of the small-exact and cli-batch operations for seed 0 (the
large-grid checks are the small-exact grid checks at other sizes), checks
that every right answer is accepted, then feeds each check a wrong answer
and checks that it is rejected: lambda2 off by one part in 10^6, a flipped
classification, a changed sign-change count, a compound entry, a witness
minor or an exit code that is off, and a repeat that prints other bytes.
Exits 1 if any check accepts a wrong answer or rejects a right one.
"""

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import checks  # noqa: E402
import wedgespec as ws  # noqa: E402
import workloads  # noqa: E402
from wedgespec.positivity import SignChangeCount  # noqa: E402

PPM = 1.0 + 1e-6


def off_by_ppm(report):
    return dataclasses.replace(report, lambda2=report.lambda2 * PPM)


def flipped(report):
    other = checks.VIOLATED if report.classification == checks.SECOND else checks.SECOND
    return dataclasses.replace(report, classification=other)


def more_sign_changes(report):
    s = report.sign_changes_e2
    return dataclasses.replace(report, sign_changes_e2=SignChangeCount(
        s.strict_count + 1, s.vector_length, s.zero_count))


def one_ulp_up(report):
    return dataclasses.replace(report, lambda1=math.nextafter(report.lambda1, math.inf))


def json_edit(edit):
    def mutate(result):
        doc = json.loads(result.out)
        edit(doc.get("analysis", doc))
        return dataclasses.replace(result, out=json.dumps(doc, indent=2) + "\n")
    return mutate


def text_edit(old, new):
    def mutate(result):
        if old not in result.out:
            raise ValueError(f"{old!r} not in the output of {result}")
        return dataclasses.replace(result, out=result.out.replace(old, new, 1))
    return mutate


def exit_code(code):
    return lambda result: dataclasses.replace(result, code=code)


def bump_largest_compound_entry(result):
    table = checks.parse_csv(result.out)
    i, j = divmod(int(abs(table).argmax()), table.shape[1])
    table[i, j] *= PPM
    text = "\n".join(",".join(repr(float(x)) for x in row) for row in table) + "\n"
    return dataclasses.replace(result, out=text)


def bump_witness(result):
    head, value = result.out.rsplit(" value ", 1)
    return dataclasses.replace(result, out=f"{head} value {float(value) * PPM!r}\n")


def scale_lambda2(doc):
    doc["lambda2"] *= PPM


def flip_sign_count(doc):
    doc["sign_changes_e1"]["strict_count"] += 1


WRONG_IN_PROCESS = [
    ("green_string-44", off_by_ppm, "lambda2 off by 1e-6 on a dense-route grid"),
    ("gaussian-96", off_by_ppm, "lambda2 off by 1e-6 on an implicit-route grid"),
    ("cauchy-80", flipped, "flipped classification on a kernel grid"),
    ("green_string-20", more_sign_changes, "sign changes of e2 changed on a kernel grid"),
    ("oscillatory-7", off_by_ppm, "lambda2 off by 1e-6 on an oscillatory draw"),
    ("oscillatory-10", more_sign_changes, "sign changes of e2 changed on an oscillatory draw"),
    ("oscillatory-10-transpose", off_by_ppm, "transpose: lambda2 off by 1e-6"),
    ("oscillatory-4-reversal", flipped, "J m J: flipped classification"),
    ("oscillatory-7-scaled", one_ulp_up, "2^k m: lambda1 one ulp from exact scaling"),
]

WRONG_CLI = [
    ("analyze-json", json_edit(scale_lambda2), "JSON report: lambda2 off by 1e-6"),
    ("analyze-text", text_edit("classification: second_eigenvalue_found",
                               "classification: hypotheses_violated"),
     "text report: flipped classification"),
    ("analyze-text", text_edit("sign_changes_e2: 1 ", "sign_changes_e2: 2 "),
     "text report: sign changes of e2 changed"),
    ("kernel-builtin", json_edit(scale_lambda2), "kernel report: lambda2 off by 1e-6"),
    ("kernel-file", json_edit(flip_sign_count), "kernel report: sign changes of e1 changed"),
    ("compound", bump_largest_compound_entry, "compound entry off by 1e-6"),
    ("tn-check-planted", bump_witness, "witness minor value off by 1e-6"),
    ("tn-check-planted", exit_code(0), "tn-check exit 0 on a planted violation"),
    ("tn-check-ok", exit_code(1), "tn-check exit 1 on a TN file"),
    ("input-error", exit_code(0), "exit 0 on a ragged file"),
    ("verify-2", text_edit("all_matched: True", "all_matched: False"), "verify mismatch"),
    ("generate", exit_code(3), "generate exit 3"),
    ("analyze-json-repeat", text_edit("\n}", " \n}"), "repeat that prints other bytes"),
]


def right_answers_to_known_faults():
    """The answers the two failing operations should give once mended."""
    planted = workloads._planted_op()
    yield (planted, dataclasses.replace(planted.run(), classification=checks.VIOLATED),
           "hypotheses_violated")
    scaled = workloads._scaled_op()
    power = workloads.SCALED_POWER
    unscaled = ws.analyze(ws.random_oscillatory(workloads.SCALED_N, seed=workloads.SCALED_SEED))
    yield (scaled, dataclasses.replace(
        unscaled, lambda1=math.ldexp(unscaled.lambda1, power),
        lambda2=math.ldexp(unscaled.lambda2, power),
        rho_wedge=math.ldexp(unscaled.rho_wedge, 2 * power)),
        "the unscaled verdict with scaled values")


def run_pass(ops):
    return {op.name: op.run() for op in ops}


def judge(op, answers, answer):
    trial = dict(answers, **{op.name: answer})
    try:
        op.check(answer, trial)
    except checks.CheckError:
        return False
    return True


def main():
    bad = 0
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out", prefix="selftest-") as workdir:
        for setup, wrong in ((workloads.setup_small_exact, WRONG_IN_PROCESS),
                             (workloads.setup_cli_batch, WRONG_CLI)):
            ops = {op.name: op for op in setup(0, workdir)}
            answers = run_pass(ops.values())
            for op in ops.values():
                accepted = judge(op, answers, answers[op.name])
                expected = op.known_fault is None
                bad += accepted != expected
                verdict = "accepts" if accepted else "rejects"
                note = f" (today's answer; fault: {op.known_fault})" if op.known_fault else ""
                print(f"{'ok  ' if accepted == expected else 'FAIL'} {verdict} {op.name}{note}")
            for name, mutate, what in wrong:
                accepted = judge(ops[name], answers, mutate(answers[name]))
                bad += accepted
                print(f"{'FAIL' if accepted else 'ok  '} "
                      f"{'accepts' if accepted else 'rejects'} {name}: {what}")
    for op, right, what in right_answers_to_known_faults():
        accepted = judge(op, {}, right)
        bad += not accepted
        print(f"{'ok  ' if accepted else 'FAIL'} {'accepts' if accepted else 'rejects'} "
              f"{op.name} answered {what}")
    print("self-test passed" if not bad else f"self-test FAILED: {bad} wrong verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
