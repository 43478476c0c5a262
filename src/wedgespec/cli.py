"""Command-line surface wiring the modules together.

Exit codes are a stable contract: 0 success, 1 property or verdict failure,
2 input error, 3 numerical failure. All randomness flows from the explicit
--seed flag, and numbers are emitted via shortest round-trip decimals, so a
repeated invocation with identical flags produces byte-identical output.

Every ``cmd_*`` function takes the parsed arguments and returns
``(exit code, document, text)``: the document is what ``--format json``
encodes, and ``text`` is a zero-argument callable rendering the text
report, called only when that format is chosen. ``main`` alone picks the
format and writes the result to ``--out`` or stdout, so both targets get
the same bytes; a command that raises writes nothing.
"""

import argparse
import json
import sys

import numpy as np

from . import compound as compound_mod
from . import gk, kernel, positivity, spectra
from .errors import (
    ConvergenceError,
    DegeneratePerronError,
    GenerationError,
    ResourceLimitError,
    ValidationError,
    ZeroVectorError,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _load_matrix(path):
    """Read a matrix from CSV (comma-separated rows) or JSON {"data": ...}."""
    return kernel._read_table(path, "data")[0]


def _csv_rows(m):
    return [",".join(repr(float(x)) for x in row) for row in np.asarray(m)]


def _json_doc(doc):
    """``doc`` as indented JSON; reports, certificates, complex numbers and
    arrays inside it are encoded by ``gk._to_json``."""
    return json.dumps(gk._to_json(doc), indent=2) + "\n"


def _fmt_complex(z):
    return repr(complex(z))


def _lines(lines):
    return "\n".join(lines) + "\n"


def _certificate_lines(label, cert):
    lines = [
        f"{label}: order {cert.order_checked} verdict "
        f"{'ok' if cert.verdict else 'VIOLATED'} "
        f"({cert.minors_evaluated} minors, {cert.mode})"
    ]
    if cert.witness is not None:
        lines.append(
            f"{label} witness: rows {list(cert.witness.rows)} "
            f"cols {list(cert.witness.cols)} value {cert.witness.value!r}"
        )
    return lines


def _report_lines(report):
    lines = [
        f"classification: {report.classification}",
        f"lambda1: {report.lambda1!r}",
        f"lambda2: {'none' if report.lambda2 is None else repr(report.lambda2)}",
        f"rho_wedge: {report.rho_wedge!r}",
        f"residual_theorem3: {report.residual_theorem3!r}",
        f"circle_count: {report.circle_count} (circle_tol {report.circle_tol!r})",
    ]
    if report.complex_pair is not None:
        a, b = report.complex_pair
        lines.append(f"complex_pair: {_fmt_complex(a)} {_fmt_complex(b)}")
    for name, s in (("e1", report.sign_changes_e1), ("e2", report.sign_changes_e2)):
        if s is not None:
            lines.append(
                f"sign_changes_{name}: {s.strict_count} "
                f"(length {s.vector_length}, zeros discarded {s.zero_count})"
            )
    c1, c2 = report.hypothesis_certificates
    lines.extend(_certificate_lines("hypothesis_order_1", c1))
    lines.extend(_certificate_lines("hypothesis_order_2", c2))
    lines.append("spectrum: " + " ".join(_fmt_complex(z) for z in report.spectrum))
    lines.append(f"tolerance: {report.tolerance!r}")
    return lines


def cmd_analyze(args):
    m = _load_matrix(args.input)
    report = gk.analyze(m, tol=args.tol, circle_tol=args.circle_tol, seed=args.seed)
    return EXIT_OK, gk.report_to_dict(report), lambda: _lines(_report_lines(report))


def cmd_compound(args):
    m = _load_matrix(args.input)
    c = compound_mod.compound_matrix(m, args.order, force=args.force)
    return EXIT_OK, {"data": c}, lambda: _lines(_csv_rows(c))


def cmd_tn_check(args):
    m = _load_matrix(args.input)
    if args.samples is not None and not args.sample:
        raise ValidationError("--samples sets the size of a sampled check (--sample)")
    cert = positivity.is_totally_nonnegative(
        m, args.order, tol=args.tol, sample=args.sample,
        samples=200 if args.samples is None else args.samples, seed=args.seed,
    )
    code = EXIT_OK if cert.verdict else EXIT_VERDICT
    return code, cert, lambda: _lines(_certificate_lines("tn_check", cert))


def cmd_kernel(args):
    if args.name:
        spec = kernel.builtin_kernel(args.name, args.param)
    elif args.param is not None or args.rule is not None:
        # a tabulated kernel has no width, and its weights come from its nodes
        raise ValidationError("--param and --rule need a builtin kernel (--name), not --file")
    else:
        spec = kernel.load_kernel(args.file)
    grid = kernel.discretize(spec, args.grid, rule=args.rule or "midpoint")
    cert = kernel.kernel_tn_check(
        spec,
        sample_nodes=args.grid,
        order=args.order,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
    )
    report = gk.analyze(grid.discretized, tol=args.tol, seed=args.seed)
    doc = {"kernel_certificate": cert, "analysis": gk.report_to_dict(report)}
    return EXIT_OK, doc, lambda: _lines(_certificate_lines("kernel_tn_check", cert)
                                        + _report_lines(report))


def cmd_generate(args):
    if args.oscillatory:
        m = positivity.random_oscillatory(args.n, args.seed)
    else:
        m = positivity.random_tn(args.n, args.seed, args.factors)
    return EXIT_OK, {"data": m}, lambda: _lines(_csv_rows(m))


def _trial_matrix(n, seed, index):
    """Deterministic trial inputs: even indices draw totally nonnegative
    products, odd indices general Gaussian matrices."""
    derived = seed * 1_000_003 + index
    if index % 2 == 0:
        return positivity.random_tn(n, derived, factors=3 * n)
    rng = np.random.default_rng(derived)
    return rng.standard_normal((n, n))


def cmd_verify(args):
    if args.trials < 1:
        raise ValidationError(f"trials must be >= 1, got {args.trials}")
    checker = gk.verify_theorem1 if args.theorem == 1 else gk.verify_theorem2
    worst = 0.0
    failures = []
    for t in range(args.trials):
        m = _trial_matrix(args.n, args.seed, t)
        rep = checker(m, tol=args.tol)
        worst = max(worst, rep.max_residual)
        if not rep.matched:
            failures.append((t, m, rep))
    doc = {
        "theorem": args.theorem,
        "n": args.n,
        "trials": args.trials,
        "all_matched": not failures,
        "worst_residual": worst,
        "failures": len(failures),
        "counterexample": None,
    }
    if failures:
        t, m, rep = failures[0]
        doc["counterexample"] = {"trial": t, "matrix": m, "report": gk.verification_to_dict(rep)}

    def text():
        lines = [
            f"theorem: {args.theorem}",
            f"trials: {args.trials} at n={args.n}",
            f"all_matched: {not failures}",
            f"worst_residual: {worst!r}",
        ]
        if failures:
            t, m, rep = failures[0]
            square, products = rep.leftovers
            lines += [f"counterexample (trial {t}):", *_csv_rows(m),
                      "leftover_square: " + " ".join(_fmt_complex(z) for z in square),
                      "leftover_products: " + " ".join(_fmt_complex(z) for z in products)]
        return _lines(lines)

    return (EXIT_VERDICT if failures else EXIT_OK), doc, text


def _seed(text):
    """A --seed value: numpy generators take only nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return value


def _add_common(p, seed=True, tol=True):
    if tol:
        p.add_argument("--tol", type=float, default=spectra.DEFAULT_TOL, help="relative tolerance")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    if seed:
        p.add_argument("--seed", type=_seed, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wedgespec",
        description="Compound/exterior squares, total nonnegativity, and "
        "second-eigenvalue analysis of matrices and integral kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="second-eigenvalue report for a matrix file")
    p.add_argument("input", help="matrix file (CSV rows, or JSON with a data field)")
    p.add_argument("--circle-tol", type=float, default=gk.DEFAULT_CIRCLE_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compound", help="j-th compound matrix of a matrix file")
    p.add_argument("input")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override the size cap")
    _add_common(p, seed=False, tol=False)
    p.set_defaults(func=cmd_compound)

    p = sub.add_parser("tn-check", help="total-nonnegativity certificate")
    p.add_argument("input")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sample", action="store_true", help="sampled mode")
    p.add_argument("--samples", type=int, help="sampled minors (default 200)")
    _add_common(p)
    p.set_defaults(func=cmd_tn_check)

    p = sub.add_parser("kernel", help="discretize a kernel, certify, and analyze")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", choices=kernel.BUILTIN_NAMES)
    src.add_argument("--file", help="tabulated kernel (CSV table or JSON)")
    p.add_argument("--param", type=float, default=None, help="gaussian width")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--rule", choices=("midpoint", "trapezoid"), help="default midpoint")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--trials", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("generate", help="random totally nonnegative or oscillatory matrix")
    p.add_argument("--n", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    # a string default goes through type=int only when the flag is absent, so
    # an explicit "--factors 20" still counts as given and conflicts
    kind.add_argument("--factors", type=int, default="20")
    kind.add_argument("--oscillatory", action="store_true")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="batch spectrum-identity verification")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = args.func(args)
        payload = _json_doc(doc) if args.format == "json" else text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return code
    except (ValidationError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, DegeneratePerronError, GenerationError, ZeroVectorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
