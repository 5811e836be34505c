"""Command-line driver: gen, run, sweep, compare, oracle, certify.

All outputs are deterministic for a fixed (instance bytes, config): CSVs use
comma separators and \\n line endings, ratios print with six decimals, and
nothing ever writes a timestamp. Exit statuses: 0 success, 1 a failed check,
and otherwise the error's own `exit_status` (errors.py), which its type fixes:
2 config/usage, 3 format, 4 metric, 5 oracle limit.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certify import check_run, recourse_bound
from .clustering import dump_hierarchy
from .errors import ConfigError, SfonlineError
from .metric import GeneratorSpec, generate_instance, load_instance_file, save_instance
from .oracles import DEFAULT_ORACLE_LIMIT, exact_optimum, offline_gluttonous_forest, run_baseline
from .trace import RunTrace, iter_online, load_trace, run_online, save_trace

def _generator_spec(args):
    """The generator flags' spec; --seed and --scale keep its defaults unless given."""
    if args.kind is None:
        flags = "--input FILE or --kind/--n" if hasattr(args, "input") else "--kind/--n"
        raise ConfigError(f"need {flags} generator flags")
    if args.n is None:
        raise ConfigError("generator needs --n")
    given = {k: v for k in ("seed", "scale") if (v := getattr(args, k)) is not None}
    return GeneratorSpec(kind=args.kind, n=args.n, **given)


def _load_from_args(args):
    if getattr(args, "input", None):
        if args.kind is not None or args.n is not None:
            raise ConfigError("--input FILE excludes the generator flags --kind/--n")
        if args.seed is not None or args.scale is not None:
            raise ConfigError("--input FILE excludes the generator flags --seed/--scale")
        return load_instance_file(args.input)
    return generate_instance(_generator_spec(args))


def _output_error(path, err):
    return ConfigError(f"cannot create output {path}: {type(err).__name__}: {err.strerror or err}")


def _make_dirs(path):
    """Create the output directory `path`; one that cannot be created is a
    ConfigError naming it (exit 2), not a traceback."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise _output_error(path, err) from err


def _write_text(path, text):
    """Write an output file with \\n line endings; as _make_dirs on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise _output_error(path, err) from err


def _default_lam(n: int) -> int:
    return max(1, (n - 1).bit_length())  # ceil(log2 n), floored at 1


def _opt_map(inst, limit: int):
    """{t: OPT of the first t pairs} for t up to the oracle limit."""
    k = min(inst.n, limit)
    if k < 1:
        return {}
    return dict(enumerate(exact_optimum(inst.view(k), limit).prefix_costs, 1))


PER_ARRIVAL_HEADER = ("t,cost_F,cost_A,cost_forestforming,OPT,insertions,deletions,"
                      "cum_insertions,cum_deletions,pinned_count,max_level")


def _per_arrival_rows(trace: RunTrace, opt):
    rows = [PER_ARRIVAL_HEADER]
    cum_i = cum_d = 0
    for out in trace.arrivals:
        cum_i += out.ledger.insertions
        cum_d += out.ledger.deletions
        opt_t = opt.get(out.t, "")
        rows.append(
            f"{out.t},{out.snapshot.cost},{out.cost_pinned},{out.cost_forestforming},"
            f"{opt_t},{out.ledger.insertions},{out.ledger.deletions},"
            f"{cum_i},{cum_d},{len(out.pinned_after)},{out.hierarchy.L}"
        )
    return "\n".join(rows) + "\n"


def run_command(inst, lam, checks, out_dir, opt, dump, quiet):
    """Execute one online run: CSV + summary + trace (+ optional certification).
    `checks` is none | structural | full-witness and `opt` is the instance's
    `_opt_map`. Returns (trace, exit status)."""
    _make_dirs(out_dir)
    trace = run_online(inst, lam)

    _write_text(os.path.join(out_dir, "per_arrival.csv"), _per_arrival_rows(trace, opt))

    trace_dir = os.path.join(out_dir, "trace")
    try:
        save_trace(trace, trace_dir)
    except OSError as err:
        raise _output_error(trace_dir, err) from err

    if dump:
        for out in trace.arrivals:
            _write_text(os.path.join(out_dir, f"hierarchy_{out.t:04d}.txt"),
                        dump_hierarchy(out.hierarchy))

    report = None
    if checks != "none":
        report = check_run(trace, opt,
                           witness_levels=None if checks == "full-witness" else ())

    n = trace.n
    lines = [
        f"instance: {inst.label} [{inst.content_hash()}]",
        f"n: {n}",
        f"lambda: {lam}",
        f"final cost: {trace.final().snapshot.cost}",
        f"final pinned cost: {trace.final().cost_pinned}",
        f"final forest-forming cost: {trace.final().cost_forestforming}",
        f"insertions total: {trace.insertions_total}",
        f"deletions total: {trace.deletions_total}",
        f"recourse bound 2n+21n*lambda: {recourse_bound(n, lam)}",
        f"insertions/(n*lambda): {trace.insertions_total / (n * lam):.6f}",
    ]
    if opt.get(n):
        lines.append(f"final OPT: {opt[n]}")
        lines.append(f"final cost/OPT: {trace.final().snapshot.cost / opt[n]:.6f}")
    if report is not None:
        lines.append(f"checks ({checks}): " + ("PASS" if report.ok else "FAIL"))
        for name in sorted(report.ratios):
            lines.append(f"ratio {name}: {report.ratios[name]:.6f}")
    summary = "\n".join(lines) + "\n"
    _write_text(os.path.join(out_dir, "summary.txt"), summary)
    if not quiet:
        sys.stdout.write(summary)
    if report is not None and not report.ok:
        for e in report.failures()[:10]:
            print(f"FAIL {e.check} level={e.level} arrival={e.arrival} {e.value}",
                  file=sys.stderr)
        return trace, 1
    return trace, 0


def cmd_gen(args):
    spec = _generator_spec(args)
    inst = generate_instance(spec)
    if args.file:
        name = args.file
        parent = os.path.dirname(name)
        if parent:
            _make_dirs(parent)
    else:
        _make_dirs(args.out)
        name = os.path.join(args.out, f"{spec.canonical_kind()}_n{spec.n}_s{spec.seed}.sfo")
    _write_text(name, save_instance(inst))
    if not args.quiet:
        print(name)
    return 0


def cmd_run(args):
    inst = _load_from_args(args)
    lam = args.lam if args.lam is not None else _default_lam(inst.n)
    _, status = run_command(inst, lam, args.checks, args.out, _opt_map(inst, args.oracle_limit),
                            dump=args.dump_hierarchy, quiet=args.quiet)
    return status


def cmd_sweep(args):
    inst = _load_from_args(args)
    lams = []
    for val in args.lams:
        if val in lams:
            print(f"warning: duplicate lambda {val} ignored", file=sys.stderr)
            continue
        lams.append(val)
    if not lams:
        raise ConfigError("sweep needs a nonempty --lams list")
    lams.sort()
    _make_dirs(args.out)
    opt = _opt_map(inst, args.oracle_limit)
    opt_final = opt.get(inst.n)

    rows = ["lambda,final_cost,OPT,ratio,insertions,insertions_per_nlam"]
    status = 0
    for lam in lams:
        trace, st = run_command(inst, lam, args.checks, os.path.join(args.out, f"lam_{lam}"),
                                opt, dump=False, quiet=True)
        status = max(status, st)
        cost = trace.final().snapshot.cost
        ins = trace.insertions_total
        ratio = f"{cost / opt_final:.6f}" if opt_final else ""
        rows.append(f"{lam},{cost},{opt_final if opt_final else ''},{ratio},"
                    f"{ins},{ins / (inst.n * lam):.6f}")
    table = "\n".join(rows) + "\n"
    _write_text(os.path.join(args.out, "sweep.csv"), table)
    if not args.quiet:
        sys.stdout.write(table)
    return status


def cmd_compare(args):
    inst = _load_from_args(args)
    lam = args.lam if args.lam is not None else _default_lam(inst.n)
    _make_dirs(args.out)
    opt = _opt_map(inst, args.oracle_limit)

    main = []  # (snapshot cost, insertions, deletions) per arrival; no outcome is kept

    def online_states():
        # The offline forest reads each arrival's hierarchy while it is live.
        for state in iter_online(inst, lam):
            out = state.last_outcome
            main.append((out.snapshot.cost, out.ledger.insertions, out.ledger.deletions))
            yield state

    offline = [res.cost for res in offline_gluttonous_forest(online_states())]
    costs, ins, dels = zip(*main)
    glut = run_baseline(inst, "online-gluttonous")
    greedy = run_baseline(inst, "greedy")

    rows = ["t,cost_main,cost_online_gluttonous,cost_greedy,cost_offline_gluttonous,OPT"]
    for k in range(inst.n):
        t = k + 1
        rows.append(f"{t},{costs[k]},{glut.steps[k].cost},"
                    f"{greedy.steps[k].cost},{offline[k]},{opt.get(t, '')}")
    table = "\n".join(rows) + "\n"
    _write_text(os.path.join(args.out, "compare.csv"), table)

    summary = [
        f"instance: {inst.label} [{inst.content_hash()}]",
        f"lambda (main): {lam}",
        f"final main: {costs[-1]} (ins {sum(ins)}, dels {sum(dels)})",
        f"final online-gluttonous: {glut.final_cost()} (dels {glut.deletions_total})",
        f"final greedy: {greedy.final_cost()} (dels {greedy.deletions_total})",
        f"final offline-gluttonous: {offline[-1]}",
    ]
    if opt.get(inst.n):
        summary.append(f"final OPT: {opt[inst.n]}")
    text = "\n".join(summary) + "\n"
    _write_text(os.path.join(args.out, "compare_summary.txt"), text)
    if not args.quiet:
        sys.stdout.write(table + text)
    return 0


def cmd_oracle(args):
    inst = load_instance_file(args.input)
    t = args.t if args.t is not None else inst.n
    res = exact_optimum(inst.view(t), args.oracle_limit)
    print(f"OPT {res.cost}")
    for group in res.partition:
        terms = sorted(x for p in group for x in (2 * p, 2 * p + 1))
        print(" ".join(str(x) for x in terms))
    return 0


def cmd_certify(args):
    trace = load_trace(args.trace)
    top = trace.final().hierarchy.L
    if args.levels is not None and args.levels > top:
        raise ConfigError(f"--levels {args.levels} is above the trace's top level L={top}")
    opt = _opt_map(trace.instance, args.oracle_limit)
    levels = None if args.levels is None else [args.levels]
    report = check_run(trace, opt, witness_levels=levels)
    out_dir = args.out or args.trace
    _make_dirs(out_dir)
    _write_text(os.path.join(out_dir, "certify.csv"), report.to_csv())
    if not args.quiet:
        sys.stdout.write(report.summary_text())
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as ConfigError, so they print the coded error
    line and exit 2 like every other configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _lambda_list(text):
    """--lams: comma-separated integers >= 1; blank items are skipped."""
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not all(tok.isdecimal() and int(tok) >= 1 for tok in toks):
        raise argparse.ArgumentTypeError(f"want integers >= 1, got {text!r}")
    return [int(tok) for tok in toks]


def _level_choice(text):
    """--levels: 'all' (None) or one level index >= 0."""
    if text == "all":
        return None
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want 'all' or a level index >= 0, got {text!r}")
    return int(text)


def _add_output_flags(p):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--quiet", action="store_true")


def _add_generator_flags(p):
    p.add_argument("--kind", help="generator kind: euclidean|random-metric|line-chain")
    p.add_argument("--n", type=int, help="number of demand pairs")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--scale", type=int, help="generator fixed-point scale (default 1000)")


def build_parser():
    ap = _Parser(prog="sfonline", description="online low-recourse Steiner forest harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    _add_output_flags(p)
    _add_generator_flags(p)
    p.add_argument("--file", help="explicit output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run the online algorithm")
    _add_output_flags(p)
    _add_generator_flags(p)
    p.add_argument("--input", help="SFONLINE instance file")
    p.add_argument("--lam", type=int, default=None, help="pinning tradeoff (default ceil log2 n)")
    p.add_argument("--checks", choices=["none", "structural", "full-witness"],
                   default="structural")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--dump-hierarchy", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run several lambdas on one instance")
    _add_output_flags(p)
    _add_generator_flags(p)
    p.add_argument("--input", help="SFONLINE instance file")
    p.add_argument("--lams", required=True, type=_lambda_list,
                   help="comma-separated lambda list")
    p.add_argument("--checks", choices=["none", "structural", "full-witness"],
                   default="structural")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="main algorithm vs baselines")
    _add_output_flags(p)
    _add_generator_flags(p)
    p.add_argument("--input", help="SFONLINE instance file")
    p.add_argument("--lam", type=int, default=None)
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="exact optimum of a prefix")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, default=None, help="prefix length (default n)")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("certify", help="re-verify a recorded trace")
    _add_output_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--levels", default="all", type=_level_choice,
                   help="all or a single level index, 0 .. the top level L")
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=cmd_certify, out=None)  # default: CSV lands next to the trace

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SfonlineError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return err.exit_status


if __name__ == "__main__":
    sys.exit(main())
