"""Command-line entry point.

    pma run   --variant pma1 --m 2 --e 5 --t 1 --theta 3 --seed 7
    pma audit --suite all
    pma costs --variant pma1 --sweep-m 2..6 --t 1

Exit codes: 0 success, 2 parameter error, 3 integrity or audit failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .errors import AuditInfeasibleError, IntegrityError, ParameterError
from .harness import RunConfig, cost_table, run_audit_suite, run_protocol, to_json
from .model import VARIANT_ALIASES, VARIANTS, load_datasets, read_json


def _parse_numbers(text: str | None, kind=int):
    """A scalar or a tuple of ``kind`` values from a comma list; None
    (flag not given) stays None."""
    if text is None:
        return None
    try:
        values = [kind(s) for s in text.split(",") if s.strip()]
    except ValueError:
        values = []
    if not values:
        what = "ints" if kind is int else "probabilities"
        raise ParameterError(f"expected {what}, got {text!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _parse_sweep(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ParameterError(f"bad sweep range {text!r}")
    values = _parse_numbers(text)
    return [values] if isinstance(values, int) else list(values)


def _build_run_config(args) -> RunConfig:
    base: dict = {}
    if args.config:
        base = read_json(args.config, "config file")
        if not isinstance(base, dict):
            raise ParameterError("config file must hold a JSON object")
    overrides = {
        "variant": args.variant,
        "m": args.m, "e": args.e, "t": args.t, "y": _parse_numbers(args.y),
        "t2": args.t2, "n": args.n, "p": args.p, "theta": args.theta,
        "seed": args.seed, "datasets": args.datasets,
        "gen_probs": _parse_numbers(args.gen_prob, float),
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if args.element is not None:
        if base.get("datasets") is None:
            raise ParameterError("--element needs --datasets")
        universe, _ = load_datasets(base["datasets"])
        if args.element not in universe:
            raise ParameterError(
                f"element {args.element!r} not in the universe {list(universe)}")
        base["theta"] = universe.index(args.element) + 1
    return RunConfig.from_dict(base)


def _print_run(report: dict) -> None:
    par = report["params"]
    header = (f"variant={par['variant']} M={par['m']} N={par['n']} "
              f"T={par['t']} Y={par['y']} E={par['e']} p={par['p']}")
    if "n_eff" in par:
        header += f" n_eff={par['n_eff']} idle={par['idle_databases']}"
    print(header)
    has_elements = any("element" in r for r in report["results"])
    cols = "theta element count oracle ok" if has_elements else "theta count oracle ok"
    print(cols)
    for r in report["results"]:
        ok = "yes" if r["match"] else "NO"
        if has_elements:
            print(f"{r['theta']:>5} {r.get('element', '-'):>7} "
                  f"{r['count']:>5} {r['oracle_count']:>6} {ok:>3}")
        else:
            print(f"{r['theta']:>5} {r['count']:>5} {r['oracle_count']:>6} {ok:>3}")
    c = report["cost"]
    print(f"cost: download={c['download_symbols']} upload={c['upload_symbols']} "
          f"randomness={c['randomness_symbols']} storage={c['storage_symbols']} "
          f"total={c['accounted_total']}")
    bound = "met" if c["bound_met"] else "EXCEEDED"
    remark = ("match" if c["remark_match"] else "MISMATCH") \
        if c["remark_applicable"] else "n/a"
    print(f"bounds: download<={c['theorem_bound']} ({bound}) "
          f"closed-form-total={c['remark_total']} ({remark})")


def _run_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theta", "element", "count", "oracle_count", "match"])
    for r in report["results"]:
        writer.writerow([r["theta"], r.get("element", ""), r["count"],
                         r["oracle_count"], r["match"]])
    return buf.getvalue()


def _costs_csv(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["m", "n", "download", "bound", "bound_exact", "exp_reference"])
    for r in table["rows"]:
        writer.writerow([r["m"], r["n"], r["download"], r["bound"],
                         r["bound_exact"], r["exp_reference"]])
    return buf.getvalue()


def _cmd_run(args) -> int:
    config = _build_run_config(args)
    report = run_protocol(config)
    if args.json:
        print(to_json(report))
    elif args.csv:
        print(_run_csv(report), end="")
    else:
        _print_run(report)
    return 0


def _cmd_audit(args) -> int:
    report = run_audit_suite(args.suite, cap=args.cap)
    if args.json:
        print(to_json(report))
    else:
        for case in report["cases"]:
            mark = "ok " if case["ok"] else "BAD"
            lemma = case["lemma"] or "-"
            print(f"[{mark}] {case['name']:<37} {lemma:<7} "
                  f"expected={case['expected']} verdict={case['verdict']:<10} "
                  f"{case['ms']:8.1f} ms")
        print(f"{len(report['cases'])} audits, "
              f"{'all as expected' if report['all_ok'] else 'UNEXPECTED VERDICTS'}")
    return 0 if report["all_ok"] else 3


def _cmd_costs(args) -> int:
    table = cost_table(args.variant, _parse_sweep(args.sweep_m), t=args.t,
                       y=_parse_numbers(args.y), e=args.e, n=args.n,
                       seed=args.seed, exp_k=args.exp_k)
    if args.json:
        print(to_json(table))
    elif args.csv:
        print(_costs_csv(table), end="")
    else:
        print(f"variant={table['variant']} t={table['t']} y={table['y']} e={table['e']}")
        print("m n download bound exact exp_ref")
        for r in table["rows"]:
            print(f"{r['m']} {r['n']} {r['download']:>8} {r['bound']:>5} "
                  f"{str(r['bound_exact']):>5} {r['exp_reference']:>7}")
        if "linear_in_m" in table:
            print(f"linear in M: {table['linear_in_m']} "
                  f"(per-party coefficient {table['per_party_coefficient']})")
        if "constant_download" in table:
            print(f"download independent of M: {table['constant_download']}")
    return 0


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pma",
        description="Private membership aggregation simulator and audit harness")
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [*VARIANTS, *VARIANT_ALIASES]

    run_p = sub.add_parser("run", help="execute a protocol run or a full index sweep")
    run_p.add_argument("--variant", choices=variants)
    run_p.add_argument("--m", type=int)
    run_p.add_argument("--e", type=int)
    run_p.add_argument("--t", type=int)
    run_p.add_argument("--y", help="eavesdropping budget; comma list for type II")
    run_p.add_argument("--t2", type=int)
    run_p.add_argument("--n", type=int, help="databases per party (default: minimal)")
    run_p.add_argument("--p", type=int, help="field modulus (default: auto prime)")
    run_p.add_argument("--theta", type=int, help="queried index; omit to sweep all")
    run_p.add_argument("--element", help="queried element name (needs --datasets)")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--datasets", help="JSON file with universe and parties")
    run_p.add_argument("--gen-prob", dest="gen_prob",
                       help="membership probability (scalar or comma list)")
    run_p.add_argument("--config", help="JSON file mirroring the run config")
    _add_format_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    audit_p = sub.add_parser("audit", help="run privacy/security audits")
    audit_p.add_argument("--suite", default="all",
                         help="all | positive | controls | lemma1..lemma7 | names")
    audit_p.add_argument("--cap", type=int,
                         help="most view evaluations per audit case "
                              "(default 10^7)")
    audit_p.add_argument("--json", action="store_true")
    audit_p.set_defaults(func=_cmd_audit)

    costs_p = sub.add_parser("costs", help="download-cost table over a party sweep")
    costs_p.add_argument("--variant", required=True, choices=variants)
    costs_p.add_argument("--sweep-m", required=True, dest="sweep_m",
                         help="party counts, e.g. 2..6 or 2,4,8")
    costs_p.add_argument("--t", type=int, default=0)
    costs_p.add_argument("--y", default="0")
    costs_p.add_argument("--e", type=int, default=2)
    costs_p.add_argument("--n", type=int)
    costs_p.add_argument("--seed", type=int, default=0)
    costs_p.add_argument("--exp-k", type=int, default=2, dest="exp_k",
                         help="K for the exponential reference column")
    _add_format_flags(costs_p)
    costs_p.set_defaults(func=_cmd_costs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, AuditInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
