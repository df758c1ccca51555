"""Command line interface.

    forge inspect <file>
    forge verify <check-id> [--group <id>] [--cap <order>]
    forge verify-all [--manifest <path>] [--json <out>]
    forge cohomology <file> --normal <gens>
    forge search-autos <file> --fix frattini|omega1 --order <k>

Exit codes: 0 all pass/skip, 1 any fail, 2 usage error or refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from pgforge import cohomology, kernel, structure
from pgforge.autos import fixed_set_by_name, search_order_p_automorphisms
from pgforge.caps import DEFAULT_CAPS
from pgforge.core import _parse_word, parse_presentation
from pgforge.corpus import builtin_corpus, load_manifest, read_source
from pgforge.errors import CapExceeded, ForgeError, PresentationError
from pgforge.harness import CHECKS, exit_code, report_json, run_all, run_check
from pgforge.subgroups import is_normal, subgroup_closure


def _load(path):
    return parse_presentation(read_source(path))


def _entries(args):
    """The built-in corpus, extended by `--manifest` when given."""
    entries = builtin_corpus()
    if args.manifest:
        entries = entries + load_manifest(args.manifest, args.caps,
                                          taken=[e.id for e in entries])
    return entries


def cmd_inspect(args):
    G = _load(args.file)
    violations = G.consistency_check()
    if violations:
        doc = {"name": G.name, "consistent": False, "violations": violations}
    else:
        doc = structure.profile(G, args.caps).to_dict()
        doc["consistent"] = True
        doc["kernel_backend"] = kernel.BACKEND
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if not violations else 1


def cmd_verify(args):
    results = run_check(args.check_id, _entries(args), args.caps, group_id=args.group)
    sys.stdout.write(report_json(results, args.caps))
    return exit_code(results)


def cmd_verify_all(args):
    results = run_all(_entries(args), args.caps)
    text = report_json(results, args.caps)
    if args.json:
        Path(args.json).write_text(text)
        s = Counter(r.status for r in results)
        print(
            f"checks: {s['pass']} pass, {s['fail']} fail, "
            f"{s['skip']} skip, {s['refused']} refused -> {args.json}"
        )
    else:
        sys.stdout.write(text)
    return exit_code(results)


def cmd_cohomology(args):
    G = _load(args.file)
    G.require_consistent()
    gens = []
    for w in args.normal.split(","):
        try:
            gens.append(G.collect(_parse_word(w, None)))
        except PresentationError as exc:
            raise PresentationError(f"--normal {w.strip()!r}: {exc}") from None
    N = subgroup_closure(G, gens)
    if not is_normal(N):
        raise ForgeError(
            "the given generators span a non-normal subgroup; "
            "use its normal closure or different generators"
        )
    M = cohomology.module_of(G, N, args.caps)
    z1_size, b1_size, i1 = cohomology.h1(M)
    doc = {
        "group": G.name,
        "normal_order": N.order,
        "module": M.to_dict(),
        "h0": list(cohomology.h0(M)),
        "z1_size": z1_size,
        "b1_size": b1_size,
        "h1": list(i1),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_search_autos(args):
    G = _load(args.file)
    G.require_consistent()
    fixed = fixed_set_by_name(G, args.fix, args.caps)
    order = args.order if args.order else G.prime
    witnesses = search_order_p_automorphisms(G, fixed, args.caps, order=order)
    doc = {
        "group": G.name,
        "fixed_set": args.fix,
        "order": order,
        "count": len(witnesses),
        "noninner_count": sum(1 for w in witnesses if w.is_noninner),
        "witnesses": [w.to_dict() for w in witnesses],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _positive_int(text):
    """argparse type for caps and target orders: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="forge",
        description="finite p-group workbench: inspect presentations, "
        "verify theorem checks, compute cohomology, search automorphisms",
    )
    parser.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help="override the desk-scale caps with a single group-order bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument(
            "--cap",
            type=_positive_int,
            default=argparse.SUPPRESS,
            help="override the desk-scale caps with a single group-order bound",
        )

    p = sub.add_parser("inspect", help="profile a presentation file")
    p.add_argument("file")
    add_cap(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("verify", help="run one theorem check over the corpus")
    p.add_argument("check_id", choices=sorted(CHECKS))
    p.add_argument("--group", default=None, help="restrict to one corpus id")
    p.add_argument("--manifest", default=None, help="extend the corpus")
    add_cap(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-all", help="run every check over the corpus")
    p.add_argument("--manifest", default=None, help="extend the corpus")
    p.add_argument("--json", default=None, help="write the report here")
    add_cap(p)
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("cohomology", help="H0/H1 of a center module")
    p.add_argument("file")
    p.add_argument(
        "--normal",
        required=True,
        help="comma-separated generator words of the normal subgroup, e.g. x2,x3^2",
    )
    add_cap(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("search-autos", help="exhaustive fixed-point automorphism search")
    p.add_argument("file")
    p.add_argument("--fix", required=True, choices=["frattini", "omega1"])
    p.add_argument("--order", type=_positive_int, default=None,
                   help="target order (default p)")
    add_cap(p)
    p.set_defaults(fn=cmd_search_autos)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    args.caps = DEFAULT_CAPS.with_override(args.cap)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
