"""Command-line front end: gen | bounds | construct | exact | verify | compare.

All randomness is seeded explicitly; with fixed seeds (and --no-timestamp
for reports) outputs are byte-identical across runs. Exit codes: 0 success,
2 infeasible spec (no witness exists on the graph), 1 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

from . import graph
from .bounds import bounds_for_spec
from .construct import _construct
from .errors import InfeasibleSpecError, MultidomError
from .graph import GRAPH_FORMATS, Graph, load_graph, write_graph
from .oracle import exact_function_number, exact_set_number
from .tuner import compare_bounds
from .verify import DominationSpec, VertexFunction, verify_function, verify_set

SPEC_HELP = (
    "classical | kdom:K | ktuple:K | totalk:K | bracek:K | param:K,L | "
    "rs:RFILE,SFILE | totalrs:RFILE,SFILE  (vector files hold one integer "
    "per vertex, whitespace-separated)"
)

# Each --family choice, the generator of that name in graph.py, and the
# options it takes, in call order.
FAMILY_OPTIONS = {
    "gnp": ("n", "p", "seed"),
    "random_regular": ("n", "d", "seed"),
    "path": ("n",),
    "cycle": ("n",),
    "complete": ("n",),
    "complete_bipartite": ("n", "n2"),
    "petersen": (),
}


class _Parser(argparse.ArgumentParser):
    # usage problems are parse errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """A float option that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _read_vector(path: str) -> tuple[int, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(int(tok) for tok in fh.read().split())


def parse_spec(text: str) -> DominationSpec:
    if text == "classical":
        return DominationSpec.classical()
    if ":" not in text:
        raise ValueError(f"bad spec {text!r}; expected {SPEC_HELP}")
    head, _, arg = text.partition(":")
    for variant, name in DominationSpec.K_LABELS.items():
        if head == name:
            return DominationSpec(variant, k=int(arg))
    if head == "param":
        try:
            k, l = (int(x) for x in arg.split(","))
        except ValueError:  # a count other than two, or a token that is no integer
            raise ValueError("spec param needs two integers: param:K,L") from None
        return DominationSpec.parametric(k, l)
    if head in ("rs", "totalrs"):
        rfile, _, sfile = arg.partition(",")
        if not sfile:
            raise ValueError(f"spec {head} needs two vector files: {head}:RFILE,SFILE")
        r = _read_vector(rfile)
        s = _read_vector(sfile)
        return DominationSpec.rs(r, s) if head == "rs" else DominationSpec.total_rs(r, s)
    raise ValueError(f"bad spec {text!r}; expected {SPEC_HELP}")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="FILE", help="read the graph from FILE (edge list or DIMACS)")
    p.add_argument("--family", choices=FAMILY_OPTIONS, help="generate the graph instead")
    p.add_argument("--n", type=int, help="vertex count (family graphs)")
    p.add_argument("--n2", type=int, help="second part size (complete_bipartite)")
    p.add_argument("--p", type=float, help="edge probability (gnp)")
    p.add_argument("--d", type=int, help="degree (random_regular)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for graph generation and for any construction randomness")


def _add_output_args(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    if len(formats) > 1:
        p.add_argument("--format", choices=formats, default=formats[0])
    if "json" in formats:
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated_at field (for golden-file comparisons)")


def _resolve_graph(args) -> Graph:
    if args.graph and args.family:
        raise ValueError("give either --graph or --family, not both")
    if args.graph:
        return load_graph(args.graph)
    if args.family:
        names = FAMILY_OPTIONS[args.family]
        for name in names:
            if getattr(args, name) is None:
                raise ValueError(f"family {args.family!r} needs --{name}")
        # looked up by name on each call, so a wrapper set on the module is used
        return getattr(graph, args.family)(*(getattr(args, name) for name in names))
    raise ValueError("a graph is required: --graph FILE or --family NAME ...")


def _graph_summary(g: Graph) -> dict:
    return {"n": g.n, "m": g.m, "min_degree": g.min_degree, "max_degree": g.max_degree}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    if not args.no_timestamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(args, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = _resolve_graph(args)
    _emit(args, write_graph(g, args.format))
    return 0


def _cmd_bounds(args) -> int:
    g = _resolve_graph(args)
    spec = parse_spec(args.spec)
    spec.check_feasible(g)
    reports = bounds_for_spec(spec, g.min_degree, g.n, c=args.c, force=args.force)
    if args.format == "csv":
        lines = ["name,applicable,coefficient,absolute,vacuous,reason"]
        for r in reports:
            coeff = "" if r.coefficient is None else repr(r.coefficient)
            absolute = "" if r.absolute is None else repr(r.absolute)
            vac = "" if r.vacuous is None else str(r.vacuous).lower()
            lines.append(f"{r.name},{str(r.applicable).lower()},{coeff},{absolute},"
                         f"{vac},\"{r.reason}\"")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, {
            "graph": _graph_summary(g),
            "spec": spec.label(),
            "bounds": [r.to_dict() for r in reports],
        })
    return 0


def _cmd_construct(args) -> int:
    g = _resolve_graph(args)
    spec = parse_spec(args.spec)
    # the trial loop every construct_* runs; it checks feasibility once
    result = _construct(g, spec, args.seed, args.trials, args.trace)
    payload = result.to_dict()
    payload["graph"] = _graph_summary(g)
    payload["spec"] = spec.label()
    _emit_json(args, payload)
    return 0


def _cmd_exact(args) -> int:
    g = _resolve_graph(args)
    spec = parse_spec(args.spec)
    kwargs = {}
    if args.limit_n is not None:
        kwargs["limit_n"] = args.limit_n
    if args.node_budget is not None:
        kwargs["node_budget"] = args.node_budget
    if spec.is_set_variant:
        result = exact_set_number(g, spec, **kwargs)
    else:
        result = exact_function_number(g, spec, **kwargs)
    payload = result.to_dict()
    payload["graph"] = _graph_summary(g)
    _emit_json(args, payload)
    return 0


def _witness_list(witness, key: str) -> list[int]:
    """witness[key], which must be a list of JSON integers (no floats, no booleans)."""
    items = witness.get(key) if isinstance(witness, dict) else None
    if not isinstance(items, list) or any(type(x) is not int for x in items):
        raise ValueError(f'the witness must be a JSON object {{"{key}": [integers]}}')
    return items


def _cmd_verify(args) -> int:
    g = _resolve_graph(args)
    spec = parse_spec(args.spec)
    with open(args.witness, "r", encoding="utf-8") as fh:
        witness = json.load(fh)
    if spec.is_set_variant:
        verify, w = verify_set, _witness_list(witness, "set")
    else:
        verify, w = verify_function, VertexFunction(_witness_list(witness, "values"))
    # verify_* report an infeasible spec as deficiencies; the CLI exits 2
    spec.check_feasible(g)
    report = verify(g, spec, w)
    payload = report.to_dict()
    payload["graph"] = _graph_summary(g)
    payload["spec"] = spec.label()
    _emit_json(args, payload)
    return 0  # an invalid witness is data, not an error


def _cmd_compare(args) -> int:
    report = compare_bounds(args.k, args.delta, args.n)
    if args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit_json(args, report.to_dict())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(prog="multidom",
                     description="Multiple-domination bounds, constructions and exact solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a family graph and write it out")
    _add_graph_args(p)
    _add_output_args(p, formats=GRAPH_FORMATS)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bounds", help="tabulate every applicable upper bound for a spec")
    _add_graph_args(p)
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--c", type=_finite, default=None,
                   help="threshold constant for the c-bounds (a finite number)")
    p.add_argument("--force", action="store_true",
                   help="evaluate bounds even where not applicable (flagged)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="run the randomized construction for a spec")
    _add_graph_args(p)
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--trials", type=int, default=100, help="max randomized trials")
    p.add_argument("--trace", action="store_true", help="include the per-trial weight trace")
    _add_output_args(p, formats=("json",))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("exact", help="exact domination number by exhaustive search")
    _add_graph_args(p)
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--limit-n", type=int, default=None, help="vertex-count guard override")
    p.add_argument("--node-budget", type=int, default=None, help="search node budget")
    _add_output_args(p, formats=("json",))
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="check a witness file against a spec")
    _add_graph_args(p)
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--witness", required=True, metavar="FILE",
                   help='JSON witness: {"set": [ids]} or {"values": [ints]}')
    _add_output_args(p, formats=("json",))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="threshold-bound comparison table for (k, delta, n)")
    p.add_argument("k", type=int)
    p.add_argument("delta", type=int)
    p.add_argument("n", type=int)
    _add_output_args(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleSpecError as exc:
        print(f"multidom: infeasible spec: {exc}", file=sys.stderr)
        return 2
    except (MultidomError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"multidom: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
