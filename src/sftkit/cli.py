"""Command-line surface: reproducible JSON in, JSON out.

Exit codes: 0 on a decisive answer, 1 on Unknown/SearchExhausted, a blown
budget or an internal failure such as a witness that fails replay, 2 on bad
input or usage.  All outputs are deterministic given the inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    BudgetExceeded,
    Pattern2D,
    SearchExhausted,
    Sft1D,
    SftError,
    WangTileSet,
    build_rauzy,
    json_fields,
    require_same_alphabet,
)
from . import classify as _classify
from .cycles import find_cycle_pair
from .compiler import (
    build_grammar,
    compile_horizontal,
    compile_wang,
    decode_pattern,
    encode_pattern,
)
from .solve import (
    count_rectangles,
    decide_with_certificate,
    find_torus,
    semi_decide_emptiness,
    validate_torus,
)
from . import entropy as _entropy


def _emit(obj, path=None):
    """Write ``obj`` as one line of strict JSON with sorted keys.  Without
    ``indent`` the standard library encodes in C, which matters for
    presentations of a megabyte or more.  Every output is a fresh tree, so
    the check for circular references is skipped.  JSON has no infinities
    or nan: callers write a non-finite value as null, and one left over is
    a ValueError (exit 2), never output."""
    text = json.dumps(obj, sort_keys=True, check_circular=False, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _scc_colors(graph):
    palette = ("lightblue", "lightgreen", "lightsalmon", "plum", "khaki", "lightgray")
    colors = {}
    for i, comp in enumerate(graph.sccs()):
        for v in comp:
            colors[v] = palette[i % len(palette)]
    return colors


def _cmd_rauzy(args):
    sft = Sft1D.load(args.input)
    g = build_rauzy(sft)
    if args.dot:
        print(g.to_dot())
        return 0
    _emit(
        {
            "order": g.order,
            "vertices": ["".join(v) for v in g.vertices],
            "edges": [["".join(u), "".join(v), v[-1]] for (u, v) in sorted(g.edges)],
            "scc": [["".join(v) for v in comp] for comp in g.sccs()],
            "transient": ["".join(v) for v in g.transient_vertices()],
        },
        args.out,
    )
    return 0


def _cmd_classify(args):
    sft = Sft1D.load(args.input)
    g = build_rauzy(sft)
    verdict = _classify.check_condition_d(g)
    if args.dot:
        colors = _scc_colors(g)
        lines = ["digraph classify {"]
        for v in g.vertices:
            lines.append(f'  "{"".join(v)}" [style=filled, fillcolor={colors[v]}];')
        for (u, v) in sorted(g.edges):
            lines.append(f'  "{"".join(u)}" -> "{"".join(v)}";')
        lines.append("}")
        print("\n".join(lines))
        return 0
    out = verdict.to_json()
    try:
        per = _classify.has_only_periodic_points(sft)
        out["only_periodic_points"] = bool(per)
        out["period"] = per.period
    except SftError:
        out["only_periodic_points"] = None
    _emit(out, args.out)
    return 0


def _cmd_cycles_find(args):
    sft = Sft1D.load(args.input)
    g = build_rauzy(sft)
    pair, report = find_cycle_pair(g)
    out = {
        "c1": ["".join(v) for v in pair.c1.vertices],
        "c2": ["".join(v) for v in pair.c2.vertices],
        "report": report.to_json(),
    }
    if args.explain:
        out["trace"] = (
            f"dispatched case {report.case_tag}; "
            + ("passes the five-part condition" if report.passes else f"exempted via {report.exemption}")
        )
    _emit(out, args.out)
    return 0


def _cmd_compile_wang(args):
    sft = Sft1D.load(args.h)
    tiles = WangTileSet.load(args.w)
    g = build_rauzy(sft)
    pair, report = find_cycle_pair(g)
    pres, cert = compile_wang(sft, tiles, pair)
    out = pres.to_json()
    out["certificate"] = cert.to_json()
    out["pair"] = {
        "c1": ["".join(v) for v in pair.c1.vertices],
        "c2": ["".join(v) for v in pair.c2.vertices],
        "case_tag": report.case_tag,
    }
    _emit(out, args.out)
    return 0


def _cmd_compile_horizontal(args):
    sft = Sft1D.load(args.h)
    tiles = WangTileSet.load(args.w)
    comp, cert = compile_horizontal(sft, tiles)
    out = comp.to_json()
    out["certificate"] = cert.to_json()
    _emit(out, args.out)
    return 0


def _constraint_from_args(args, sft):
    """The column SFT named by ``--v`` (None without one); it must have the
    same symbols as the row SFT ``sft``."""
    if not args.v:
        return None
    v = Sft1D.load(args.v)
    require_same_alphabet(sft, v, ("--h", "--v"))
    return v


def _check_witness(sft, constraint, wit):
    if not validate_torus(sft, constraint, wit.pattern):
        raise RuntimeError("the torus witness fails replay validation")


def _cmd_solve(args):
    sft = Sft1D.load(args.h)
    constraint = _constraint_from_args(args, sft)
    if args.action == "count":
        n = count_rectangles(sft, constraint, args.width, args.height, args.budget)
        _emit({"width": args.width, "height": args.height, "count": str(n)}, args.out)
        return 0
    if args.action == "torus":
        wit = find_torus(sft, constraint, args.bound, args.bound)
        if wit is None:
            _emit({"found": False, "bound": args.bound}, args.out)
            return 1
        _check_witness(sft, constraint, wit)
        _emit({"found": True, **wit.to_json()}, args.out)
        return 0
    if args.action == "empty":
        out = semi_decide_emptiness(sft, constraint, args.bound, args.budget)
    else:  # decide
        if constraint is None:
            constraint = ()
        out = decide_with_certificate(sft, constraint, 200000 if args.budget is None else args.budget)
    if out.witness is not None:
        _check_witness(sft, constraint if isinstance(constraint, Sft1D) else None, out.witness)
    _emit(out.to_json(), args.out)
    return 0 if out.status != "unknown" else 1


def _cmd_entropy(args):
    if args.what == "bezout":
        cs = [int(x) for x in args.input.split(",")]
        m, rank, bound = _entropy.bezout_rank(cs)
        _emit({"gcd": m, "rank": rank, "certificate_bound": bound}, args.out)
        return 0
    if args.what == "1d":
        sft = Sft1D.load(args.input)
        r = _entropy.entropy_1d(sft, args.tol)
        _emit(
            {
                "log2": r.log2_value,
                "eigenvalue": r.eigenvalue,
                "bracket": [_entropy._log2(v) for v in r.bracket],
                "iterations": r.iterations,
            },
            args.out,
        )
        return 0
    if args.what == "2d":
        sft = Sft1D.load(args.h)
        constraint = _constraint_from_args(args, sft)
        b = _entropy.entropy_bounds_2d(sft, constraint, args.bound, args.budget)
        _emit(b.to_json(), args.out)
        return 0
    if args.what == "statesplit":
        sft = Sft1D.load(args.h)
        v = _constraint_from_args(args, sft)
        rep = _entropy.statesplit_entropy(sft, v, args.bound)
        sides = [(m, rep["lhs"](m), rep["rhs"](m)) for m in (1, 2)]
        rows = [{"m": m, "lhs": str(lhs), "rhs": str(rhs), "ok": lhs == rhs} for m, lhs, rhs in sides]
        out = {"p": rep["p"], "term": _entropy._json_float(rep["term"]), "max_product": rep["max_product"]}
        _emit({**out, "identity": rows}, args.out)
        return 0 if all(row["ok"] for row in rows) else 1
    # realize
    with open(args.input) as fh:
        spec = json.load(fh)
    kinds = dict(H=dict, payload=dict, u=list, w1=list, w2=list, q=int, r=int, R=int, ks=list)
    h, payload, u, w1, w2, q, r, big_r, ks = json_fields(spec, "realization spec", kinds, {"ks": [2]})
    if not all(type(k) is int for k in ks):
        raise ValueError("ks must be a list of integers")
    plan = _entropy.RealizationPlan(
        Sft1D.from_json(h), tuple(u), tuple(w1), tuple(w2), q, r, big_r, WangTileSet.from_json(payload)
    )
    system = _entropy.build_realization(plan)
    rows = _entropy.realization_sandwich(system, ks)
    for row in rows:
        row["count"] = str(row["count"])
        row["lower"] = str(row["lower"])
        row["upper"] = str(row["upper"])
        row["sample_entropy"] = _entropy._json_float(row["sample_entropy"])
    _emit({"period": plan.period, "sandwich": rows}, args.out)
    return 0


def _cmd_encode(args):
    sft = Sft1D.load(args.h)
    tiles = WangTileSet.load(args.w)
    g = build_rauzy(sft)
    pair, _ = find_cycle_pair(g)
    grammar = build_grammar(sft, pair, tiles.N)
    with open(args.input) as fh:
        (grid,) = json_fields(json.load(fh), "tile grid", {"tiles": list})
    if not all(isinstance(col, list) for col in grid):
        raise ValueError("tiles must be a list of columns")
    if not all(type(k) is int for col in grid for k in col):
        raise ValueError("tile indices must be integers")
    pat = encode_pattern(grid, grammar, tiles)
    _emit(pat.to_json(), args.out)
    return 0


def _cmd_decode(args):
    sft = Sft1D.load(args.h)
    tiles = WangTileSet.load(args.w)
    g = build_rauzy(sft)
    pair, _ = find_cycle_pair(g)
    grammar = build_grammar(sft, pair, tiles.N)
    with open(args.input) as fh:
        pat = Pattern2D.from_json(json.load(fh))
    grid = decode_pattern(pat, grammar, tiles)
    _emit({"tiles": grid}, args.out)
    return 0


def _at_least(low):
    """The argparse type of an integer >= ``low``: 0 for a ``--budget``, 1
    for a ``--bound``."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {n}")
        return n

    return parse


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of ``main`` gets a fresh namespace."""
    p = argparse.ArgumentParser(prog="sftkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rauzy", help="pruned word graph of a 1D SFT")
    q.add_argument("--input", required=True)
    q.add_argument("--dot", action="store_true")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_rauzy)

    q = sub.add_parser("classify", help="component types and the decidability condition")
    q.add_argument("--input", required=True)
    q.add_argument("--dot", action="store_true")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_classify)

    q = sub.add_parser("cycles", help="cycle-pair selection")
    qq = q.add_subparsers(dest="action", required=True)
    qf = qq.add_parser("find")
    qf.add_argument("--input", required=True)
    qf.add_argument("--explain", action="store_true")
    qf.add_argument("--out")
    qf.set_defaults(fn=_cmd_cycles_find)

    q = sub.add_parser("compile", help="root compilers")
    qq = q.add_subparsers(dest="action", required=True)
    qw = qq.add_parser("wang")
    qw.add_argument("--h", required=True)
    qw.add_argument("--w", required=True)
    qw.add_argument("--out")
    qw.set_defaults(fn=_cmd_compile_wang)
    qh = qq.add_parser("horizontal")
    qh.add_argument("--h", required=True)
    qh.add_argument("--w", required=True)
    qh.add_argument("--out")
    qh.set_defaults(fn=_cmd_compile_horizontal)

    q = sub.add_parser("solve", help="counting, torus search, emptiness")
    qq = q.add_subparsers(dest="action", required=True)
    for name in ("count", "torus", "empty", "decide"):
        qa = qq.add_parser(name)
        qa.add_argument("--h", required=True)
        qa.add_argument("--v")
        if name in ("torus", "empty"):
            qa.add_argument("--bound", type=_at_least(1), default=6)
        if name != "torus":
            qa.add_argument("--budget", type=_at_least(0))
        qa.add_argument("--out")
        if name == "count":
            qa.add_argument("--width", type=int, required=True)
            qa.add_argument("--height", type=int, required=True)
        qa.set_defaults(fn=_cmd_solve)

    q = sub.add_parser("entropy", help="entropy computations")
    qq = q.add_subparsers(dest="what", required=True)
    for name in ("1d", "2d", "realize", "statesplit", "bezout"):
        qa = qq.add_parser(name)
        if name in ("1d", "realize", "bezout"):
            qa.add_argument("--input", required=True)
        if name in ("2d", "statesplit"):
            qa.add_argument("--h", required=True)
            qa.add_argument("--v", required=name == "statesplit")
            qa.add_argument("--bound", type=_at_least(1), default=4)
        if name == "2d":
            qa.add_argument("--budget", type=_at_least(0))
        if name == "1d":
            qa.add_argument(
                "--tol",
                type=float,
                default=1e-10,
                help="largest relative width (hi - lo) / hi of the certified spectral-radius bracket",
            )
        qa.add_argument("--out")
        qa.set_defaults(fn=_cmd_entropy)

    q = sub.add_parser("encode", help="encode a Wang pattern into a window")
    q.add_argument("--h", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_encode)

    q = sub.add_parser("decode", help="decode a window back to a Wang pattern")
    q.add_argument("--h", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_decode)
    return p


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SearchExhausted, BudgetExceeded, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SftError, OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
