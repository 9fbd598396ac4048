"""Batch command-line front end.

Exit codes: 0 success / valid result, 1 invalid result (failed
verification, reduction failure), 2 malformed input.  All output is
deterministic: JSON keys are sorted and rationals print as "p/q".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graph import format_edge_list, parse_edge_list
from .embedding import (
    build_associated_plane_graph,
    drawing_from_json,
    drawing_to_json,
    gstar_to_dot,
)
from .coloring import (
    color_by_reduction,
    exact_odd_chromatic_number,
    format_coloring,
    parse_coloring,
    verify_odd_coloring,
)
from .structure import PALETTE, classify_faces, classify_vertices, detect_lemma_violations
from .discharging import audit
from . import generators


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


class InputError(Exception):
    pass


def _load(parse, path: str):
    """parse applied to the text of path; a ValueError names the file."""
    try:
        return parse(_read(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_chi_odd(args) -> int:
    g = _load(parse_edge_list, args.graph)
    kmax = args.kmax if args.kmax is not None else max(g.n, 1)
    value, witness = exact_odd_chromatic_number(g, kmax)
    if value is None:
        print(f"exceeds {kmax}")
        return 1
    if args.witness and witness is not None:
        _write(args.witness, format_coloring(witness))
    if args.format == "json":
        _emit_json({"chi_odd": value, "kmax": kmax})
    else:
        print(value)
    return 0


def cmd_verify(args) -> int:
    g = _load(parse_edge_list, args.graph)
    c = _load(lambda text: parse_coloring(text, g, k=args.k), args.coloring)
    rep = verify_odd_coloring(g, c)
    payload = {
        "k": c.k,
        "valid": rep.valid,
        "violations": {
            "proper": sorted([list(e) for e in rep.proper_violations]),
            "odd": sorted(rep.odd_violations),
            "uncolored": sorted(rep.uncolored),
        },
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print("valid" if rep.valid else f"invalid: {payload['violations']}")
    return 0 if rep.valid else 1


def cmd_gstar(args) -> int:
    d = _load(drawing_from_json, args.drawing)
    apg = build_associated_plane_graph(d)
    nv = sum(1 for v in range(apg.gstar.n) if apg.gstar.adj[v])
    ne = len(apg.gstar.edges)
    nf = len(apg.faces)
    payload = {
        "vertices": nv,
        "edges": ne,
        "faces": nf,
        "star_vertices": len(apg.star_vertices),
        # build_associated_plane_graph rejects a component that breaks V - E + F = 2
        "euler_ok": True,
    }
    if args.dot:
        _write(args.dot, gstar_to_dot(apg))
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"V={nv} E={ne} F={nf} stars={len(apg.star_vertices)} euler=ok")
    return 0


def cmd_classify(args) -> int:
    d = _load(drawing_from_json, args.drawing)
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(d, apg)
    ft = classify_faces(apg, vt)
    _emit_json({"vertices": vt.to_jsonable(), **ft.to_jsonable()})
    return 0


def cmd_lemmas(args) -> int:
    d = _load(drawing_from_json, args.drawing)
    apg = build_associated_plane_graph(d)
    rep = detect_lemma_violations(d, apg, colors=args.colors)
    _emit_json(rep.to_jsonable())
    return 0


def cmd_discharge(args) -> int:
    d = _load(drawing_from_json, args.drawing)
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(d, apg)
    ft = classify_faces(apg, vt)
    rep = detect_lemma_violations(d, apg)
    ar = audit(apg, vt, ft, rep)
    _emit_json(ar.to_jsonable(include_transfers=args.transfers))
    return 0


GRAPH_FAMILIES = {
    "cycle": generators.cycle,
    "complete": generators.complete,
    "complete-minus-edge": generators.complete_minus_edge,
    "subdivided-complete": generators.subdivided_complete,
}


def cmd_gen(args) -> int:
    if args.family == "random-one-planar":
        text = drawing_to_json(generators.random_one_planar(args.n, seed=args.seed))
    else:
        text = format_edge_list(GRAPH_FAMILIES[args.family](args.n))
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce_color(args) -> int:
    d = _load(drawing_from_json, args.drawing)
    res = color_by_reduction(d, k=args.k)
    if not res.ok:
        if args.format == "json":
            _emit_json({"ok": False, "trace": res.trace})
        else:
            sys.stdout.writelines(f"{line}\n" for line in res.trace)
        return 1
    if args.format == "json":
        _emit_json(
            {
                "ok": True,
                "k": res.coloring.k,
                "colors_used": len(set(res.coloring.assign.values())),
                "coloring": {str(v): c for v, c in sorted(res.coloring.assign.items())},
            }
        )
    else:
        sys.stdout.write(format_coloring(res.coloring))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oddcolor")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("chi-odd", help="exact odd chromatic number")
    sp.add_argument("graph")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--witness", help="write a witness coloring here")
    add_format(sp)
    sp.set_defaults(func=cmd_chi_odd)

    sp = sub.add_parser("verify", help="verify an odd coloring")
    sp.add_argument("graph")
    sp.add_argument("coloring")
    sp.add_argument("--k", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gstar", help="build the associated plane graph")
    sp.add_argument("drawing")
    sp.add_argument("--dot", help="write DOT of G* here")
    add_format(sp)
    sp.set_defaults(func=cmd_gstar)

    sp = sub.add_parser("classify", help="vertex and face taxonomy")
    sp.add_argument("drawing")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("lemmas", help="lemma-conclusion violations")
    sp.add_argument("drawing")
    sp.add_argument("--colors", type=int, default=PALETTE)
    sp.set_defaults(func=cmd_lemmas)

    sp = sub.add_parser("discharge", help="charge audit")
    sp.add_argument("drawing")
    sp.add_argument("--transfers", action="store_true")
    sp.set_defaults(func=cmd_discharge)

    sp = sub.add_parser("gen", help="generate instances")
    sp.add_argument("family", choices=(*GRAPH_FAMILIES, "random-one-planar"))
    sp.add_argument("n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("reduce-color", help="reduction-driven odd coloring")
    sp.add_argument("drawing")
    sp.add_argument("--k", type=int, default=PALETTE)
    add_format(sp)
    sp.set_defaults(func=cmd_reduce_color)

    return p


_parser: argparse.ArgumentParser | None = None  # built by the first call of main


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
