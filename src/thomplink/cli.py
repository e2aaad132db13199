"""Command-line interface.

Subcommands
-----------
element parse|reduce|mul|inv|word   parse words / tree-pair JSON, arithmetic
link ELEM [--simplify]              link diagram (--format tait-svg: its Tait graph)
bracket ELEM [...]                  Kauffman bracket of the element's link
conjugate W1 W2                     conjugacy verdict via annular diagrams
experiment thm1 --n K [--seed W]    one link, distinct conjugacy classes
experiment thm2 --gen x0|x1 --n K   2-bridge links from one conjugacy class
oracle two-bridge CODE              4-plat oracle for a Conway code

Exit status: 0 on success, 1 on domain errors (bad words, bracket state bounds),
2 on usage errors.  Output is deterministic for fixed arguments; JSON
payloads carry a schema version.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bracket import DEFAULT_STATE_LIMIT, StateLimitError, equivalent_up_to_units, kauffman_bracket
from .conway import ConwayCode, continued_fraction, two_bridge_diagram
from .families import conjugate, element_a, g_element, h_element, h_sequence
from .laurent import DELTA
from .links import LinkDiagram, component_count, direct_link, simplify
from .pairs import (
    MAX_WORD_LEAVES,
    TreePair,
    Word,
    from_word,
    make_generator,
    reduce_pair,
    to_word,
)
from .strand import annular_of, are_conjugate, canonical_code, component_count as annular_components, reduce_annular
from .svg import direct_link_svg, tait_graph_svg, tree_pair_svg
from .tait import tait_graph

SCHEMA = 1
# the most leaves that ``experiment thm1`` may build over all its rows; its
# time grows with that sum (--n 1000 builds 2,003,000 leaves and took 54 s
# on a 2-core VM with Python 3.11), so an accepted run answers in about a
# minute
THM1_LEAF_BUDGET = 2_200_000
# the largest n that ``experiment thm2`` accepts; its rows are fixed
# families of at most 2n + 3 leaves, far below MAX_WORD_LEAVES, and each
# merges twist regions of O(n) crossings into none, so the bracket needs no
# state bound and the run is cubic in n (--n 250 took about 4 s for either
# generator on a 2-core VM with Python 3.11)
THM2_MAX_N = 250


class DomainError(ValueError):
    pass


def _parse_element(text: str) -> TreePair:
    text = text.strip()
    try:
        if text.startswith("{"):
            return TreePair.from_json(text)
        return from_word(Word.parse(text))
    except ValueError as exc:  # a WordSyntaxError is one
        # the echo is cut short: an input can be megabytes long
        raise DomainError(f"cannot parse element {repr(text)[:80]}: {str(exc)[:160]}") from exc


def _element_payload(p: TreePair) -> dict:
    return {
        "schema": SCHEMA,
        "source": p.source.bits,
        "target": p.target.bits,
        "leaves": p.leaf_count,
        "word": str(to_word(p)),
    }


def _print_element(p: TreePair, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_element_payload(p)))
    elif fmt == "svg":
        print(tree_pair_svg(p))
    else:
        w = str(to_word(p))
        print(f"source: {p.source.bits}")
        print(f"target: {p.target.bits}")
        print(f"leaves: {p.leaf_count}")
        print(f"word:   {w if w else '(identity)'}")


def _cmd_element(args) -> int:
    verb = args.verb
    if verb == "parse":
        p = _parse_element(args.operands[0])
    elif verb == "reduce":
        p = reduce_pair(_parse_element(args.operands[0]))
    elif verb == "mul":
        p = _parse_element(args.operands[0]) * _parse_element(args.operands[1])
    elif verb == "inv":
        p = ~_parse_element(args.operands[0])
    else:  # word
        p = _parse_element(args.operands[0])
        w = str(to_word(p))
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, "word": w}))
        else:
            print(w if w else "(identity)")
        return 0
    _print_element(p, args.format)
    return 0


def _link_payload(d: LinkDiagram) -> dict:
    return {
        "schema": SCHEMA,
        "crossings": [list(c) for c in d.crossings],
        "free_loops": d.free_loops,
        "components": component_count(d),
    }


def _cmd_link(args) -> int:
    p = _parse_element(args.element)
    if args.format in ("svg", "tait-svg"):
        if args.simplify:
            raise DomainError(f"{args.format} output renders the unsimplified construction")
        print(direct_link_svg(p) if args.format == "svg" else tait_graph_svg(tait_graph(p)))
        return 0
    d = direct_link(p)
    removed = 0
    if args.simplify:
        rep = simplify(d)
        d, removed = rep.diagram, rep.removed_unknots
    if args.format == "json":
        payload = _link_payload(d)
        payload["removed_unknots"] = removed
        print(json.dumps(payload))
    elif args.format == "pd":
        print(d.pd_text())
    else:
        print(f"crossings:  {d.crossing_count}")
        print(f"free loops: {d.free_loops}")
        print(f"components: {component_count(d)}")
        print(d.pd_text())
    return 0


def _cmd_bracket(args) -> int:
    p = _parse_element(args.element)
    d = direct_link(p)
    if args.simplify:
        d = simplify(d).diagram
    value = kauffman_bracket(d, args.max_states)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "bracket": str(value)}))
    else:
        print(value)
    return 0


def _cmd_conjugate(args) -> int:
    g = _parse_element(args.first)
    h = _parse_element(args.second)
    verdict = are_conjugate(g, h)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "conjugate": verdict}))
    else:
        print("conjugate" if verdict else "not conjugate")
    return 0


def _cmd_experiment_thm1(args) -> int:
    seed = _parse_element(args.seed) if args.seed is not None else element_a()
    # each wrap adds four leaves to the reduced seed, so the rows hold
    # n * seed + 4 * (0 + 1 + ... + (n - 1)) leaves in all
    n, seed_leaves = args.n, reduce_pair(seed).leaf_count
    last = seed_leaves + 4 * (n - 1)
    if last > MAX_WORD_LEAVES:
        raise DomainError(f"h{n} would have {last} leaves, more than the bound {MAX_WORD_LEAVES}")
    total = n * seed_leaves + 2 * n * (n - 1)
    if total > THM1_LEAF_BUDGET:
        raise DomainError(
            f"the {n} rows would have {total} leaves in all, more than the budget {THM1_LEAF_BUDGET}"
        )
    rows = []
    brackets = []
    for i, h in enumerate(h_sequence(seed, n), 1):
        rep = simplify(direct_link(h))
        br = kauffman_bracket(rep.diagram, args.max_states)
        r = reduce_annular(annular_of(h))
        rows.append(
            {
                "i": i,
                "leaves": h.leaf_count,
                "bracket": str(br),
                "code": canonical_code(r),
                "components": annular_components(r),
            }
        )
        brackets.append(br)
    same_link = all(equivalent_up_to_units(brackets[0], b, 0) for b in brackets)
    distinct = len({r["code"] for r in rows}) == len(rows)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "sequence": "wrapped",
                    "n": n,
                    "seed_word": str(to_word(seed)),
                    "rows": rows,
                    "same_link": same_link,
                    "codes_distinct": distinct,
                }
            )
        )
    else:
        for r in rows:
            print(
                f"h{r['i']}: leaves={r['leaves']} components={r['components']} "
                f"bracket={r['bracket']}"
            )
        print(f"brackets all equivalent to h1: {'yes' if same_link else 'NO'}")
        print(f"annular codes pairwise distinct: {'yes' if distinct else 'NO'}")
    return 0


def _cmd_experiment_thm2(args) -> int:
    if args.n > THM2_MAX_N:
        raise DomainError(f"--n {args.n} is more than the bound {THM2_MAX_N} on thm2 rows")
    gen_index = 0 if args.gen == "x0" else 1
    x = make_generator(gen_index)
    rows = []
    for n in range(1, args.n + 1):
        base = g_element(n) if gen_index == 0 else h_element(n)
        c = conjugate(base, x)
        rep = simplify(direct_link(c))
        br = kauffman_bracket(rep.diagram)
        code = ConwayCode([1] * (2 * n))
        oracle = kauffman_bracket(two_bridge_diagram(code))
        if gen_index == 0:
            match = equivalent_up_to_units(br, oracle, 0)
            target = str(code)
        else:
            match = equivalent_up_to_units(br, oracle * DELTA, 0)
            target = f"unknot + {code}"
        rows.append(
            {
                "n": n,
                "conjugate_to_generator": are_conjugate(c, x),
                "link_matches": match,
                "target": target,
            }
        )
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "generator": args.gen, "rows": rows}))
    else:
        for r in rows:
            print(
                f"n={r['n']}: conjugate to {args.gen}: "
                f"{'yes' if r['conjugate_to_generator'] else 'NO'}; "
                f"link matches {r['target']}: {'yes' if r['link_matches'] else 'NO'}"
            )
    return 0


def _cmd_oracle(args) -> int:
    try:
        code = ConwayCode.parse(args.code)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    d = two_bridge_diagram(code)
    p, q = continued_fraction(code)
    br = kauffman_bracket(d)
    if args.format == "json":
        payload = _link_payload(d)
        payload.update({"fraction": [p, q], "bracket": str(br), "code": str(code)})
        print(json.dumps(payload))
    elif args.format == "pd":
        print(d.pd_text())
    else:
        print(f"code:       {code}")
        print(f"fraction:   {p}/{q}")
        print(f"components: {component_count(d)}")
        print(f"bracket:    {br}")
        print(d.pd_text())
    return 0


def _add_format(p, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def _positive_int(text: str) -> int:
    try:  # ASCII digits only; int() also reads other scripts' digits
        value = int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_state_bound(p) -> None:
    p.add_argument(
        "--max-states",
        type=_positive_int,
        default=DEFAULT_STATE_LIMIT,
        help="bound on the states of the contraction after the twist pass (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomplink",
        description="Tree-pair elements, their links, brackets, and conjugacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("element", help="parse and combine tree-pair elements")
    pe.add_argument("verb", choices=("parse", "reduce", "mul", "inv", "word"))
    pe.add_argument("operands", nargs="+", help="word text or tree-pair JSON")
    _add_format(pe, ("text", "json", "svg"))
    pe.set_defaults(func=_cmd_element)

    pl = sub.add_parser("link", help="link diagram of an element")
    pl.add_argument("element")
    pl.add_argument("--simplify", action="store_true")
    _add_format(pl, ("text", "json", "pd", "svg", "tait-svg"))
    pl.set_defaults(func=_cmd_link)

    pb = sub.add_parser("bracket", help="Kauffman bracket of an element's link")
    pb.add_argument("element")
    pb.add_argument("--no-simplify", dest="simplify", action="store_false")
    _add_state_bound(pb)
    _add_format(pb)
    pb.set_defaults(func=_cmd_bracket)

    pc = sub.add_parser("conjugate", help="decide conjugacy of two elements")
    pc.add_argument("first")
    pc.add_argument("second")
    _add_format(pc)
    pc.set_defaults(func=_cmd_conjugate)

    px = sub.add_parser("experiment", help="theorem-reproduction experiments")
    xsub = px.add_subparsers(dest="experiment", required=True)
    p1 = xsub.add_parser("thm1", help="one link from distinct conjugacy classes")
    p1.add_argument("--n", type=_positive_int, default=5)
    p1.add_argument("--seed", help="seed element word (default: the 5-leaf wrapper)")
    _add_state_bound(p1)
    _add_format(p1)
    p1.set_defaults(func=_cmd_experiment_thm1)
    p2 = xsub.add_parser("thm2", help="2-bridge links from one conjugacy class")
    p2.add_argument("--gen", choices=("x0", "x1"), required=True)
    p2.add_argument("--n", type=_positive_int, default=3)
    _add_format(p2)
    p2.set_defaults(func=_cmd_experiment_thm2)

    po = sub.add_parser("oracle", help="reference diagrams")
    osub = po.add_subparsers(dest="oracle", required=True)
    ob = osub.add_parser("two-bridge", help="4-plat for a Conway code like 1,1,1,1")
    ob.add_argument("code")
    _add_format(ob, ("text", "json", "pd"))
    ob.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "element":
        need = 2 if args.verb == "mul" else 1
        if len(args.operands) != need:
            parser.error(f"element {args.verb} takes {need} operand(s)")
    try:
        return args.func(args)
    except (DomainError, StateLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
