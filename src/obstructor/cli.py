"""Command-line entry points.

Subcommands: rootsys, lemma-key, complex, dims, diverge, lemma25.
Each accepts --json for machine output; the exit status is 0 only when
every executed check passes.  Reports can be saved under the directory
named by the OBSTRUCTOR_OUT environment variable with --save.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from . import catalog, complexes, conemaps, ordering, rootsystems

ACCEPTANCE_TYPES: list[tuple[str, int]] = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    + [("BC", n) for n in range(1, 9)]
)


def _emit(payload, as_json: bool, save: str | None, lines=None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif lines:
        for line in lines:
            print(line)
    if save:
        out_dir = os.environ.get("OBSTRUCTOR_OUT", ".")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, save)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"saved {path}", file=sys.stderr)


def _parse_type(text: str) -> tuple[str, int]:
    key = text.strip().upper()
    if key in rootsystems._FIXED_RANK:
        return key, rootsystems._FIXED_RANK[key]
    family = "BC" if key.startswith("BC") else key[:1]
    rank = key[len(family):]
    if not rank.isdecimal():
        raise ValueError(f"malformed type {text!r}: expected e.g. A3, C5, E8, BC4")
    return family, int(rank)


def cmd_rootsys(args) -> int:
    rs = rootsystems.build_root_system((args.family, args.rank))
    payload = rs.to_json()
    lines = [
        f"type {payload['family']}  rank {rs.rank}  positive roots {len(rs.positive_roots)}",
        "simple: " + " ".join(str(list(v)) for v in rs.simple),
        "positives:",
    ] + ["  " + str(list(v)) for v in rs.positive_roots]
    _emit(payload, args.json, args.save, lines)
    return 0


def _one_selector(args, *names) -> bool:
    """Is at most one of the selector options `names` given?  Prints the usage line if not."""
    values = {f"--{name}": getattr(args, name) for name in names}
    given = [name for name, v in values.items() if v is not None and v is not False]  # a 0 is given
    if len(given) > 1:
        print("give only one of " + "/".join(given), file=sys.stderr)
    return len(given) <= 1


def cmd_lemma_key(args) -> int:
    if not _one_selector(args, "type", "all"):
        return 2
    if args.all:
        specs = ACCEPTANCE_TYPES
    elif args.type:
        specs = [_parse_type(args.type)]
    else:
        print("need --type or --all", file=sys.stderr)
        return 2
    reports = []
    ok = True
    lines = []
    for fam, rank in specs:
        rs = rootsystems.build_root_system((fam, rank))
        name = rs.components[0].name
        try:
            rep = ordering.exhaustive_verify(rs, name=name)
        except ordering.ExhaustiveCheckFailure as exc:
            print(f"{name}: FAIL ({exc})", file=sys.stderr)
            ok = False
            continue
        reports.append(rep.to_json())
        verdict = "PASS" if rep.passed else "FAIL"
        ok = ok and rep.passed
        lines.append(
            f"{name}: {rep.labelings_checked} labelings, "
            f"{rep.witnesses_found} witnesses, {verdict}"
        )
    _emit({"reports": reports, "pass": ok}, args.json, args.save, lines)
    return 0 if ok else 1


COMPLEX_MAX_CELLS = 10 ** 6  # L(5) has 91,839 simplices, L(6) 75,735 facets


def _obstructor_count(n: int, base: int) -> int:
    """prod_{k=2..n} (base^(k-1) + 1): at base 3 the simplices of L(n), the
    empty one included, at base 2 its facets.

    L(n) joins, per column k, the (k-2)-sphere on its k - 1 signed positions
    (3^(k-1) faces with the empty one, 2^(k-1) facets) and its added point.
    """
    return math.prod(base ** (k - 1) + 1 for k in range(2, n + 1))


def cmd_complex(args) -> int:
    if not _one_selector(args, "cuspidal", "doubled", "obstructor"):
        return 2
    if args.cuspidal is not None:
        x = complexes.arrow_complex(args.cuspidal)
        name = f"C({args.cuspidal})"
    elif args.doubled is not None:
        x = complexes.signed_double(complexes.arrow_complex(args.doubled))
        name = f"SC({args.doubled})"
    elif args.obstructor is not None:
        n = min(args.obstructor, 8)  # the counts grow with n; n = 7 has more facets than the limit
        for count, cells, asked in ((_obstructor_count(n, 2), "facets", True),
                                    (_obstructor_count(n, 3) - 1, "simplices", args.betti or args.f_vector)):
            if asked and count > COMPLEX_MAX_CELLS:
                print(f"complex --obstructor {args.obstructor}: {'more than ' * (args.obstructor > n)}"
                      f"{count:,} {cells}, over the limit of {COMPLEX_MAX_CELLS:,}", file=sys.stderr)
                return 2
        x = complexes.obstructor_subcomplex(args.obstructor)
        name = f"L({args.obstructor})"
    else:
        print("need one of --cuspidal/--doubled/--obstructor", file=sys.stderr)
        return 2
    payload: dict = {"complex": name, "vertices": len(x.vertices), "facets": len(x.facets)}
    lines = [f"{name}: {len(x.vertices)} vertices, {len(x.facets)} maximal simplices"]
    if args.f_vector:
        fv = x.f_vector()
        payload["f_vector"] = list(fv)
        payload["euler"] = x.euler_characteristic()
        lines.append(f"f-vector {fv}  euler {payload['euler']}")
    if args.betti:
        b = complexes.betti_numbers(x)
        payload["betti"] = list(b)
        lines.append(f"betti {b}")
    if args.emit:
        payload["data"] = x.to_json()
    _emit(payload, args.json, args.save, lines)
    return 0


def _spec_from_args(args) -> catalog.GroupSpec:
    if args.group == "so":
        return catalog.GroupSpec(
            "so_q", witt=args.witt, ambient=args.ambient, dim_xm=args.dim_xm
        )
    r, s = args.real_places, args.complex_places  # GroupSpec refuses any given for Z
    places = None if args.ring == "Z" and (r, s) == (None, None) else (1 if r is None else r, s or 0)
    return catalog.GroupSpec(f"{args.group}_{args.ring.lower()}", n=args.n, places=places)


def cmd_dims(args) -> int:
    if not _one_selector(args, "group", "all"):
        return 2
    if args.all:
        specs = catalog.catalog_grid()
        # shown for completeness; these rows are flagged, not asserted
        specs += [catalog.GroupSpec("sp_o", n=n, places=(2, 0)) for n in (2, 3)]
    elif args.group:
        specs = [_spec_from_args(args)]
    else:
        print("need --group or --all", file=sys.stderr)
        return 2
    rows = []
    ok = True
    lines = [f"{'group':34} {'dim':>5} {'shape':28} {'m':>5} {'m+2=dim':>8}"]
    for spec in specs:
        rep = catalog.identity_check(spec)
        rows.append(rep.to_json())
        if not rep.identity_holds and not rep.note:
            ok = False
        sphere = [] if rep.obstructor.sphere_dim is None else [rep.obstructor.sphere_dim]
        shape_txt = (f"S{sphere} " if sphere else "") + str(list(rep.obstructor.plus_dims))
        lines.append(
            f"{spec.label():34} {rep.dim_symmetric:>5} {shape_txt:28} {rep.m:>5} "
            f"{str(rep.identity_holds).lower():>8}"
            + ("  (flagged)" if rep.note else "")
        )
    _emit({"rows": rows, "pass": ok}, args.json, args.save, lines)
    return 0 if ok else 1


DIVERGE_MAX_PAIRS = 10 ** 6  # n = 4 has 58,096 (heisenberg) and 171,774 (split) disjoint pairs


def _disjoint_pairs(map_name: str, n: int) -> int:
    """Unordered disjoint pairs of nonempty simplices of the map's domain at n >= 1 (README)."""
    p, ks = n * (n - 1) // 2, range(2, n + 1)
    # ordered disjoint pairs, and simplices, the empty simplex included
    both, one = (7 ** p, 3 ** p) if map_name == "heisenberg" else (
        math.prod(7 ** (k - 1) + 2 * 3 ** (k - 1) for k in ks), _obstructor_count(n, 3))
    return (both - 2 * one + 1) // 2


def cmd_diverge(args) -> int:
    pairs = _disjoint_pairs(args.map, max(1, min(args.n, 5)))  # it grows with n; n = 5 is over the limit
    if pairs > DIVERGE_MAX_PAIRS:
        print(f"diverge --map {args.map} --n {args.n}: {'more than ' * (args.n > 5)}{pairs:,} disjoint "
              f"pairs, over the limit of {DIVERGE_MAX_PAIRS:,}", file=sys.stderr)
        return 2
    builder = conemaps.heisenberg_map if args.map == "heisenberg" else conemaps.split_map
    cone_map = builder(args.n)
    pairing = "aligned" if args.aligned else "cross"
    div = conemaps.divergence_suite(
        cone_map, pairing=pairing, seed=args.seed, collect_rows=args.detail
    )
    prop = conemaps.properness_test(cone_map, seed=args.seed)
    ok = div.all_passed and prop.all_passed
    lines = []
    if args.detail:
        lines.append(f"{'sigma':44} {'tau':30} {'D(first)':>9} {'D(last)':>9} verdict")
        lines.extend(
            f"{r['sigma']:44} {r['tau']:30} {r['d'][0]:>9.2f} {r['d'][1]:>9.2f} {r['verdict']}"
            for r in div.rows
        )
    lines += [
        f"{cone_map.name} divergence: {div.passed}/{div.total} pairs PASS "
        f"(min growth {div.min_growth:.2f}, {div.elapsed_s:.1f}s, {div.sampling})",
        f"{cone_map.name} properness: {prop.passed}/{prop.total} rays PASS "
        f"(min growth {prop.min_growth:.2f}, {prop.elapsed_s:.1f}s)",
        "PASS" if ok else "FAIL",
    ]
    _emit({"divergence": div.to_json(), "properness": prop.to_json(), "pass": ok},
          args.json, args.save, lines)
    return 0 if ok else 1


def cmd_lemma25(args) -> int:
    if args.decades < 1:
        raise ValueError(f"decades must be at least 1, got {args.decades}")
    magnitudes = [10 ** k for k in range(1, args.decades + 1)]
    results = [
        conemaps.split_growth_experiment(args.n, m, args.samples, args.seed)
        for m in magnitudes
    ]
    increasing = all(
        a.min_max_entry < b.min_max_entry for a, b in zip(results, results[1:])
    )
    ok = increasing and results[-1].min_max_entry > 1000
    lines = [
        f"n={args.n} samples={args.samples} seed={args.seed}",
        f"{'magnitude':>12} {'min max|S|':>14} {'max max|S|':>14}",
    ] + [
        f"{r.magnitude:>12} {r.min_max_entry:>14} {r.max_max_entry:>14}" for r in results
    ] + [("PASS" if ok else "FAIL") + f" (strictly increasing: {increasing})"]
    _emit(
        {"rows": [r.to_json() for r in results], "strictly_increasing": increasing, "pass": ok},
        args.json,
        args.save,
        lines,
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="obstructor")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--save", metavar="FILE", help="also save JSON under $OBSTRUCTOR_OUT")

    sp = sub.add_parser("rootsys", help="emit a root system")
    sp.add_argument("--family", required=True, choices=rootsystems.FAMILIES)
    sp.add_argument("--rank", type=int, required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_rootsys)

    sp = sub.add_parser("lemma-key", help="exhaustively verify labeling witnesses")
    sp.add_argument("--type", help="e.g. A3, C5, E8, BC4")
    sp.add_argument("--all", action="store_true", help="run the full acceptance grid")
    add_common(sp)
    sp.set_defaults(fn=cmd_lemma_key)

    sp = sub.add_parser("complex", help="emit complexes, f-vectors, betti numbers")
    sp.add_argument("--cuspidal", type=int, metavar="N", help="arrow complex on N symbols")
    sp.add_argument("--doubled", type=int, metavar="N", help="its signed double")
    sp.add_argument("--obstructor", type=int, metavar="N", help="the join subcomplex")
    sp.add_argument("--betti", action="store_true")
    sp.add_argument("--f-vector", dest="f_vector", action="store_true")
    sp.add_argument("--emit", action="store_true", help="include the full complex")
    add_common(sp)
    sp.set_defaults(fn=cmd_complex)

    sp = sub.add_parser("dims", help="dimension-identity tables")
    sp.add_argument("--group", choices=("sl", "sp", "so"))
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--ring", choices=("Z", "O"), default="Z")
    sp.add_argument("--real-places", type=int, help="real places of O (default 1)")
    sp.add_argument("--complex-places", type=int, help="complex place pairs of O (default 0)")
    sp.add_argument("--witt", type=int, help="q for SO(Q)")
    sp.add_argument("--ambient", type=int, help="dim of the quadratic space")
    sp.add_argument("--dim-xm", type=int, help="anisotropic-kernel manifold dim")
    sp.add_argument("--all", action="store_true", help="run the full catalog grid")
    add_common(sp)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("diverge", help="divergence and properness certification")
    sp.add_argument("--map", choices=("heisenberg", "split"), required=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--aligned", action="store_true", help="aligned point pairing (bulk mode)")
    sp.add_argument("--detail", action="store_true", help="emit per-pair rows")
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(fn=cmd_diverge)

    sp = sub.add_parser("lemma25", help="split-product growth experiment")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--decades", type=int, default=6, help="magnitudes 10..10^decades")
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(fn=cmd_lemma25)

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, rootsystems.InvalidRank) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
