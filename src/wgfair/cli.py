"""Command line for the workbench.

    wgfair report <instance>

prints the level sizes of a named weakly globular double category and the
verdict of its weak globularity axioms, one line per failure.  Instances:

- ``nerve``: the free arrow as a double category with discrete level zero;
- ``family``: the surjection [0, 0, 1] onto the free arrow;
- ``wg<seed>``: ``generate_random_wg(seed)``, for example ``wg5``;
- ``micro``: the smallest instance failing axiom (c).

The exit status is 0 when every axiom holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from . import fincat as fc
from . import wgdouble as wg

INSTANCES = "nerve, family, micro or wg<seed>"


def free_arrow():
    return fc.thin_from_preorder(2, [(0, 0), (0, 1), (1, 1)])


def build_instance(name):
    """The named instance; ValueError for a name that is not one."""
    if name == "nerve":
        return wg.from_base_category(free_arrow())[0]
    if name == "family":
        return wg.generate_from_surjection(free_arrow(), [0, 0, 1])[0]
    if name == "micro":
        return wg.micro_counterexample()
    if name.startswith("wg") and name[2:].isdigit():
        return wg.generate_random_wg(int(name[2:]))[0]
    raise ValueError("unknown instance %r (have %s)" % (name, INSTANCES))


def report(x):
    """Print level sizes and axiom verdicts of x; 0 if weakly globular, else 1."""
    levels = [("x0", x.x0), ("x1", x.x1), ("pairs", x.pairs.cat),
              ("triples", x.chain(3).cat)]
    try:
        sd = wg.segal_data(x)
    except ValueError as exc:
        missing = "hat2, hat3 not built: %s" % exc
    else:
        levels += [("hat2", sd.hat2.cat), ("hat3", sd.hat3.cat)]
        missing = None
    for name, cat in levels:
        print("%-8s %d objects, %d morphisms" % (name, cat.n_obj, cat.n_mor))
    if missing:
        print(missing)
    problems = wg.validate_catwg2(x)
    for line in problems:
        print(line)
    if not problems:
        print("weakly globular: axioms (a), (b) and (c) hold")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="wgfair", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="level sizes and weak globularity verdict")
    rep.add_argument("instance", help=INSTANCES)
    args = ap.parse_args(argv)
    try:
        x = build_instance(args.instance)
    except ValueError as exc:
        ap.error(str(exc))
    return report(x)


if __name__ == "__main__":
    sys.exit(main())
