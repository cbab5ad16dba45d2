"""The instances the test modules share.

``free_arrow`` is the base category most instances are built over.  The
named double categories are the command line's (``cli.build_instance``)
plus tf2, the surjection of two points onto the point; random instances are
named "seed <n>" here and "wg<n>" on the command line.
"""

import functools

from wgfair import cli
from wgfair import fincat as fc
from wgfair import wgdouble as wg

free_arrow = cli.free_arrow


def point():
    return fc.thin_from_preorder(1, [(0, 0)])


def cyclic3():
    return fc.FinCat(1, [0, 0, 0], [0, 0, 0], [0],
                     {(i, j): (i + j) % 3 for i in range(3) for j in range(3)})


def surjection(name):
    """(instance, aux) from the generators: "nerve", "family", "tf2" or "seed <n>"."""
    if name == "nerve":
        return wg.from_base_category(free_arrow())
    if name == "family":
        return wg.generate_from_surjection(free_arrow(), [0, 0, 1])
    if name == "tf2":
        return wg.generate_from_surjection(point(), [0, 0])
    return wg.generate_random_wg(int(name[len("seed "):]))


def double(name):
    """The named double category: "micro" or a name ``surjection`` takes."""
    if name == "tf2":
        return surjection(name)[0]
    return cli.build_instance(name.replace("seed ", "wg"))


def builders(names, make=double):
    """{name: zero-argument builder}, in the given order, for parametrized corpora."""
    return {name: functools.partial(make, name) for name in names}


def seeds(numbers):
    return ["seed %d" % s for s in numbers]
