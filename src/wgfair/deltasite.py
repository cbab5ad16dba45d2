"""Index shapes: ordinal maps and the colored semi-ordinal site.

A colored ordinal is a row of dots joined by plain ("-") or colored ("=")
edges, written "o-o=o".  Maps are strictly increasing dot maps sending each
colored edge over a fully colored path; plain edges are unconstrained, so a
link can be set but never broken.  Collapsing maximal colored runs is the
functor back to ordinary ordinals.  The truncation window, on which fair
structures are evaluated, is every colored ordinal with at most MAX_DOTS
dots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class SimplexMap:
    """Weakly increasing map {0..src_rank} -> {0..tgt_rank}."""

    src_rank: int
    tgt_rank: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not all(isinstance(v, int) for v in (self.src_rank, self.tgt_rank) + self.values):
            raise ValueError("the simplex map holds an entry that is not an id")
        if len(self.values) != self.src_rank + 1:
            raise ValueError("need one value per source index")
        if any(not 0 <= v <= self.tgt_rank for v in self.values):
            raise ValueError("value out of range")
        if any(self.values[i] > self.values[i + 1] for i in range(self.src_rank)):
            raise ValueError("values must be weakly increasing")


def identity_simplex(n):
    return SimplexMap(n, n, range(n + 1))


def coface(i, k):
    """The injection [k-1] -> [k] that skips i."""
    return SimplexMap(k - 1, k, tuple(v for v in range(k + 1) if v != i))


def codegeneracy(i, k):
    """The surjection [k+1] -> [k] that repeats i."""
    return SimplexMap(k + 1, k, tuple(v if v <= i else v - 1 for v in range(k + 2)))


def compose_simplex(g, f):
    """g after f."""
    if f.tgt_rank != g.src_rank:
        raise ValueError("ordinal maps are not composable")
    return SimplexMap(f.src_rank, g.tgt_rank, [g.values[v] for v in f.values])


@dataclass(frozen=True)
class ColoredOrdinal:
    """dots many dots; edge i joins dots i and i+1, colored when i in colored."""

    dots: int
    colored: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colored", frozenset(self.colored))
        if not all(isinstance(v, int) for v in (self.dots, *self.colored)):
            raise ValueError("the colored ordinal holds an entry that is not an id")
        if self.dots < 1:
            raise ValueError("at least one dot is required")
        if any(not 0 <= e < self.dots - 1 for e in self.colored):
            raise ValueError("colored edge out of range")

    def text(self):
        return "o" + "".join("=o" if i in self.colored else "-o"
                             for i in range(self.dots - 1))

    def __repr__(self):
        return self.text()


def parse_ordinal(text):
    if not isinstance(text, str):
        raise ValueError("malformed ordinal text %r" % (text,))
    if not text or text[0] != "o":
        raise ValueError("ordinal text must start with a dot")
    dots, colored, i = 1, set(), 1
    while i < len(text):
        if text[i] not in "-=" or i + 1 >= len(text) or text[i + 1] != "o":
            raise ValueError("malformed ordinal text %r" % text)
        if text[i] == "=":
            colored.add(dots - 1)
        dots += 1
        i += 2
    return ColoredOrdinal(dots, frozenset(colored))


def classes(obj):
    """Maximal colored runs of dots, in order."""
    out, cur = [], [0]
    for i in range(obj.dots - 1):
        if i in obj.colored:
            cur.append(i + 1)
        else:
            out.append(cur)
            cur = [i + 1]
    out.append(cur)
    return out


def validate_fat_map(src, tgt, dotmap):
    """Problems with dotmap as a colored map src -> tgt (empty list = valid)."""
    dotmap = tuple(dotmap)
    if len(dotmap) != src.dots:
        raise ValueError("need one value per source dot")
    if not all(isinstance(v, int) for v in dotmap):
        raise ValueError("the dot map holds an entry that is not an id")
    if any(not 0 <= v < tgt.dots for v in dotmap):
        raise ValueError("dot value out of range")
    problems = []
    for i in range(src.dots - 1):
        if dotmap[i] >= dotmap[i + 1]:
            problems.append("dot map is not strictly increasing at edge %d" % i)
    for i in sorted(src.colored):
        if i + 1 < src.dots and dotmap[i] < dotmap[i + 1]:
            if any(j not in tgt.colored for j in range(dotmap[i], dotmap[i + 1])):
                problems.append("colored edge %d maps over a plain edge" % i)
    return problems


@dataclass(frozen=True)
class FatMap:
    src: ColoredOrdinal
    tgt: ColoredOrdinal
    dotmap: tuple

    def __post_init__(self):
        object.__setattr__(self, "dotmap", tuple(self.dotmap))
        problems = validate_fat_map(self.src, self.tgt, self.dotmap)
        if problems:
            raise ValueError(problems[0])

    def __repr__(self):
        return "%s -> %s via %s" % (self.src.text(), self.tgt.text(), self.dotmap)


def fat_identity(obj):
    return FatMap(obj, obj, range(obj.dots))


def compose_fat(g, f):
    """g after f."""
    if f.tgt != g.src:
        raise ValueError("colored maps are not composable")
    return FatMap(f.src, g.tgt, [g.dotmap[v] for v in f.dotmap])


def collapse(x):
    """Quotient by colored runs: an ordinal rank for objects, an ordinal map for maps."""
    if isinstance(x, ColoredOrdinal):
        return len(classes(x)) - 1
    src_classes, tgt_classes = classes(x.src), classes(x.tgt)
    tgt_class_of = {d: w for w, cls in enumerate(tgt_classes) for d in cls}
    # colored edges go over colored edges, so a run lands in one run: read its first dot
    values = [tgt_class_of[x.dotmap[cls[0]]] for cls in src_classes]
    return SimplexMap(len(src_classes) - 1, len(tgt_classes) - 1, values)


def enumerate_hom(src, tgt):
    """All colored maps src -> tgt, ordered lexicographically by dot map."""
    out = []
    for comb in combinations(range(tgt.dots), src.dots):
        if not validate_fat_map(src, tgt, comb):
            out.append(FatMap(src, tgt, comb))
    return out


MAX_DOTS = 4


def window_objects():
    """Every colored ordinal with at most MAX_DOTS dots, canonically ordered."""
    out = []
    for dots in range(1, MAX_DOTS + 1):
        for mask in range(1 << (dots - 1)):
            out.append(ColoredOrdinal(dots, frozenset(
                i for i in range(dots - 1) if mask >> i & 1)))
    return out
