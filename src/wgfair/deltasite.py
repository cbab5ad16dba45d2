"""Index shapes: ordinal maps and the colored semi-ordinal site.

A colored ordinal is a row of dots joined by plain ("-") or colored ("=")
edges, written "o-o=o".  Maps are strictly increasing dot maps sending each
colored edge over a fully colored path; plain edges are unconstrained, so a
link can be set but never broken.  Collapsing maximal colored runs is the
functor back to ordinary ordinals, and the lifting operations here go the
other way.
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
        if len(self.values) != self.src_rank + 1:
            raise ValueError("need one value per source index")
        if any(not 0 <= v <= self.tgt_rank for v in self.values):
            raise ValueError("value out of range")
        if any(self.values[i] > self.values[i + 1] for i in range(self.src_rank)):
            raise ValueError("values must be weakly increasing")

    def __call__(self, i):
        return self.values[i]


def identity_simplex(n):
    return SimplexMap(n, n, range(n + 1))


def compose_simplex(g, f):
    """g after f."""
    if f.tgt_rank != g.src_rank:
        raise ValueError("ordinal maps are not composable")
    return SimplexMap(f.src_rank, g.tgt_rank, [g.values[v] for v in f.values])


def is_mono_simplex(f):
    return all(f.values[i] < f.values[i + 1] for i in range(f.src_rank))


def is_epi_simplex(f):
    return set(f.values) == set(range(f.tgt_rank + 1))


def epi_mono_factor_delta(f):
    """The unique epi-mono factorization (eta, eps) with f = eps . eta."""
    image = sorted(set(f.values))
    index = {v: i for i, v in enumerate(image)}
    eta = SimplexMap(f.src_rank, len(image) - 1, [index[v] for v in f.values])
    eps = SimplexMap(len(image) - 1, f.tgt_rank, image)
    return eta, eps


@dataclass(frozen=True)
class ColoredOrdinal:
    """dots many dots; edge i joins dots i and i+1, colored when i in colored."""

    dots: int
    colored: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colored", frozenset(self.colored))
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


def plain(rank):
    return ColoredOrdinal(rank + 1, frozenset())


def all_colored(rank):
    """rank+1 dots, every edge colored; collapses to a single class."""
    return ColoredOrdinal(rank + 1, frozenset(range(rank)))


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

    def __call__(self, d):
        return self.dotmap[d]

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
    values = []
    for cls in src_classes:
        hits = {tgt_class_of[x.dotmap[d]] for d in cls}
        if len(hits) != 1:
            raise ValueError("colored run %r lands in target runs %r, not one"
                             % (cls, sorted(hits)))
        values.append(hits.pop())
    return SimplexMap(len(src_classes) - 1, len(tgt_classes) - 1, values)


def enumerate_hom(src, tgt):
    """All colored maps src -> tgt, ordered lexicographically by dot map."""
    out = []
    for comb in combinations(range(tgt.dots), src.dots):
        if not validate_fat_map(src, tgt, comb):
            out.append(FatMap(src, tgt, comb))
    return out


@dataclass(frozen=True)
class TruncationWindow:
    max_dots: int = 4
    max_level: int = 3

    def __post_init__(self):
        if self.max_dots < 2 or self.max_level < 3:
            raise ValueError("window too small: associativity checks need level 3 and two dots")


def window_objects(window):
    """Every colored ordinal with at most window.max_dots dots, canonically ordered."""
    out = []
    for dots in range(1, window.max_dots + 1):
        for mask in range(1 << (dots - 1)):
            out.append(ColoredOrdinal(dots, frozenset(
                i for i in range(dots - 1) if mask >> i & 1)))
    return out


def class_top_section(obj, rank=None):
    """Canonical section of the collapse: class j's dot is the top of run j."""
    cls = classes(obj)
    if rank is not None and rank != len(cls) - 1:
        raise ValueError("rank mismatch: object collapses to %d" % (len(cls) - 1))
    return FatMap(plain(len(cls) - 1), obj, [c[-1] for c in cls])


def mono_lift(eps, target):
    """Lift of an injective ordinal map against a target's collapse.

    The lift includes, in full, every colored run the map's image touches;
    its source has those runs colored and plain edges between them.
    """
    if not is_mono_simplex(eps):
        raise ValueError("only injective ordinal maps lift by run inclusion")
    tgt_classes = classes(target)
    if eps.tgt_rank != len(tgt_classes) - 1:
        raise ValueError("rank mismatch with the target's collapse")
    kept = [tgt_classes[eps.values[v]] for v in range(eps.src_rank + 1)]
    dots = [d for cls in kept for d in cls]
    colored, pos = set(), 0
    for cls in kept:
        colored.update(range(pos, pos + len(cls) - 1))
        pos += len(cls)
    return FatMap(ColoredOrdinal(len(dots), frozenset(colored)), target, dots)


def epi_mono_lift_fat(f):
    """Factor a colored map through the runs its collapse's image picks out.

    Returns (eta, eps) with eps . eta = f and collapses equal to the epi-mono
    parts of collapse(f).
    """
    eta_plain, eps_plain = epi_mono_factor_delta(collapse(f))
    eps_fat = mono_lift(eps_plain, f.tgt)
    pos = {d: i for i, d in enumerate(eps_fat.dotmap)}
    eta_fat = FatMap(f.src, eps_fat.src, [pos[d] for d in f.dotmap])
    if compose_fat(eps_fat, eta_fat) != f:
        raise ValueError("the run lift does not factor %r" % (f,))
    if collapse(eta_fat) != eta_plain or collapse(eps_fat) != eps_plain:
        raise ValueError("the lifted factors of %r do not collapse to its"
                         " epi-mono factors" % (f,))
    return eta_fat, eps_fat


def _chunked(sizes):
    """Colored ordinal with one colored run per entry, sized accordingly."""
    colored, pos = set(), 0
    for s in sizes:
        colored.update(range(pos, pos + s - 1))
        pos += s
    return ColoredOrdinal(pos, frozenset(colored))


def _top_aligned(src_obj, tgt_obj):
    """Runwise map: k-th dot from the top of each run to the k-th from the top."""
    scl, tcl = classes(src_obj), classes(tgt_obj)
    if len(scl) != len(tcl):
        raise ValueError("run counts differ")
    dotmap = [None] * src_obj.dots
    for sc, tc in zip(scl, tcl):
        if len(sc) > len(tc):
            raise ValueError("run too small for top alignment")
        for k, d in enumerate(reversed(sc)):
            dotmap[d] = tc[len(tc) - 1 - k]
    return FatMap(src_obj, tgt_obj, dotmap)


@dataclass
class Interpolation:
    """The seven commuting squares tying two parallel factorizations together.

    mid_src and mid_tgt interpolate between the factorizations: mid_src has
    one run per collapse-epi fiber, mid_tgt extends it along the mono leg.
    checks maps the diagram names D1..D7 to their outcome.
    """

    mid_src: ColoredOrdinal
    mid_tgt: ColoredOrdinal
    insert_src: FatMap
    insert_tgt: FatMap
    bridge: FatMap
    to_first_mid: FatMap
    to_first_tgt: FatMap
    to_second_mid: FatMap
    to_second_tgt: FatMap
    checks: dict
    first_failure: str | None


def interpolants(eta1, eps1, eta2, eps2):
    """Interpolation objects and maps for two factorizations with equal collapses.

    Each (eta_i, eps_i) must compose, with collapse(eta_i) a surjection and
    collapse(eps_i) an injection, and the two collapse pairs must agree.
    Builds the shared middle objects and the seven comparison squares; a
    square that cannot be satisfied is reported in first_failure.
    """
    if eta1.tgt != eps1.src or eta2.tgt != eps2.src:
        raise ValueError("each factorization must compose")
    eta = collapse(eta1)
    eps = collapse(eps1)
    if collapse(eta2) != eta or collapse(eps2) != eps:
        raise ValueError("the two factorizations have different collapses")
    if not is_epi_simplex(eta) or not is_mono_simplex(eps):
        raise ValueError("need an epi-mono factorization pair")

    r, n = eta.tgt_rank, eps.tgt_rank
    fibers = [eta.values.count(v) for v in range(r + 1)]
    mid_src = _chunked(fibers)
    nm_sizes = [1] * (n + 1)
    for v in range(r + 1):
        nm_sizes[eps.values[v]] = fibers[v]
    mid_tgt = _chunked(nm_sizes)
    insert_src = class_top_section(mid_src)
    insert_tgt = class_top_section(mid_tgt)
    src_cls, tgt_cls = classes(mid_src), classes(mid_tgt)
    bridge = FatMap(mid_src, mid_tgt,
                    [d for v in range(r + 1) for d in tgt_cls[eps.values[v]]])

    checks = {}
    maps = {}

    def build(name, make):
        try:
            maps[name] = make()
            return maps[name]
        except ValueError:
            maps[name] = None
            return None

    psi1 = build("psi1", lambda: _top_aligned(mid_src, eps1.src))
    psi2 = build("psi2", lambda: _top_aligned(mid_src, eps2.src))

    def forced_cover(psi, eps_fat):
        # on bridged runs the value is forced by the square with the bridge;
        # the remaining runs are single dots sent to their run top
        through = compose_fat(eps_fat, psi)
        dotmap = [None] * mid_tgt.dots
        for d in range(mid_src.dots):
            dotmap[bridge.dotmap[d]] = through.dotmap[d]
        tcl = classes(eps_fat.tgt)
        for w, cls in enumerate(classes(mid_tgt)):
            for d in cls:
                if dotmap[d] is None:
                    dotmap[d] = tcl[w][-1]
        return FatMap(mid_tgt, eps_fat.tgt, dotmap)

    chi1 = build("chi1", lambda: forced_cover(psi1, eps1)) if psi1 else None
    chi2 = build("chi2", lambda: forced_cover(psi2, eps2)) if psi2 else None

    eps_as_fat = FatMap(plain(r), plain(n), eps.values)
    diagrams = [
        ("D1", lambda: compose_fat(psi1, insert_src) == class_top_section(eps1.src)),
        ("D2", lambda: compose_fat(chi1, insert_tgt) == class_top_section(eps1.tgt)),
        ("D3", lambda: compose_fat(chi1, bridge) == compose_fat(eps1, psi1)),
        ("D4", lambda: compose_fat(bridge, insert_src) == compose_fat(insert_tgt, eps_as_fat)),
        ("D5", lambda: compose_fat(psi2, insert_src) == class_top_section(eps2.src)),
        ("D6", lambda: compose_fat(chi2, insert_tgt) == class_top_section(eps2.tgt)),
        ("D7", lambda: compose_fat(chi2, bridge) == compose_fat(eps2, psi2)),
    ]
    needs = {"D1": [psi1], "D2": [chi1], "D3": [chi1, psi1], "D4": [],
             "D5": [psi2], "D6": [chi2], "D7": [chi2, psi2]}
    first_failure = None
    for name, check in diagrams:
        ok = all(m is not None for m in needs[name]) and check()
        checks[name] = ok
        if not ok and first_failure is None:
            first_failure = name
    return Interpolation(mid_src, mid_tgt, insert_src, insert_tgt, bridge,
                         psi1, chi1, psi2, chi2, checks, first_failure)


@dataclass
class PushoutResult:
    obj: ColoredOrdinal
    left_inj: FatMap
    right_inj: FatMap
    universal: bool | None
    witness: tuple | None


def pushout_fat(left, right, window=TruncationWindow()):
    """Pushout of a span in the colored site, for the two shapes that occur.

    Either an endpoint gluing (single-dot source, last dot of the left leg's
    target against the first dot of the right leg's), or a run-insertion
    against an injective plain map.  The universal property is checked by
    cocone enumeration over the window when one is given; endpoint gluings
    always have it, run-insertion spans may genuinely lack it, in which case
    the witnessing cocone is recorded rather than raised.
    """
    if left.src != right.src:
        raise ValueError("the span legs have different sources")
    b, c = left.tgt, right.tgt
    if left.src == plain(0) and left.dotmap == (b.dots - 1,) and right.dotmap == (0,):
        obj = ColoredOrdinal(b.dots + c.dots - 1,
                             frozenset(b.colored)
                             | frozenset(b.dots - 1 + i for i in c.colored))
        left_inj = FatMap(b, obj, range(b.dots))
        right_inj = FatMap(c, obj, [b.dots - 1 + j for j in range(c.dots)])
    elif left == class_top_section(b) and c == plain(c.dots - 1):
        eps = SimplexMap(left.src.dots - 1, c.dots - 1, right.dotmap)
        if not is_mono_simplex(eps):
            raise ValueError("the plain leg must be injective")
        sizes = [len(cls) for cls in classes(b)]
        out_sizes = [1] * c.dots
        for v, s in enumerate(sizes):
            out_sizes[eps.values[v]] = s
        obj = _chunked(out_sizes)
        ocl = classes(obj)
        left_inj = FatMap(b, obj, [d for v in range(len(sizes)) for d in ocl[eps.values[v]]])
        right_inj = class_top_section(obj)
    else:
        raise ValueError("unsupported span shape")
    if compose_fat(left_inj, left) != compose_fat(right_inj, right):
        raise ValueError("pushout square of (%r, %r) does not commute" % (left, right))
    universal = witness = None
    if window is not None:
        universal, witness = _verify_pushout(left, right, obj, left_inj, right_inj, window)
    return PushoutResult(obj, left_inj, right_inj, universal, witness)


def _verify_pushout(left, right, obj, left_inj, right_inj, window):
    for c in window_objects(window):
        mediators = enumerate_hom(obj, c)
        for q1 in enumerate_hom(left.tgt, c):
            q1l = compose_fat(q1, left)
            for q2 in enumerate_hom(right.tgt, c):
                if q1l != compose_fat(q2, right):
                    continue
                found = [u for u in mediators
                         if compose_fat(u, left_inj) == q1
                         and compose_fat(u, right_inj) == q2]
                if len(found) != 1:
                    return False, (c, q1, q2, len(found))
    return True, None


def edge_pieces(obj):
    """One two-dot piece per edge, matching its color."""
    return [ColoredOrdinal(2, frozenset({0} if i in obj.colored else ()))
            for i in range(obj.dots - 1)]


def reassemble(obj, window=TruncationWindow()):
    """Rebuild an object as iterated endpoint gluings of its edge pieces.

    Returns the list of PushoutResults; the final object equals the input.
    """
    pieces = edge_pieces(obj)
    if not pieces:
        return []
    results = []
    acc = pieces[0]
    for piece in pieces[1:]:
        res = pushout_fat(FatMap(plain(0), acc, (acc.dots - 1,)),
                          FatMap(plain(0), piece, (0,)), window)
        results.append(res)
        acc = res.obj
    # acc is the object of the last gluing
    if results and acc != obj:
        raise ValueError("edge pieces of %r glue to %r" % (obj, acc))
    return results


def lift_chain(maps, window=None):
    """Lift op-composable ordinal maps to the colored site over shared objects.

    maps[i + 1].tgt_rank must equal maps[i].src_rank (a composable string in
    the opposite category).  The lift of maps[i] runs between chunked objects
    whose run sizes accumulate the fiber sizes from the deep end; collapses
    equal the inputs and adjacent lifts share their middle object, so the
    string composes.  Injective inputs lift to themselves.

    The chunked objects can outgrow a truncation window; passing one makes
    that an error, with None they are unbounded.
    """
    p = len(maps)
    if p == 0:
        raise ValueError("empty string")
    for i in range(p - 1):
        if maps[i + 1].tgt_rank != maps[i].src_rank:
            raise ValueError("maps are not op-composable at position %d" % i)
    sizes = [1] * (maps[-1].src_rank + 1)
    objs = [_chunked(sizes)]  # deep end first
    for a in reversed(maps):
        out = [0] * (a.tgt_rank + 1)
        for j, s in enumerate(sizes):
            out[a.values[j]] += s
        sizes = [max(1, s) for s in out]
        objs.append(_chunked(sizes))
    objs.reverse()  # objs[i] lifts rank maps[i].tgt_rank for i < p
    if window is not None:
        for o in objs:
            if o.dots > window.max_dots:
                raise ValueError("window exceeded: lift object needs %d dots" % o.dots)
    lifts = []
    for i, a in enumerate(maps):
        lifts.append(_stack_map(objs[i + 1], objs[i], a))
    return lifts


def _stack_map(src_obj, tgt_obj, a):
    scl, tcl = classes(src_obj), classes(tgt_obj)
    fill = [0] * len(tcl)
    dotmap = [None] * src_obj.dots
    for j, cls in enumerate(scl):
        w = a.values[j]
        for d in cls:
            dotmap[d] = tcl[w][fill[w]]
            fill[w] += 1
    out = FatMap(src_obj, tgt_obj, dotmap)
    if collapse(out) != a:
        raise ValueError("stacked lift %r does not collapse to %r" % (out, a))
    return out
