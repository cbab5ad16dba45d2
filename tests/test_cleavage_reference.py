"""Cleavage laws: the oracle for ``wgdouble.build_cleavage``.

``validate_cleavage`` checks a transport table by enumeration, one line per
broken law.  The library only builds cleavages; nothing in it reads a
report, so the checker lives here.  It runs on the cleavage
``build_cleavage`` picks for every corpus instance below; the tests of its
messages, on edited tables of the family and a Z/2-tagged family, are in
``test_wgdouble.py`` next to the other cleavage tests.
"""

import pytest

from wgfair import wgdouble as wg

import corpus


def validate_cleavage(x, table):
    """Cleavage laws of a transport dict by enumeration, one line per failure.

    Each entry (f, phi) -> (g, cell) is checked for: its key, phi an
    isomorphism ending at the source of f; its endpoints, g from the source
    of phi to the target of f; its cell, an isomorphism onto f whose
    vertical shadow is (phi, identity); and, for phi an identity, being
    (f, identity cell).  A missing transport is reported too.  Then come
    the pasting law over composable isomorphisms and compatibility with
    composing each pair.  A broken entry is reported once and never read
    again, so a table over the instance yields a report, not an error.
    """
    problems = []
    x0, x1 = x.x0, x.x1
    arrows = range(x1.n_obj)
    isos_into = {}
    for phi in range(x0.n_mor):
        if x0.is_iso(phi):
            isos_into.setdefault(x0.tgt[phi], []).append(phi)
    broken = {(f, phi) for f in arrows for phi in isos_into.get(x.d1.obj(f), ())
              if (f, phi) not in table}
    problems.extend("no transport of (%d, %d)" % key for key in sorted(broken))
    for (f, phi), (g, lam) in table.items():
        if not (f in arrows and g in arrows and phi in range(x0.n_mor) and lam in range(x1.n_mor)):
            raise ValueError("cleavage key (%d, %d) names an arrow, morphism or cell outside"
                             " the instance" % (f, phi))
        count = len(problems)
        if not x0.is_iso(phi) or x0.tgt[phi] != x.d1.obj(f):
            problems.append("key (%d, %d) is not an isomorphism into the source of arrow %d"
                            % (f, phi, f))
        if x.d1.obj(g) != x0.src[phi] or x.d0.obj(g) != x.d0.obj(f):
            problems.append("transport of (%d, %d) has wrong endpoints" % (f, phi))
        if not x1.is_iso(lam) or x1.src[lam] != g or x1.tgt[lam] != f:
            problems.append("cell of (%d, %d) is not an isomorphism onto the arrow" % (f, phi))
        elif x.d1.mor(lam) != phi or x.d0.mor(lam) != x0.identity[x.d0.obj(f)]:
            problems.append("cell of (%d, %d) has the wrong vertical shadow" % (f, phi))
        if phi == x0.identity[x.d1.obj(f)] and (g != f or lam != x1.identity[f]):
            problems.append("identity transport of arrow %d is not trivial" % f)
        if len(problems) > count:
            broken.add((f, phi))
    # pasting reads three transports, composition two; none of them broken
    for (f, phi), (g, lam) in table.items():
        if (f, phi) in broken:
            continue
        for psi in range(x0.n_mor):
            if x0.tgt[psi] != x0.src[phi] or not x0.is_iso(psi):
                continue
            both = x0.compose(phi, psi)
            if any(key not in table or key in broken for key in ((f, both), (g, psi))):
                continue
            g2, lam2 = table[(g, psi)]
            gb, lamb = table[(f, both)]
            if gb != g2 or lamb != x1.compose(lam, lam2):
                problems.append("pasting law fails for arrow %d along (%d, %d)"
                                % (f, phi, psi))
    for i, (f, g) in enumerate(x.pairs.obj_label):
        c = x.comp.obj(i)
        for phi in isos_into.get(x.d1.obj(f), ()):
            if (f, phi) in broken or (c, phi) in broken:
                continue
            cf, lamf = table[(f, phi)]
            cc, lamc = table[(c, phi)]
            want = x.comp.obj(x.pairs.obj_id[(cf, g)])
            wantcell = x.comp.mor(x.pairs.mor_id[(lamf, x1.identity[g])])
            if cc != want or lamc != wantcell:
                problems.append("composition compatibility fails at pair %d along %d"
                                % (i, phi))
    return problems


@pytest.mark.parametrize("name", ["nerve", "family", "tf2"] + corpus.seeds(range(12)))
def test_build_cleavage_is_lawful_on_the_corpus(name):
    x, _ = corpus.surjection(name)
    assert validate_cleavage(x, wg.build_cleavage(x)) == []
