"""Pinned actions and cell components of Tr2.

The digests were recorded from the implementation that handled the spine
maps in three places (their own action, a projection lookup and a second
rule for their comparison isos).  Any rewrite of
``wgdouble.tr2_strong_segalic`` must reproduce every action and every cell
component exactly, under both retraction strategies.
"""

import hashlib

import pytest

from wgfair import wgdouble as wg

import corpus


def digest(items):
    """(number of items, sha256 of their reprs in order)."""
    h = hashlib.sha256()
    n = 0
    for item in items:
        h.update(repr(item).encode())
        n += 1
    return n, h.hexdigest()


PINS = {
    ("nerve", "cleavage"): (
        (121, "593ffb5ba90e41bfba87accfd77dbbec9b9678d9adfb1a8a0dbcd3b727ae6529"),
        (5374, "e4a94c6194e0fdafee6360c6f52a8f5badcf84829d5c632dc88b04a77a2a1a65")),
    ("nerve", "retraction"): (
        (121, "593ffb5ba90e41bfba87accfd77dbbec9b9678d9adfb1a8a0dbcd3b727ae6529"),
        (5374, "e4a94c6194e0fdafee6360c6f52a8f5badcf84829d5c632dc88b04a77a2a1a65")),
    ("family", "cleavage"): (
        (121, "8c36f7b30e5ec2c4dcaa75bd8da4fb5f2fe15a4f23f03850058cd4d86b487499"),
        (5374, "047d9467128955a8ef4d01e0a359c0571cd493d06305c84cbd462f1fda078f06")),
    ("family", "retraction"): (
        (121, "b56cb45bf1673223c865834b509585eaebecfa2bcc82fcdf1d4678f6d0604bdd"),
        (5374, "2f449f1c7f377d1a82f9ee5fabdd358574680d1f69c48acb10699563dc2220b4")),
    ("tf2", "cleavage"): (
        (121, "82c5792050457c4395f6c35b7536d7ae6dc0da8be5a1d1a23455c852cb3d8d1c"),
        (5374, "1a7baab5881706f7a97d2f2fe63e483d5661e99fcc81a636a9f9b698a1ae43d7")),
    ("tf2", "retraction"): (
        (121, "d26735dfac074fd9e9f59a6f398f8a0251eac795a525160fc52a208018209dc9"),
        (5374, "b9ef334fe7cc56e234a45160bcf7523623a868e7e2edb38f0a957d280a050851")),
}


@pytest.mark.parametrize("name, strategy", sorted(PINS))
def test_tr2_actions_and_cells_match_their_pins(name, strategy):
    d = wg.tr2_strong_segalic(corpus.double(name), strategy).diagram
    site = d.site
    maps = range(len(site.maps))
    actions = digest((d.action(f).obj_map, d.action(f).mor_map) for f in maps)
    cells = digest(d.components(g, f) for g, f in corpus.composable_pairs(site))
    assert (actions, cells) == PINS[(name, strategy)]
