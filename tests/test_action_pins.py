"""Pinned nerve and window actions, and rank one as a one-factor chain.

The digests were recorded from the per-side implementation of the actions
(separate object and morphism code, rank one as a special case); any
rewrite of ``WGDouble.nerve_action`` or ``FairDiagram.action`` must
reproduce them exactly.
"""

import hashlib

import pytest

from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import pseudo as ps

import corpus


@pytest.fixture(scope="module")
def family():
    return corpus.double("family")


@pytest.fixture(scope="module")
def nerve():
    return corpus.double("nerve")


def digest(actions):
    """(number of actions, sha256 of their object and morphism maps in order)."""
    h = hashlib.sha256()
    n = 0
    for fun in actions:
        h.update(repr((fun.obj_map, fun.mor_map)).encode())
        n += 1
    return n, h.hexdigest()


def window_actions(d):
    shapes = d.shapes()
    for a in shapes:
        for b in shapes:
            for fat in ds.enumerate_hom(a, b):
                yield d.action(fat)


def nerve_actions(x):
    for f in ps.OrdinalSite(3).maps:
        yield x.nerve_action(f)


PINS = {
    "family window":
        (236, "77ee7385a90cba1bfc2d4d7dc1ad60101b4bd0d8aaf639d3203687c1cb1d4a4e"),
    "discretized family window":
        (236, "6a65bf7aba7e7d82d28c3b3c11a6861d609f1196ac9cdec29f1f5d18bac47c42"),
    "nerve":
        (121, "593ffb5ba90e41bfba87accfd77dbbec9b9678d9adfb1a8a0dbcd3b727ae6529"),
    "family nerve":
        (121, "28cb5bb82ed02ea366d9c2293fd60e6f1a3e7e10308bd9a0e612903958678790"),
}


def test_window_actions_match_their_pins(family):
    d = f2.pi_star(family)
    assert digest(window_actions(d)) == PINS["family window"]
    assert digest(window_actions(f2.discretize_fair(d))) == \
        PINS["discretized family window"]


def test_nerve_actions_match_their_pins(nerve, family):
    assert digest(nerve_actions(nerve)) == PINS["nerve"]
    assert digest(nerve_actions(family)) == PINS["family nerve"]


def test_rank_one_is_level_one(family):
    assert family.level(1) is family.x1
    assert f2.pi_star(family).level(ds.parse_ordinal("o-o")) is family.x1


def test_single_chain_matches_the_one_factor_product(family):
    for c in (family.x0, family.x1):
        one = fc.single_chain(c)
        ref = fc.chain_fiber_product([c], [], [])
        assert one.cat is c
        assert (one.obj_label, one.mor_label, one.obj_id, one.mor_id) == \
            (ref.obj_label, ref.mor_label, ref.obj_id, ref.mor_id)
        assert [(pr.obj_map, pr.mor_map) for pr in one.projections] == \
            [(pr.obj_map, pr.mor_map) for pr in ref.projections]
