"""How many chains of composable tuples the builders and the fair pipeline build.

Each instance owns its chains: the builders build only the pair chains
composition needs, a double category builds its triples on first use and
keeps them, and a fair diagram starts from its presentation's pair chains.
pi* reuses the double category's pairs and builds only the unit pairs, and
the rebasing reads the hats its pair retractions built.  A spy on
``fincat.chain_fiber_product`` counts the builds.
"""

import pytest

import corpus
from wgfair import deltasite as ds
from wgfair import fair2 as f2
from wgfair import fincat as fc
from wgfair import wgdouble as wg


@pytest.fixture
def builds(monkeypatch):
    """The list of chains built since the fixture was set up."""
    built = []
    real = fc.chain_fiber_product

    def spy(factors, right_maps, left_maps):
        built.append(real(factors, right_maps, left_maps))
        return built[-1]

    monkeypatch.setattr(fc, "chain_fiber_product", spy)
    return built


def ids(chains):
    return [id(c) for c in chains]


def test_each_builder_builds_only_its_pair_chains(builds):
    x = corpus.double("family")
    assert ids(builds) == ids([x.pairs])
    del builds[:]
    p = f2.pi_star(x).p
    assert ids(builds) == ids([p.pair_units])
    assert p.pair_arrows is x.pairs and p.comp_arrows is x.comp


def test_the_triples_are_built_once_on_first_use(builds):
    x = corpus.double("family")
    del builds[:]
    triples = x.chain(3)
    assert ids(builds) == ids([triples])
    assert x.chain(3) is triples and x.level(3) is triples.cat
    assert len(builds) == 1


def test_a_fair_diagram_starts_from_the_pair_chains(builds):
    d = f2.pi_star(corpus.double("family"))
    del builds[:]
    assert d.level(ds.parse_ordinal("o-o-o")) is d.p.pair_arrows.cat
    assert d.level(ds.parse_ordinal("o=o=o")) is d.p.pair_units.cat
    assert builds == []


def test_the_fair_rebasing_pass_builds_twenty_seven_chains(builds):
    # pi* of the family, validate_fairwg, discretize_fair, validate_fair2:
    # no chain of triples, and no pair chain built twice for one presentation;
    # the four repeats are class chains of d (ROADMAP item 7)
    x = corpus.double("family")
    del builds[:]
    d = f2.pi_star(x)
    f2.validate_fairwg(d)
    f2.validate_fair2(f2.discretize_fair(d, "cleavage"))
    assert len(builds) == 27
    assert len({(c.obj_label, c.mor_label) for c in builds}) == 23


def test_the_rebased_pair_chains_are_the_retraction_hats(builds, monkeypatch):
    d = f2.pi_star(corpus.double("family"))
    made = []
    real = f2.pair_retractions

    def spy(d):
        made.append(real(d))
        return made[-1]

    monkeypatch.setattr(f2, "pair_retractions", spy)
    del builds[:]
    p = f2.discretize_fair(d, "cleavage").p
    (retr,) = made
    assert p.pair_arrows is retr.arrow_pairs and p.pair_units is retr.unit_pairs
    assert ids(builds) == ids([p.pair_arrows, p.pair_units])
