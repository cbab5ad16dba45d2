"""The ``wgfair report`` command line."""

import pytest

from wgfair import cli
from wgfair import fincat as fc
from wgfair import wgdouble as wg

import corpus


def test_report_micro_prints_both_axiom_c_lines_and_fails(capsys):
    assert cli.main(["report", "micro"]) == 1
    out = capsys.readouterr().out.splitlines()
    want = wg.validate_catwg2(wg.micro_counterexample())
    assert len(want) == 2
    assert out[-2:] == want
    assert [line.split()[0] for line in out[:-2]] == \
        ["x0", "x1", "pairs", "triples", "hat2", "hat3"]


def check_sizes_and_pass(capsys, name, x):
    assert cli.main(["report", name]) == 0
    out = capsys.readouterr().out.splitlines()
    sd = wg.segal_data(x)
    sizes = [x.x0, x.x1, x.pairs.cat, x.chain(3).cat, sd.hat2.cat, sd.hat3.cat]
    for line, cat in zip(out, sizes):
        assert line.split()[1:] == [str(cat.n_obj), "objects,", str(cat.n_mor), "morphisms"]
    assert out[-1].startswith("weakly globular")


def test_report_wg5_prints_level_sizes_and_passes(capsys):
    check_sizes_and_pass(capsys, "wg5", corpus.surjection("seed 5")[0])


@pytest.mark.parametrize("name", ["nerve", "family"])
def test_report_prints_level_sizes_and_passes(capsys, name):
    check_sizes_and_pass(capsys, name, corpus.surjection(name)[0])


def test_report_rejects_an_unknown_instance(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "wgx"])
    assert exc.value.code == 2
    assert "unknown instance 'wgx'" in capsys.readouterr().err


def test_report_without_a_discretization_names_the_obstruction(capsys):
    # level zero is the free arrow, which is not homotopically discrete
    x0 = cli.free_arrow()
    ident = fc.identity_functor(x0)
    x = wg.from_generators(x0, x0, ident, ident, ident,
                           lambda f, g: f, lambda m, n: m)
    assert cli.report(x) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[4].startswith("hat2, hat3 not built: not homotopically discrete")
    assert out[5:] == wg.validate_catwg2(x)
