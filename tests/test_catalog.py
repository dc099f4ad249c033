import json

import pytest

from obstructor import (
    GroupSpec,
    MissingAnisotropicDimension,
    catalog_grid,
    dim_symmetric,
    identity_check,
    lemma_count,
    obstructor_shape,
    root_data,
    shape_from_root_data,
    sl_split_pair_shape,
)
from obstructor.cli import main


def test_dim_symmetric_values():
    assert dim_symmetric(GroupSpec("sl_z", n=3)) == 5
    for n in range(2, 10):
        assert dim_symmetric(GroupSpec("sl_z", n=n)) == n * (n + 1) // 2 - 1
        assert dim_symmetric(GroupSpec("sl_o", n=n, places=(2, 0))) == n * n + n - 2
        assert dim_symmetric(GroupSpec("sp_z", n=n)) == n * n + n
    assert dim_symmetric(GroupSpec("so_q", witt=2, ambient=7, dim_xm=1)) == 2 + 6 + 1 + 2
    # Z is the ring with one real place: sl_o and sp_o at (r, s) = (1, 0)
    # give the dimension and root data of sl_z and sp_z, and sl also the shape
    for n in range(1, 10):
        pairs = [("sp_z", "sp_o")] + ([("sl_z", "sl_o")] if n >= 2 else [])
        for z, o in pairs:
            zs, os_ = GroupSpec(z, n=n), GroupSpec(o, n=n, places=(1, 0))
            assert dim_symmetric(os_) == dim_symmetric(zs)
            (rz, xz, kz), (ro, xo, ko) = root_data(zs), root_data(os_)
            assert (rz.to_json(), xz, kz) == (ro.to_json(), xo, ko)
            if z == "sl_z":
                assert obstructor_shape(os_) == obstructor_shape(zs)


def test_shapes():
    assert obstructor_shape(GroupSpec("sl_z", n=3)).plus_dims == (0, 1)
    assert obstructor_shape(GroupSpec("sl_z", n=3)).sphere_dim is None
    sp = obstructor_shape(GroupSpec("sp_z", n=4))
    assert sp.plus_dims == (0, 1, 2, 9)
    # rational places (1, 0) reduce to the plain integer shape
    for n in (2, 5):
        a = obstructor_shape(GroupSpec("sl_o", n=n, places=(1, 0)))
        b = obstructor_shape(GroupSpec("sl_z", n=n))
        assert a == b
    assert obstructor_shape(GroupSpec("sl_o", n=2, places=(1, 0))).plus_dims == (0,)


def test_split_pair_shape_same_degree():
    for n in range(2, 10):
        alt = sl_split_pair_shape(n)
        cat = obstructor_shape(GroupSpec("sl_o", n=n, places=(2, 0)))
        assert alt.m == cat.m == n * n + n - 4
        assert alt.sphere_dim == n - 2


def test_identity_grid_holds():
    for spec in catalog_grid():
        rep = identity_check(spec)
        assert rep.identity_holds, spec.label()


def test_sp_over_rings_is_flagged_not_asserted():
    rep = identity_check(GroupSpec("sp_o", n=3, places=(2, 0)))
    assert not rep.identity_holds
    assert "flagged" in rep.note
    # the rational-places case is cataloged via sp_z, which does hold
    assert identity_check(GroupSpec("sp_z", n=3)).identity_holds


def test_shape_from_root_data_matches_catalog():
    for n in range(2, 7):
        rs, xm, rank = root_data(GroupSpec("sl_z", n=n))
        assert shape_from_root_data(rs, xm) == obstructor_shape(GroupSpec("sl_z", n=n))
    for n in range(2, 7):
        rs, xm, rank = root_data(GroupSpec("sp_z", n=n))
        assert shape_from_root_data(rs, xm) == obstructor_shape(GroupSpec("sp_z", n=n))
    for q, nn in [(1, 3), (2, 7), (3, 6), (3, 9), (4, 8), (5, 12)]:
        spec = GroupSpec("so_q", witt=q, ambient=nn, dim_xm=2)
        rs, xm, rank = root_data(spec)
        assert shape_from_root_data(rs, xm) == obstructor_shape(spec)


def test_lemma_count_consistency():
    # sum of (factor dim + 1) equals dim X_M + total root multiplicity, and
    # the obstruction degree satisfies m + 2 = that + rank
    for spec in [
        GroupSpec("sl_z", n=5),
        GroupSpec("sl_o", n=4, places=(2, 1)),
        GroupSpec("sp_z", n=3),
        GroupSpec("so_q", witt=3, ambient=9, dim_xm=2),
    ]:
        rs, xm, rank = root_data(spec)
        total_mult = sum(rs.multiplicity(v) for v in rs.positive_roots)
        shape = obstructor_shape(spec)
        assert lemma_count(shape) == xm + total_mult
        assert shape.m + 2 == xm + total_mult + rank
        assert dim_symmetric(spec) == xm + total_mult + rank


def test_so_requires_dim_xm():
    with pytest.raises(MissingAnisotropicDimension):
        dim_symmetric(GroupSpec("so_q", witt=2, ambient=6))
    with pytest.raises(MissingAnisotropicDimension):
        obstructor_shape(GroupSpec("so_q", witt=2, ambient=6))


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("sl_z", n=1)
    with pytest.raises(ValueError):
        GroupSpec("sl_o", n=3)
    with pytest.raises(ValueError):
        GroupSpec("sl_o", n=3, places=(0, 0))
    with pytest.raises(ValueError):
        GroupSpec("so_q", witt=0, ambient=4)
    with pytest.raises(ValueError):
        GroupSpec("so_q", witt=3, ambient=5)
    with pytest.raises(ValueError):
        GroupSpec("so_q", witt=1, ambient=2)
    with pytest.raises(ValueError):
        GroupSpec("nope", n=3)
    # the _z kinds read (r, s) = (1, 0) and take no place counts
    for kind in ("sl_z", "sp_z"):
        for places in ((2, 0), (1, 0)):
            with pytest.raises(ValueError, match="one real place"):
                GroupSpec(kind, n=3, places=places)
    # every given count is an int, and not a bool; places is a tuple of two
    for kwargs, message in [
        (dict(kind="sl_o", n=3, places=(1.5, 0)), "r must be an integer, got 1.5"),
        (dict(kind="sl_o", n=3, places=(1, False)), "s must be an integer, got False"),
        (dict(kind="sp_z", n=True), "n must be an integer, got True"),
        (dict(kind="sl_z", n=2.5), "n must be an integer, got 2.5"),
        (dict(kind="so_q", witt=2, ambient=7.0, dim_xm=1), "ambient must be an integer, got 7.0"),
        (dict(kind="so_q", witt=2.0, ambient=7, dim_xm=1), "witt must be an integer, got 2.0"),
        (dict(kind="so_q", witt=2, ambient=7, dim_xm=True), "dim_xm must be an integer, got True"),
        (dict(kind="sl_o", n=3, places=(1,)), r"places must be a tuple \(r, s\), got \(1,\)"),
        (dict(kind="sl_o", n=3, places=(1, 0, 0)), "places must be a tuple"),
        (dict(kind="sl_o", n=3, places=[1, 0]), "places must be a tuple"),
    ]:
        with pytest.raises(ValueError, match=message):
            GroupSpec(**kwargs)


# ---------------------------------------------------------------------------
# command line

def test_cli_rootsys_json(capsys):
    assert main(["rootsys", "--family", "C", "--rank", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "C2"
    assert len(data["positives"]) == 4


def test_cli_lemma_key_single(capsys):
    assert main(["lemma-key", "--type", "A3"]) == 0
    out = capsys.readouterr().out
    assert "7 labelings, 7 witnesses, PASS" in out


def test_cli_lemma_key_e8(capsys):
    assert main(["lemma-key", "--type", "E8"]) == 0
    out = capsys.readouterr().out
    assert "255 labelings, 255 witnesses, PASS" in out


def test_cli_complex(capsys):
    assert main(["complex", "--cuspidal", "3", "--betti", "--f-vector"]) == 0
    out = capsys.readouterr().out
    assert "f-vector (6, 12, 6)" in out
    assert "betti (1, 1, 0)" in out


def test_cli_complex_obstructor_5_betti_json(capsys):
    assert main(["complex", "--obstructor", "5", "--betti", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"complex": "L(5)", "vertices": 24, "facets": 2295, "betti": [1, 0, 0, 2, 2, 2, 4, 2, 2, 2]}


def test_cli_dims_row(capsys):
    assert main(["dims", "--group", "sl", "--n", "3", "--ring", "Z", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["rows"][0]
    assert row["dim_symmetric"] == 5
    assert row["shape"]["plus_dims"] == [0, 1]
    assert row["m"] == 3
    assert row["identity_holds"] is True


def test_cli_dims_refuses_place_counts_over_z(capsys):
    for group in ("sl", "sp"):
        for places in (["--real-places", "3", "--complex-places", "2"], ["--complex-places", "0"]):
            assert main(["dims", "--group", group, "--ring", "Z", *places]) == 2
            assert capsys.readouterr() == ("", "error: Z has one real place; give no place counts\n")
    # a ring of integers keeps (1, 0) for a count that is not given
    for places, group in [([], "SL_3(O[r=1,s=0])"), (["--real-places", "2"], "SL_3(O[r=2,s=0])"),
                          (["--complex-places", "1"], "SL_3(O[r=1,s=1])")]:
        assert main(["dims", "--group", "sl", "--ring", "O", *places, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["group"] == group


def test_cli_dims_so(capsys):
    code = main([
        "dims", "--group", "so", "--witt", "2", "--ambient", "7", "--dim-xm", "1", "--json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["identity_holds"] is True


def test_cli_lemma25(capsys):
    assert main(["lemma25", "--n", "3", "--samples", "5", "--decades", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_diverge_small(capsys):
    assert main(["diverge", "--map", "heisenberg", "--n", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["divergence"]["failed"] == 0


def _suites_recorded(monkeypatch):
    """Stand-ins for the two suites that record the maps they were given."""
    from obstructor import conemaps

    started = []
    for name in ("divergence_suite", "properness_test"):
        real = getattr(conemaps, name)
        monkeypatch.setattr(conemaps, name, lambda cm, *args, real=real, **kwargs: (
            started.append(cm.name), real(conemaps.heisenberg_map(2), samples=1))[1])
    return started


def test_cli_diverge_refuses_more_pairs_than_its_limit(capsys, monkeypatch):
    started = _suites_recorded(monkeypatch)
    for name, pairs in (("heisenberg", "141,178,576"), ("split", "443,034,201")):
        assert main(["diverge", "--map", name, "--n", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f": {pairs} disjoint pairs, over the limit of 1,000,000" in err
        # the count grows with n, and is not formed past n = 5
        assert main(["diverge", "--map", name, "--n", "10000000"]) == 2
        assert f": more than {pairs} disjoint pairs" in capsys.readouterr().err
    assert started == []
    # n = 4 is under the limit: both suites start
    assert main(["diverge", "--map", "split", "--n", "4", "--json"]) == 0
    capsys.readouterr()
    assert started == ["split(n=4)", "split(n=4)"]


@pytest.mark.parametrize("name", ["heisenberg", "split"])
def test_cli_pair_counts_are_the_suites_totals(name):
    from obstructor import conemaps
    from obstructor.cli import DIVERGE_MAX_PAIRS, _disjoint_pairs

    builder = conemaps.heisenberg_map if name == "heisenberg" else conemaps.split_map
    for n in (2, 3):
        assert _disjoint_pairs(name, n) == conemaps.divergence_suite(builder(n), samples=1).total
    assert _disjoint_pairs(name, 4) == {"heisenberg": 58_096, "split": 171_774}[name] <= DIVERGE_MAX_PAIRS


def test_cli_diverge_runs_heisenberg_4(capsys):
    assert main(["diverge", "--map", "heisenberg", "--n", "4", "--aligned", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["divergence"]["pairs"] == 58_096


def test_cli_usage_errors(capsys):
    assert main(["lemma-key"]) == 2
    assert main(["complex"]) == 2
    assert main(["rootsys", "--family", "D", "--rank", "3"]) == 2
    capsys.readouterr()
    for text in ("A", "BC", "E", "C3x", "D-4"):
        assert main(["lemma-key", "--type", text]) == 2
        assert f"error: malformed type {text!r}" in capsys.readouterr().err
    assert main(["dims"]) == 2
    assert capsys.readouterr().err == "need --group or --all\n"
    for argv, message in [
        (["--decades", "0"], "decades must be at least 1, got 0"),
        (["--decades", "-2"], "decades must be at least 1, got -2"),
        (["--samples", "0"], "samples must be at least 1, got 0"),
    ]:
        assert main(["lemma25", "--n", "3", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["diverge", "--map", "heisenberg", "--n", "1"]) == 2
    assert capsys.readouterr() == ("", "error: need n >= 2\n")
    # a selector given as 0 is given, and refused as 1 is
    for selector in ("--cuspidal", "--doubled", "--obstructor"):
        for n in ("0", "1"):
            assert main(["complex", selector, n]) == 2
            assert capsys.readouterr() == ("", "error: need n >= 2\n")
    # two selectors are refused, not one of them dropped
    for argv, given in [
        (["complex", "--cuspidal", "3", "--doubled", "3"], "--cuspidal/--doubled"),
        (["complex", "--cuspidal", "0", "--obstructor", "3"], "--cuspidal/--obstructor"),
        (["complex", "--cuspidal", "3", "--doubled", "3", "--obstructor", "3"],
         "--cuspidal/--doubled/--obstructor"),
        (["lemma-key", "--type", "A2", "--all"], "--type/--all"),
        (["dims", "--group", "sl", "--all"], "--group/--all"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"give only one of {given}\n")


def test_cli_save_respects_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBSTRUCTOR_OUT", str(tmp_path))
    assert main(["rootsys", "--family", "A", "--rank", "2", "--json", "--save", "a2.json"]) == 0
    capsys.readouterr()
    saved = json.loads((tmp_path / "a2.json").read_text())
    assert saved["family"] == "A2"


def test_cli_consecutive_calls_share_one_parser(capsys):
    from obstructor import cli

    assert cli._parser() is cli._parser()
    assert main(["rootsys", "--family", "A", "--rank", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["family"] == "A2"
    # a usage error exits as argparse does, and leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["rootsys", "--family", "Q", "--rank", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'Q'" in capsys.readouterr().err
    # options of an earlier call do not carry over: no --json, so text
    assert main(["rootsys", "--family", "A", "--rank", "2"]) == 0
    assert capsys.readouterr().out.startswith("type A2  rank 2  positive roots 3")
    assert main(["complex", "--cuspidal", "3", "--betti"]) == 0
    out = capsys.readouterr().out
    assert "betti (1, 1, 0)" in out and "f-vector" not in out
    assert main(["lemma-key"]) == 2
    assert "need --type or --all" in capsys.readouterr().err
    assert main(["rootsys", "--family", "A", "--rank", "2", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_dims_reads_the_flag_from_the_report(capsys):
    # sp over a ring: the transcribed shape disagrees, and the row is flagged, not failed
    assert main(["dims", "--group", "sp", "--n", "3", "--ring", "O", "--real-places", "2"]) == 0
    out = capsys.readouterr().out
    assert "Sp_6(O[r=2,s=0])" in out and "(flagged)" in out
    assert main(["dims", "--group", "sp", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "Sp_6(Z)" in out and "(flagged)" not in out
