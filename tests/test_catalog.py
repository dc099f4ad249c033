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


def test_cli_dims_row(capsys):
    assert main(["dims", "--group", "sl", "--n", "3", "--ring", "Z", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["rows"][0]
    assert row["dim_symmetric"] == 5
    assert row["shape"]["plus_dims"] == [0, 1]
    assert row["m"] == 3
    assert row["identity_holds"] is True


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


def test_cli_usage_errors(capsys):
    assert main(["lemma-key"]) == 2
    assert main(["complex"]) == 2
    assert main(["rootsys", "--family", "D", "--rank", "3"]) == 2
    capsys.readouterr()
    for text in ("A", "BC", "E", "C3x", "D-4"):
        assert main(["lemma-key", "--type", text]) == 2
        assert f"error: malformed type {text!r}" in capsys.readouterr().err


def test_cli_save_respects_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBSTRUCTOR_OUT", str(tmp_path))
    assert main(["rootsys", "--family", "A", "--rank", "2", "--json", "--save", "a2.json"]) == 0
    capsys.readouterr()
    saved = json.loads((tmp_path / "a2.json").read_text())
    assert saved["family"] == "A2"
