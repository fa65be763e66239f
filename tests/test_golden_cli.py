"""Golden CLI outputs: the sha256 of stdout for fixed invocations.

A refactor that must keep CLI output byte-identical is checked against
these digests.  A change that alters one of these outputs on purpose
updates its digest here and records the change in CHANGES.md.

A digest does not say how much an output changed, so the singular-point
outputs also pin their parsed structure: a digest that moves while the
structure holds is a change of digits, not of points or classes.  The
horocyclic invariant table is pinned by number, against the closed form
of the planted profile's invariants.
"""

import hashlib

import numpy as np
import pytest

from h3frames.cli import main
from h3frames.frames import INVARIANT_CSV_HEADER
from h3frames.horocyclic import horocyclic_invariants, load_h_profile

# (u, h1, ..., h6): a two-vertex horo-cone (h1..h4 = 0, h5 = 2 h6) whose
# h6 varies along the curve, so the classification reads a real spline.
PROFILE_ROWS = [(u, 0.0, 0.0, 0.0, 0.0, 2.0 * (0.5 + 0.2 * u * u), 0.5 + 0.2 * u * u)
                for u in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)]

# (u, h1, ..., h6): a planted cross cap.  h1 - h4 = 0.8 and h2 = 0 make
# alpha = 0.8 v, and h3 = 0.75 (u - 0.125) makes beta vanish on v = 0 at
# u = 0.125 only; every h is a cubic at most, so the spline reproduces it.
PLANTED_ROWS = [(u, 1.0 + 0.1 * u, 0.0, 0.75 * (u - 0.125), 0.2 + 0.1 * u, 0.15 - 0.2 * u,
                 0.1 + 0.25 * u * u * u)
                for u in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)]

# 200 R^3_1 points (x1^2 - x2^2 - x3^2 > 3) for project, written with repr
# so that they read back exactly.
POINT_ROWS = [(2.0 + k / 8, (k % 17 - 8) / 16, (k % 13 - 6) / 12) for k in range(200)]

GOLDEN = {
    "singular_cross_cap": (
        ["singular", "--example", "cross_cap"],
        "4a2f65dc11fe5e3dc0485eefdedd7e54c095c81ba47887a9fd8027b0ed73237b",
    ),
    "singular_corank_one": (
        ["singular", "--example", "corank_one"],
        "87d8cca7cc04a023e80e3aef60e8f38ca6af5a56c410cbe3ec9826209881016f",
    ),
    "singular_ruled_A": (
        ["singular", "--example", "ruled_A"],
        "f7af3edbb5df1807a54d35b7ec140a06b7f440149e292c434f8bf3617e480e4e",
    ),
    "singular_ruled_B": (
        ["singular", "--example", "ruled_B"],
        "9dd09c7b4e328d3fe9b771c66d3e6e88e293ece265b480f18ce3b0fde5122c57",
    ),
    "mesh_ruled_A_markers": (
        ["mesh", "--example", "ruled_A", "--markers"],
        "d4d278aaf98b647f5a28a89078aa5552057f60c225300a685d5836e1cea571d7",
    ),
    "invariants_cross_cap": (
        ["invariants", "--example", "cross_cap"],
        "26c754605907c616415e5dade294da13855192affce709d6c203f8ff36f97f52",
    ),
    "mesh_cross_cap": (
        ["mesh", "--example", "cross_cap"],
        "05f0e0cc924d5151dbc96af4a94c9c3531a3d2beb8e39cbb0d618fd0bd15f7c3",
    ),
    "project_r31_disc_file": (
        ["project", "--from", "r31", "--to", "disc", "--input", "points.txt"],
        "ed8a19333258e0ff2b051a076c5b25fab7e1f5ebd8727f59981feda61a3131b0",
    ),
    "invariants_horocyclic": (
        ["invariants", "--example", "horocyclic:planted.csv"],
        "607e6ed049265d76e11ad7cd963b3815a35cad5cf9f43408a09e6122a60723e4",
    ),
    "singular_horocyclic": (
        ["singular", "--example", "horocyclic:planted.csv", "--grid", "11", "11"],
        "3a7d31ba30158dc0ed2837cf38b91c791799d0c4b4db47ee8a906dcc3f37920f",
    ),
    "classify_profile": (
        ["classify", "--profile", "profile.csv"],
        "d546d9e0473c0a0b19e925bacc2e935fb7192a26eaf62b851db95adc67380e76",
    ),
}


# newton_iters of ruled_B's 130 points on its singular line, in u order
RULED_B_ITERS = (
    0, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 2, 0, 0, 2, 0, 2, 0, 2,
    0, 2, 0, 3, 0, 2, 0, 0, 2, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2,
    0, 0, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 3, 2, 0, 0, 2, 0, 0, 2, 0, 3, 0,
    2, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0, 2, 3, 0, 0,
    2, 0,
)

# singular: each point's (classification, newton_iters), in printed order;
# mesh: the number of marker points
STRUCTURE = {
    "singular_cross_cap": [("cross_cap", 2)],
    "singular_corank_one": [("cross_cap", 2)],
    "singular_ruled_A": [("cross_cap", 3), ("cross_cap", 3)],
    "singular_ruled_B": [("unclassified", k) for k in RULED_B_ITERS],
    "singular_horocyclic": [("cross_cap", 2)],
    "mesh_ruled_A_markers": 2,
}


#: Largest |printed - closed form| allowed over the invariants_horocyclic
#: table.  The printed values were within 4.6e-14 of the closed form both
#: at digest 4dc741bd.. and at 607e6ed0..; the bound is about twice that.
HOROCYCLIC_PIN = 1e-13


def _stdout(name, tmp_path, monkeypatch, capsys) -> str:
    # the profile path is relative, so the header line naming it is fixed
    monkeypatch.chdir(tmp_path)
    for path, rows in (("profile.csv", PROFILE_ROWS), ("planted.csv", PLANTED_ROWS)):
        (tmp_path / path).write_text(
            "u,h1,h2,h3,h4,h5,h6\n" + "".join(",".join(repr(x) for x in row) + "\n" for row in rows)
        )
    (tmp_path / "points.txt").write_text("".join(" ".join(repr(x) for x in row) + "\n" for row in POINT_ROWS))
    assert main(GOLDEN[name][0]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(name, tmp_path, monkeypatch, capsys):
    out = _stdout(name, tmp_path, monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(STRUCTURE))
def test_golden_structure(name, tmp_path, monkeypatch, capsys):
    lines = _stdout(name, tmp_path, monkeypatch, capsys).splitlines()
    if name.startswith("mesh"):
        assert sum(line.startswith("p ") for line in lines) == STRUCTURE[name]
        return
    value = {key: [line.split(" = ", 1)[1] for line in lines if line.startswith(key + " = ")]
             for key in ("points", "classification", "newton_iters")}
    got = list(zip(value["classification"], map(int, value["newton_iters"])))
    assert value["points"] == [str(len(got))]
    assert got == STRUCTURE[name]


def test_golden_horocyclic_invariants_match_the_closed_form(tmp_path, monkeypatch, capsys):
    lines = _stdout("invariants_horocyclic", tmp_path, monkeypatch, capsys).splitlines()
    lines = [line for line in lines if not line.startswith("#")]
    assert lines[0] == INVARIANT_CSV_HEADER
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert table.shape == (21 * 21, 16)
    u, v = table[:, 0], table[:, 1]
    field = horocyclic_invariants(load_h_profile(tmp_path / "planted.csv").curve_frame())
    want = np.stack([np.broadcast_to(w, u.shape) for w in field(u, v).as_dict().values()], axis=-1)
    assert np.max(np.abs(table[:, 2:] - want)) <= HOROCYCLIC_PIN
