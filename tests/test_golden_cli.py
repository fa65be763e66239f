"""Golden CLI outputs: the sha256 of stdout for fixed invocations.

A refactor that must keep CLI output byte-identical is checked against
these digests.  A change that alters one of these outputs on purpose
updates its digest here and records the change in CHANGES.md.
"""

import hashlib

import pytest

from h3frames.cli import main

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
        "2c278d6f619a0ac3208a57de28bda06f2430f08b84ca8cc11a8ef10908cc9723",
    ),
    "singular_corank_one": (
        ["singular", "--example", "corank_one"],
        "3a9bf5eb40a0832b4a280d05326cc3739147e426f29dac666c7d2b71043428d2",
    ),
    "singular_ruled_A": (
        ["singular", "--example", "ruled_A"],
        "fad4f5ab64b16e8b574fa5417670202709e0e11a1b5677fdca8850795d372772",
    ),
    "singular_ruled_B": (
        ["singular", "--example", "ruled_B"],
        "62d43be9b132c962811ddbdaa9b997cb40dae2685d6992b212ba15f375e249ec",
    ),
    "mesh_ruled_A_markers": (
        ["mesh", "--example", "ruled_A", "--markers"],
        "b79a66f237f7f92122393b63b41a1048f2242783c1d826ece2e837fe0b5f313e",
    ),
    "invariants_cross_cap": (
        ["invariants", "--example", "cross_cap"],
        "26c754605907c616415e5dade294da13855192affce709d6c203f8ff36f97f52",
    ),
    "mesh_cross_cap": (
        ["mesh", "--example", "cross_cap"],
        "9f2bd9ed4327a620610a7c514a4f9cc49324c94cdf2aed775e337203c3cf6959",
    ),
    "project_r31_disc_file": (
        ["project", "--from", "r31", "--to", "disc", "--input", "points.txt"],
        "ed8a19333258e0ff2b051a076c5b25fab7e1f5ebd8727f59981feda61a3131b0",
    ),
    "invariants_horocyclic": (
        ["invariants", "--example", "horocyclic:planted.csv"],
        "4dc741bdcd1885ff8235ec714327b0593311e2f5d3ac4bdd778b47a29a83c7cd",
    ),
    "singular_horocyclic": (
        ["singular", "--example", "horocyclic:planted.csv", "--grid", "11", "11"],
        "388f55b2b51e8c9d79656bba108f9e629ffe6e4a5f60aba3dce304f5812bc1ca",
    ),
    "classify_profile": (
        ["classify", "--profile", "profile.csv"],
        "d546d9e0473c0a0b19e925bacc2e935fb7192a26eaf62b851db95adc67380e76",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(name, tmp_path, monkeypatch, capsys):
    argv, digest = GOLDEN[name]
    # the profile path is relative, so the header line naming it is fixed
    monkeypatch.chdir(tmp_path)
    for path, rows in (("profile.csv", PROFILE_ROWS), ("planted.csv", PLANTED_ROWS)):
        (tmp_path / path).write_text(
            "u,h1,h2,h3,h4,h5,h6\n" + "".join(",".join(repr(x) for x in row) + "\n" for row in rows)
        )
    (tmp_path / "points.txt").write_text("".join(" ".join(repr(x) for x in row) + "\n" for row in POINT_ROWS))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
