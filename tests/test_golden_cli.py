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
        "242906a627e85a2e6841af6ccdbcc367ad1f74077b0e986ecedbe4933265bd7e",
    ),
    "singular_corank_one": (
        ["singular", "--example", "corank_one"],
        "9524aa68144603b9b5585b8a0f1894db8fc9c872161ae44518e98c591c1d45c8",
    ),
    "singular_ruled_A": (
        ["singular", "--example", "ruled_A"],
        "ff13937c19a3f575909846aae91a733c291015931aab99d762165f023685fba4",
    ),
    "singular_ruled_B": (
        ["singular", "--example", "ruled_B"],
        "3bc11a6430b5c42148a5871cc44c39c5747820641220b0e7b5f74b3ac7c2b0bf",
    ),
    "mesh_ruled_A_markers": (
        ["mesh", "--example", "ruled_A", "--markers"],
        "ec71c9f3ca94813c654a0f1d11bcd5873c32a2519d44810d092fd1ae185610c1",
    ),
    "invariants_cross_cap": (
        ["invariants", "--example", "cross_cap"],
        "c1e2eea046b625ca609a76ce2ec3edc5977fb28a00ecf9442a51558fd3dd18ec",
    ),
    "mesh_cross_cap": (
        ["mesh", "--example", "cross_cap"],
        "80c7c2e9fc19584d76c5f5b3f6146e1e1ce7ed396d62c6b22dee1ea524bef838",
    ),
    "project_r31_disc_file": (
        ["project", "--from", "r31", "--to", "disc", "--input", "points.txt"],
        "18a03cad246b26267bb65d24f530b8307c79522204df6a67f3bb7156f5de2549",
    ),
    "invariants_horocyclic": (
        ["invariants", "--example", "horocyclic:planted.csv"],
        "eb402db3ebe559728115ac7b0468d0e23243330d0a92552b5ddd3873a52e76f1",
    ),
    "singular_horocyclic": (
        ["singular", "--example", "horocyclic:planted.csv", "--grid", "11", "11"],
        "34a051048bb84807ace3b270ecfc0333000cd139cbc79de8b380f41c6ce94e7f",
    ),
    "classify_profile": (
        ["classify", "--profile", "profile.csv"],
        "95f2b85d46680d8adb48d5e37316e4475f4b169a1ec47399f8c2f0adac7bd174",
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
