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
        "2e0f89991719d3108d4c48e4f0d623128ae750d24573cb2e7871365478d0853d",
    ),
    "singular_corank_one": (
        ["singular", "--example", "corank_one"],
        "2a9191b8d8c5f030c0ef3de973bf7ee3664d5894944d705ddb0de888faddf8d3",
    ),
    "singular_ruled_A": (
        ["singular", "--example", "ruled_A"],
        "425800e326f74fd8fd827e8ba72e355d5f8983c0fee1397c9db30e7ee85d77e8",
    ),
    "singular_ruled_B": (
        ["singular", "--example", "ruled_B"],
        "f4cea2d8a492545000a037e0312afb83c73ba80b42e61b4aae4915e37f10b0f0",
    ),
    "mesh_ruled_A_markers": (
        ["mesh", "--example", "ruled_A", "--markers"],
        "b2c8e5825aa240fed882a741a86ed3e4529df22fb9f8e950ef0763f028aa8483",
    ),
    "invariants_cross_cap": (
        ["invariants", "--example", "cross_cap"],
        "d2c6bd3406812854eb6a99e656a02e4fb90c36e1407377ca9fa04852ceb9bcca",
    ),
    "mesh_cross_cap": (
        ["mesh", "--example", "cross_cap"],
        "26378c203956a5fbf41864d424c57c8b7f0dabd67c825c90b63af3a32b36320a",
    ),
    "project_r31_disc_file": (
        ["project", "--from", "r31", "--to", "disc", "--input", "points.txt"],
        "8b949cde1ea0bfd1e24292c71676b31c7afb34d0ac7ef03fefe661417063b1a7",
    ),
    "invariants_horocyclic": (
        ["invariants", "--example", "horocyclic:planted.csv"],
        "40ba54122ce32a2e9d0b798f87d57732f70522c8c2cce261d160a213fe544a78",
    ),
    "singular_horocyclic": (
        ["singular", "--example", "horocyclic:planted.csv", "--grid", "11", "11"],
        "55850ffa406f23674fa45b7b43010c2f5ef3a26f6a5fc8a786cc6785b351af0c",
    ),
    "classify_profile": (
        ["classify", "--profile", "profile.csv"],
        "4e8a0daaa514966d286495098f7d3f857f8a78e5ec96e10064dda42bd1878d5e",
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
