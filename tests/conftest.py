"""Tables that more than one test module reads, served as fixtures: a test
module is not importable by name under every import mode."""

import pytest

#: The geometry of each public call that takes a framed surface, one of its
#: frames or an invariant field like one (a parameter annotated
#: ``FramedSurface``, ``FrameAt`` or ``FieldLike``): "either" for H^3 and
#: R^3, or the one it reads, refusing the other.  A new such call must
#: declare its geometry here; ``test_exports.BY_HAND`` names the
#: one-geometry calls that take maps, curves or points instead.
GEOMETRY = {
    "frames.basic_invariants": "either",
    "frames.frame_at": "either",
    "frames.frame_from_normal": "H^3",
    "frames.integrability_residuals": "either",
    "frames.integrate_frame_along_line": "either",
    "frames.invariant_field": "either",
    "frames.invariants_at": "either",
    "frames.invariants_grid": "either",
    "frames.reduction_type_grid": "either",
    "frames.rotate_frame": "either",
    "frames.verify_framed": "either",
    "frames.write_invariants_csv": "either",
    "horocyclic.build_horocyclic": "H^3",
    "horocyclic.extract_h": "H^3",
    "horocyclic.integrate_frame_curves": "H^3",
    "projections.from_poincare": "R^3",
    "projections.project_to_r31": "H^3",
    "projections.to_poincare": "H^3",
    "projections.transport_to_disc": "H^3",
    "projections.transport_to_h3": "R^3",
    "projections.verify_disc_framed": "R^3",
    "projections.write_disc_mesh": "H^3",
    "singularities.classify_singularity": "either",
    "singularities.find_singular_points": "either",
    "singularities.phi": "either",
    "singularities.singularity_scan": "either",
}


@pytest.fixture
def geometry() -> dict[str, str]:
    """:data:`GEOMETRY`."""
    return GEOMETRY
