"""Geometry oracles: Kabsch, TM-score, parsers, synthetic backbones."""

import hashlib
import re

import numpy as np
import pytest

from bitfold import geometry as geo
from bitfold.errors import DegenerateInput, LengthMismatch, MissingAtom, ParseError, SpecInvalid


def so3_grid_min_rmsd(p, q, step_deg=2.0):
    """Minimum RMSD(R p, q) over a ZYZ Euler grid, after centering p and q."""
    p = p - p.mean(axis=0)
    q = q - q.mean(axis=0)
    step = np.deg2rad(float(step_deg))
    alphas = np.arange(0.0, 2.0 * np.pi, step)
    betas = np.arange(0.0, np.pi + 1e-12, step)
    gammas = np.arange(0.0, 2.0 * np.pi, step)
    n = p.shape[0]
    best = np.inf
    for b in betas:
        cb, sb = np.cos(b), np.sin(b)
        for a in alphas:
            ca, sa = np.cos(a), np.sin(a)
            # fold gamma loop into a vectorized sweep
            cg, sg = np.cos(gammas), np.sin(gammas)
            r00 = ca * cb * cg - sa * sg
            r01 = -ca * cb * sg - sa * cg
            r10 = sa * cb * cg + ca * sg
            r11 = -sa * cb * sg + ca * cg
            r20 = -sb * cg
            r21 = sb * sg
            rx = np.outer(r00, p[:, 0]) + np.outer(r01, p[:, 1]) + ca * sb * p[None, :, 2]
            ry = np.outer(r10, p[:, 0]) + np.outer(r11, p[:, 1]) + sa * sb * p[None, :, 2]
            rz = np.outer(r20, p[:, 0]) + np.outer(r21, p[:, 1]) + cb * p[None, :, 2]
            sq = (rx - q[None, :, 0]) ** 2 + (ry - q[None, :, 1]) ** 2 + (rz - q[None, :, 2]) ** 2
            best = min(best, sq.sum(axis=1).min() / n)
    return float(np.sqrt(best))


def make_structure(seed=0, length=20):
    s, _ = geo.synth_backbone(geo.SynthSpec(length=length), seed=seed)
    return s


def test_kabsch_self_alignment():
    s = make_structure(0)
    res = geo.kabsch_align(s, s)
    assert res.rmsd < 1e-9
    np.testing.assert_allclose(res.rotation, np.eye(3), atol=1e-9)


def test_kabsch_rigid_invariance():
    rng = np.random.default_rng(1)
    s = make_structure(1)
    moved = s.transformed(geo.random_rotation(rng), rng.normal(size=3) * 50)
    assert geo.kabsch_align(moved, s).rmsd < 1e-9


def test_kabsch_proper_rotation():
    rng = np.random.default_rng(2)
    a = make_structure(2)
    b = make_structure(3)
    res = geo.kabsch_align(a, b)
    assert abs(np.linalg.det(res.rotation) - 1.0) < 1e-9
    np.testing.assert_allclose(res.rotation.T @ res.rotation, np.eye(3), atol=1e-9)
    del rng


def test_kabsch_length_mismatch():
    with pytest.raises(LengthMismatch):
        geo.kabsch_align(make_structure(0, length=20), make_structure(0, length=21))


def test_kabsch_degenerate_collinear():
    line = np.zeros((5, 4, 3))
    line[:, 1, 2] = np.arange(5) * 3.8
    s = geo.BackboneStructure(line, np.zeros(5, dtype=int))
    with pytest.raises(DegenerateInput):
        geo.kabsch_align(s, s)


def test_kabsch_symmetric_rmsd():
    a = make_structure(4)
    b = make_structure(5)
    assert abs(geo.kabsch_align(a, b).rmsd - geo.kabsch_align(b, a).rmsd) < 1e-9


def test_mirror_image_matches_so3_grid_bruteforce():
    """Reflection case: Kabsch (proper rotations only) vs an SO(3) grid scan."""
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(5, 3)) * 3.0
    mirror = pts * np.array([1.0, 1.0, -1.0])
    coords_a = np.zeros((5, 4, 3))
    coords_a[:, 1] = pts
    coords_b = np.zeros((5, 4, 3))
    coords_b[:, 1] = mirror
    a = geo.BackboneStructure(coords_a, np.zeros(5, dtype=int))
    b = geo.BackboneStructure(coords_b, np.zeros(5, dtype=int))
    kabsch_rmsd = geo.kabsch_align(b, a).rmsd
    grid_rmsd = so3_grid_min_rmsd(mirror, pts, step_deg=2.0)
    assert kabsch_rmsd <= grid_rmsd + 1e-9  # Kabsch is the true minimum
    assert abs(kabsch_rmsd - grid_rmsd) < 0.15  # within 2-degree grid resolution


def test_tm_score_identity():
    s = make_structure(7, length=30)
    assert geo.tm_score(s, s) == 1.0


def test_tm_d0_value():
    assert abs(geo.tm_d0(30) - (1.24 * 15 ** (1 / 3) - 1.8)) < 1e-12
    assert abs(geo.tm_d0(30) - 1.258) < 1e-3
    assert geo.tm_d0(10) == 0.5


def test_tm_score_every_distance_at_d0():
    # direct formula check: every d_i == d0 gives score 0.5
    n = 30
    d0 = geo.tm_d0(n)
    assert abs(np.mean(1.0 / (1.0 + (np.full(n, d0) / d0) ** 2)) - 0.5) < 1e-12


def test_tm_score_rigid_invariance():
    rng = np.random.default_rng(8)
    a = make_structure(8, length=40)
    b = make_structure(9, length=40)
    base = geo.tm_score(a, b)
    moved = a.transformed(geo.random_rotation(rng), rng.normal(size=3) * 20)
    assert abs(geo.tm_score(moved, b) - base) < 1e-9


def test_rmsd_invariant_under_rigid_transform():
    rng = np.random.default_rng(9)
    a = make_structure(10, length=25)
    b = make_structure(11, length=25)
    base = geo.rmsd(a, b)
    moved = b.transformed(geo.random_rotation(rng), rng.normal(size=3) * 20)
    assert abs(geo.rmsd(a, moved) - base) < 1e-9


def test_kabsch_not_worse_than_unaligned():
    a = make_structure(12)
    b = make_structure(13)
    unaligned = np.sqrt(((a.ca() - b.ca()) ** 2).sum() / len(a))
    assert geo.rmsd(a, b) <= unaligned + 1e-12


# -- serialization ----------------------------------------------------------

def test_native_roundtrip_bit_exact():
    s = make_structure(14)
    again = geo.parse_backbone(geo.write_backbone(s), "native")
    np.testing.assert_array_equal(again.coords, s.coords)
    np.testing.assert_array_equal(again.chain_ids, s.chain_ids)


def test_native_two_residue_file():
    text = "BKB v1 L=2\n0  " + "  ".join(["0.0 0.0 0.0"] * 4) + "\n0  " + "  ".join(["1.0 2.0 3.0"] * 4) + "\n"
    s = geo.parse_backbone(text, "native")
    assert len(s) == 2
    assert s.coords[1, 1, 2] == 3.0


def test_native_parse_error_carries_line_number():
    text = "BKB v1 L=1\n0  " + "  ".join(["0.0 0.0 xyz"] + ["0.0 0.0 0.0"] * 3) + "\n"
    with pytest.raises(ParseError) as exc:
        geo.parse_backbone(text, "native")
    assert exc.value.line_no == 2


def _pdb_line(serial, name, chain, resseq, x, y, z):
    return (
        f"ATOM  {serial:>5} {name:<4} ALA {chain}{resseq:>4}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
    )


def test_pdb_subset_three_residues():
    lines = []
    serial = 1
    for r in range(1, 4):
        for k, name in enumerate(geo.ATOM_NAMES):
            lines.append(_pdb_line(serial, name, "A", r, r * 3.8, k * 1.0, 0.0))
            serial += 1
    lines.append("HETATM    1  X   HOH A 999       0.000   0.000   0.000")
    s = geo.parse_backbone("\n".join(lines), "pdb-subset")
    assert len(s) == 3
    assert s.coords[2, 0, 0] == pytest.approx(3 * 3.8)


def test_pdb_missing_atom_rejected():
    lines = [_pdb_line(i + 1, name, "A", 1, 0.0, i, 0.0) for i, name in enumerate(("N", "CA", "C"))]
    with pytest.raises(MissingAtom):
        geo.parse_backbone("\n".join(lines), "pdb-subset")


def test_load_backbone_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.bkb"
    lines = [_pdb_line(i + 1, name, "A", 1, 0.0, i, 0.0) for i, name in enumerate(("N", "CA", "C"))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingAtom, match=f"^{re.escape(str(path))}: residue A1 lacks O$"):
        geo.load_backbone(str(path))


def test_pdb_chain_ids_honored():
    lines = []
    serial = 1
    for chain in ("A", "B"):
        for r in range(1, 3):
            for name in geo.ATOM_NAMES:
                lines.append(_pdb_line(serial, name, chain, r, serial * 1.0, 0.0, 0.0))
                serial += 1
    s = geo.parse_backbone("\n".join(lines), "pdb-subset")
    assert list(s.chain_ids) == [0, 0, 1, 1]


# -- synthetic data ---------------------------------------------------------

def test_synth_deterministic():
    spec = geo.SynthSpec(length=30)
    a, seq_a = geo.synth_backbone(spec, seed=7)
    b, seq_b = geo.synth_backbone(spec, seed=7)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(seq_a, seq_b)


def test_synth_helix_ca_distances():
    spec = geo.SynthSpec(length=12, segments=[("helix", 12)])
    s, _ = geo.synth_backbone(spec, seed=1)
    d = np.linalg.norm(np.diff(s.ca(), axis=0), axis=1)
    assert np.all(np.abs(d - 3.8) < 0.3)


def test_synth_consecutive_ca_within_band():
    for seed in range(5):
        s, _ = geo.synth_backbone(geo.SynthSpec(length=60), seed=seed)
        d = np.linalg.norm(np.diff(s.ca(), axis=0), axis=1)
        assert d.min() >= 2.0 and d.max() <= 4.5


def test_synth_spec_invalid():
    with pytest.raises(SpecInvalid):
        geo.synth_backbone(geo.SynthSpec(length=4), seed=0)
    with pytest.raises(SpecInvalid):
        geo.synth_backbone(geo.SynthSpec(length=600), seed=0)


# sha256 of the coordinate bytes, then the sequence bytes, of
# synth_backbone(SynthSpec(length), seed). Every benchmark input comes from
# this generator, so a drift shows here first; re-baseline only on purpose.
SYNTH_DIGESTS = (
    (8, 0, "a3d45bfe56aa0726e0412ee84cfa77e3793a9b368ad53e0e85c929d4cd513dba"),
    (37, 1, "16a6d3f87b42a03ab07a9a9c85c77af1e4d03be8113b9d1716e86b9eb26bf9a5"),
    (64, 7, "871c6397c59338bda162cee26a7f6e06fe36ec723a60fa6f114b3b34c1fcc743"),
    (200, 42, "b6f34ecff989c3e28ddbf7a078fed29bb9e400f24b70fe8e0d50d381c1d523c8"),
    (512, 3, "ab877e5734444b3c69e550c7fc321a8a970b17df0aad28c22672b8438449acc8"),
)


@pytest.mark.parametrize("length,seed,digest", SYNTH_DIGESTS,
                         ids=[f"{n}-{seed}" for n, seed, _ in SYNTH_DIGESTS])
def test_synth_backbone_digest(length, seed, digest):
    s, seq = geo.synth_backbone(geo.SynthSpec(length=length), seed=seed)
    data = s.coords.astype("<f8").tobytes() + seq.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def _unit(v, fallback=(1.0, 0.0, 0.0)):
    n = np.linalg.norm(v)
    if n < 1e-8:
        return np.asarray(fallback, dtype=np.float64)
    return v / n


def backbone_from_ca_loop(ca):
    """Reference: the per-residue loop `geometry._backbone_from_ca` replaces."""
    n_res = len(ca)
    coords = np.zeros((n_res, 4, 3))
    for i in range(n_res):
        fwd = ca[i + 1] - ca[i] if i + 1 < n_res else ca[i] - ca[i - 1]
        prev = ca[i] - ca[i - 1] if i > 0 else fwd
        t = _unit(ca[min(i + 1, n_res - 1)] - ca[max(i - 1, 0)])
        normal = np.cross(_unit(fwd), _unit(prev) if i > 0 else np.array([0.0, 1.0, 0.0]))
        if np.linalg.norm(normal) < 1e-8:
            normal = np.cross(t, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(normal) < 1e-8:
                normal = np.cross(t, np.array([0.0, 1.0, 0.0]))
        normal = _unit(normal)
        side = _unit(np.cross(t, normal))
        coords[i, 0] = ca[i] - 1.16 * t + 0.89 * normal  # N
        coords[i, 1] = ca[i]
        coords[i, 2] = ca[i] + 1.21 * t - 0.92 * normal  # C
        coords[i, 3] = coords[i, 2] + 1.23 * side  # O
    return coords


def assert_matches_loop(ca):
    got = geo._backbone_from_ca(ca)
    want = backbone_from_ca_loop(ca)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12
    np.testing.assert_array_equal(np.round(got, 6), np.round(want, 6))


def test_backbone_from_ca_matches_loop_on_synthetic_traces():
    # 200 jittered chain traces at lengths spaced geometrically over
    # [8, 512], which keeps the reference loop's run short
    rng = np.random.default_rng(0)
    for length in np.geomspace(8, 512, 200).round().astype(int):
        ca = geo._chain_trace(geo._random_plan(int(length), rng), rng)
        assert_matches_loop(ca + rng.normal(0.0, geo.JITTER_SIGMA, size=ca.shape))


@pytest.mark.parametrize("kind", ["collinear-z", "collinear-x", "repeated", "one", "two",
                                  "two-repeated"])
def test_backbone_from_ca_matches_loop_on_degenerate_traces(kind):
    rng = np.random.default_rng(1)
    line = np.arange(10)[:, None] * 3.8
    ca = {
        "collinear-z": line * [0.0, 0.0, 1.0],  # normal falls back to t x (1, 0, 0)
        "collinear-x": line * [1.0, 0.0, 0.0],  # and then to t x (0, 1, 0)
        "repeated": np.repeat(rng.normal(size=(4, 3)), 3, axis=0),  # zero steps
        "one": rng.normal(size=(1, 3)),
        "two": rng.normal(size=(2, 3)),
        "two-repeated": np.ones((2, 3)),
    }[kind]
    assert_matches_loop(ca)


def test_cross_rows_bit_equal_to_np_cross():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(64, 3)) * rng.uniform(1e-6, 1e3, size=(64, 1))
    b = rng.normal(size=(64, 3))
    a[:5] = 0.0  # zero rows
    b[3:8] = 0.0
    np.testing.assert_array_equal(geo.cross_rows(a, b), np.cross(a, b))
    np.testing.assert_array_equal(geo.cross_rows(a, b[0]), np.cross(a, b[0]))
    np.testing.assert_array_equal(geo.cross_rows(a[7], b[9]), np.cross(a[7], b[9]))


def _rz(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def test_so3_grid_backends_agree():
    # Independent reference: each grid rotation built as an explicit matrix product.
    rng = np.random.default_rng(10)
    p = rng.normal(size=(5, 3))
    q = rng.normal(size=(5, 3))
    a = so3_grid_min_rmsd(p, q, step_deg=15.0)
    pc, qc = p - p.mean(axis=0), q - q.mean(axis=0)
    step = np.deg2rad(15.0)
    best = min(
        np.sqrt(np.mean(np.sum((pc @ (_rz(al) @ _ry(be) @ _rz(ga)).T - qc) ** 2, axis=1)))
        for al in np.arange(0.0, 2.0 * np.pi, step)
        for be in np.arange(0.0, np.pi + 1e-12, step)
        for ga in np.arange(0.0, 2.0 * np.pi, step)
    )
    assert abs(a - best) < 1e-9
