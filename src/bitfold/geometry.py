"""Backbone coordinate handling.

Structures are stored as (L, 4, 3) float64 arrays in Angstroms with atom
order [N, CA, C, O] and an integer chain id per residue. Superposition
metrics (Kabsch RMSD, TM-score) operate on CA atoms only.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, LengthMismatch, MissingAtom, ParseError, SpecInvalid

ATOM_NAMES = ("N", "CA", "C", "O")
CA_STEP = 3.8  # canonical consecutive Calpha distance, Angstrom
JITTER_SIGMA = 0.1
JITTER_CLIP = 0.25  # keeps consecutive CA distances inside [2.0, 4.5]

N_AMINO_ACIDS = 20
# base residue pools per secondary-structure kind (amino-acid ids 0..19)
_SS_POOLS = {
    "helix": (0, 10, 4, 8),
    "strand": (17, 9, 5, 16),
    "loop": (7, 15, 12, 2),
}


@dataclass
class BackboneStructure:
    coords: np.ndarray  # (L, 4, 3)
    chain_ids: np.ndarray  # (L,) int
    source_id: str = ""

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.chain_ids = np.asarray(self.chain_ids, dtype=np.int64)
        if self.coords.ndim != 3 or self.coords.shape[1:] != (4, 3):
            raise SpecInvalid(f"coords must be (L,4,3), got {self.coords.shape}")
        if len(self.chain_ids) != len(self.coords):
            raise SpecInvalid("chain_ids length mismatch")
        if len(self.coords) < 2:
            raise SpecInvalid("structure needs at least 2 residues")
        if not np.all(np.isfinite(self.coords)):
            raise SpecInvalid("non-finite coordinates")

    def __len__(self):
        return len(self.coords)

    def ca(self):
        return self.coords[:, 1, :]

    def transformed(self, rotation, translation):
        coords = self.coords @ np.asarray(rotation).T + np.asarray(translation)
        return BackboneStructure(coords, self.chain_ids.copy(), self.source_id)


@dataclass
class AlignmentResult:
    rotation: np.ndarray  # (3,3), proper
    translation: np.ndarray  # (3,)
    rmsd: float


def random_rotation(rng):
    """Uniform random proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def kabsch_align(mobile: BackboneStructure, target: BackboneStructure) -> AlignmentResult:
    """Least-squares rigid superposition of mobile CA onto target CA."""
    if len(mobile) != len(target):
        raise LengthMismatch(f"{len(mobile)} vs {len(target)}")
    return kabsch_points(mobile.ca(), target.ca())


def kabsch_points(p, q):
    """Least-squares rigid superposition of point set p onto q."""
    pc = p.mean(axis=0)
    qc = q.mean(axis=0)
    p0 = p - pc
    q0 = q - qc
    h = p0.T @ q0
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * max(s[0], 1.0):
        raise DegenerateInput("CA set is (near) collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.diag([1.0, 1.0, d])
    rot = vt.T @ flip @ u.T
    moved = p0 @ rot.T
    rmsd = math.sqrt(((moved - q0) ** 2).sum() / len(p))
    trans = qc - rot @ pc
    return AlignmentResult(rotation=rot, translation=trans, rmsd=rmsd)


def rmsd(a: BackboneStructure, b: BackboneStructure) -> float:
    return kabsch_align(a, b).rmsd


def tm_d0(length):
    """TM-score normalization distance, clamped below at 0.5."""
    return max(0.5, 1.24 * max(length - 15, 0) ** (1.0 / 3.0) - 1.8)


def tm_score(model: BackboneStructure, reference: BackboneStructure) -> float:
    """Aligned-pair TM-score with iterative superposition refinement.

    Superpose on all residues, then twice re-superpose on the residues
    currently within d0, keeping the best score seen. A deterministic
    simplification of the published search.
    """
    if len(model) != len(reference):
        raise LengthMismatch(f"{len(model)} vs {len(reference)}")
    p = model.ca()
    q = reference.ca()
    n = len(p)
    d0 = tm_d0(n)
    subset = np.arange(n)
    best = 0.0
    for _ in range(3):
        try:
            res = kabsch_points(p[subset], q[subset])
        except DegenerateInput:
            break
        moved = p @ res.rotation.T + res.translation
        d = np.linalg.norm(moved - q, axis=1)
        score = float(np.mean(1.0 / (1.0 + (d / d0) ** 2)))
        best = max(best, score)
        new_subset = np.flatnonzero(d < d0)
        if len(new_subset) < 3 or np.array_equal(new_subset, subset):
            break
        subset = new_subset
    return best


# -- serialization ----------------------------------------------------------

def write_backbone(s: BackboneStructure) -> str:
    """Native text format; 6 fraction digits per coordinate."""
    lines = [f"BKB v1 L={len(s)}"]
    for cid, res in zip(s.chain_ids, s.coords):
        nums = "  ".join(" ".join(f"{v:.6f}" for v in atom) for atom in res)
        lines.append(f"{cid}  {nums}")
    return "\n".join(lines) + "\n"


def parse_backbone(text, fmt="native") -> BackboneStructure:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt == "native":
        return _parse_native(text)
    if fmt == "pdb-subset":
        return _parse_pdb(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_native(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("BKB v1 L="):
        raise ParseError("missing 'BKB v1' header", line_no=1)
    try:
        n = int(lines[0].split("L=")[1])
    except (IndexError, ValueError):
        raise ParseError("malformed header length", line_no=1)
    coords, chains = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 13:
            raise ParseError(f"expected 13 fields, got {len(parts)}", line_no=ln)
        try:
            chains.append(int(parts[0]))
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), line_no=ln)
        coords.append(np.array(vals).reshape(4, 3))
    if len(coords) != n:
        raise ParseError(f"header says L={n}, found {len(coords)} residues", line_no=len(lines))
    return BackboneStructure(np.array(coords), np.array(chains))


def _parse_pdb(text):
    residues = {}  # (chain, resseq) -> {atom: xyz}; insertion-ordered
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        name = line[12:16].strip()
        if name not in ATOM_NAMES:
            continue
        chain = line[21]
        try:
            resseq = int(line[22:26])
            xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
        except ValueError as exc:
            raise ParseError(str(exc), line_no=ln)
        residues.setdefault((chain, resseq), {})[name] = xyz
    if not residues:
        raise ParseError("no backbone ATOM records found", line_no=1)
    chain_order = []
    coords, chains = [], []
    for (chain, resseq), atoms in residues.items():
        missing = [a for a in ATOM_NAMES if a not in atoms]
        if missing:
            raise MissingAtom(f"residue {chain}{resseq} lacks {','.join(missing)}")
        if chain not in chain_order:
            chain_order.append(chain)
        coords.append([atoms[a] for a in ATOM_NAMES])
        chains.append(chain_order.index(chain))
    return BackboneStructure(np.array(coords, dtype=np.float64), np.array(chains))


def load_backbone(path):
    """The backbone in the file at `path`; a parse error names the file."""
    with io.open(path, "r") as fh:
        text = fh.read()
    fmt = "pdb-subset" if text.lstrip().startswith("ATOM") else "native"
    try:
        structure = parse_backbone(text, fmt)
    except (ParseError, MissingAtom) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    stem = os.path.basename(path)
    structure.source_id = stem.rsplit(".", 1)[0] if "." in stem else stem
    return structure


# -- synthetic data ---------------------------------------------------------

@dataclass
class SynthSpec:
    length: int  # residues
    segments: list = field(default_factory=list)  # [(kind, n)] or empty for random plan


def _random_plan(length, rng):
    plan = []
    remaining = length
    kinds = ("helix", "strand", "loop")
    while remaining > 0:
        kind = kinds[rng.integers(len(kinds))]
        n = int(rng.integers(4, 13))
        n = min(n, remaining)
        plan.append((kind, n))
        remaining -= n
    return plan


def _unit(v, fallback=(1.0, 0.0, 0.0)):
    n = np.linalg.norm(v)
    if n < 1e-8:
        return np.asarray(fallback, dtype=np.float64)
    return v / n


def _segment_trace(kind, n, rng):
    """Ideal-geometry CA trace of one segment in local coordinates."""
    i = np.arange(n, dtype=np.float64)
    if kind == "helix":
        theta = np.deg2rad(100.0) * i
        return np.stack([2.3 * np.cos(theta), 2.3 * np.sin(theta), 1.5 * i], axis=1)
    if kind == "strand":
        return np.stack([0.95 * (-1.0) ** i, np.zeros(n), 3.3 * i], axis=1)
    if kind == "loop":
        # smooth random walk with near-canonical step length
        pts = [np.zeros(3)]
        d = np.array([0.0, 0.0, 1.0])
        for _ in range(n - 1):
            d = _unit(d + rng.normal(0.0, 0.35, size=3))
            pts.append(pts[-1] + CA_STEP * d)
        return np.array(pts)
    raise SpecInvalid(f"unknown segment kind {kind!r}")


def _chain_trace(plan, rng):
    trace = []
    for kind, n in plan:
        seg = _segment_trace(kind, n, rng)
        rot = random_rotation(rng)
        seg = seg @ rot.T
        if trace:
            prev = trace[-1]
            direction = _unit(rng.normal(size=3))
            seg = seg - seg[0] + prev + CA_STEP * direction
        trace.extend(seg)
    return np.array(trace)


def cross_rows(a, b):
    """Row-wise cross product of (N, 3) arrays; either may be one (3,) row.

    The same products and differences as `np.cross`, so bit-equal to it,
    without its axis handling (about half its cost at N = 64)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _norm_rows(v):
    """Row norms, bit-equal to `np.linalg.norm` of each row alone (both sum
    the squares with the same dot kernel)."""
    return np.sqrt(np.vecdot(v, v))


def _unit_rows(v):
    """`_unit` of every row: rows shorter than 1e-8 become (1, 0, 0)."""
    n = _norm_rows(v)
    short = n < 1e-8
    out = v / np.where(short, 1.0, n)[:, None]
    out[short] = (1.0, 0.0, 0.0)
    return out


def _backbone_from_ca(ca):
    """Place N, C, O from the (L, 3) CA trace with canonical bond lengths.

    All residues are placed at once, each with the expressions, in the
    same order, of a per-residue loop: the tangent t runs from the previous
    to the next CA, and the normal is the cross product of the unit forward
    and backward steps. The first residue, which has no backward step, uses
    (0, 1, 0) in its place; the last reuses its backward step as its
    forward one. Where that normal is shorter than 1e-8 (a straight run or
    repeated points) it falls back to t x (1, 0, 0), then to t x (0, 1, 0).

    The output matches that loop to 1e-12 A (bit for bit with numpy 2.4 and
    OpenBLAS), so `synth_backbone` output is byte-identical after its
    6-decimal rounding; the tests keep the loop as the reference.
    """
    n_res = len(ca)
    i = np.arange(n_res)
    prev, nxt = np.maximum(i - 1, 0), np.minimum(i + 1, n_res - 1)
    step = _unit_rows(ca - ca[prev])  # unit backward steps; row 0's is unused
    bwd = step.copy()
    bwd[0] = (0.0, 1.0, 0.0)
    t = _unit_rows(ca[nxt] - ca[prev])
    normal = cross_rows(step[nxt], bwd)
    for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        bad = np.flatnonzero(_norm_rows(normal) < 1e-8)
        if not len(bad):
            break
        normal[bad] = cross_rows(t[bad], axis)
    normal = _unit_rows(normal)
    side = _unit_rows(cross_rows(t, normal))
    coords = np.empty((n_res, 4, 3))
    coords[:, 0] = ca - 1.16 * t + 0.89 * normal  # N
    coords[:, 1] = ca
    coords[:, 2] = ca + 1.21 * t - 0.92 * normal  # C
    coords[:, 3] = coords[:, 2] + 1.23 * side  # O
    return coords


def _plan_labels(plan):
    labels = []
    for kind, n in plan:
        labels.extend([kind] * n)
    return labels


def _sequence_from_ss(labels, rng):
    seq = np.empty(len(labels), dtype=np.int64)
    for i, kind in enumerate(labels):
        pool = _SS_POOLS[kind]
        u = rng.random()
        if u < 0.1:
            seq[i] = rng.integers(N_AMINO_ACIDS)
        elif u < 0.7:
            seq[i] = pool[0]
        else:
            seq[i] = pool[1 + rng.integers(len(pool) - 1)]
    return seq


def synth_backbone(spec: SynthSpec, seed: int):
    """Deterministic synthetic backbone plus amino-acid token sequence.

    Sequence tokens are derived from local secondary structure with
    seeded noise so the sequence->structure mapping is learnable.

    The rng is drawn in a fixed order (plan, trace, jitter, sequence), and
    the coordinates are rounded to 6 decimals, so a (spec, seed) pair gives
    the same bytes whenever the per-residue arithmetic is unchanged; every
    benchmark input and its loss depends on that. The tests keep a sha256
    of a few outputs.
    """
    if not 8 <= spec.length <= 512:
        raise SpecInvalid(f"length {spec.length} outside [8, 512]")
    rng = np.random.default_rng(seed)
    plan = list(spec.segments) if spec.segments else _random_plan(spec.length, rng)
    if sum(n for _, n in plan) != spec.length:
        raise SpecInvalid("segment plan does not sum to length")
    ca = _chain_trace(plan, rng)
    ca = ca + np.clip(rng.normal(0.0, JITTER_SIGMA, size=ca.shape), -JITTER_CLIP, JITTER_CLIP)
    structure = BackboneStructure(
        np.round(_backbone_from_ca(ca), 6),  # 6 decimals: native-format roundtrips bit-exact
        np.zeros(spec.length, dtype=np.int64),
        source_id=f"synth-{seed}",
    )
    return structure, _sequence_from_ss(_plan_labels(plan), rng)
