"""Structure tokenizer: invariant encoder, lookup-free quantizer, bit/index
codec, and coordinate decoder, trainable for reconstruction.

The encoder sees only rigid-invariant inputs (windowed CA distance
profiles, backbone dihedrals, local-frame atom displacements), so its
tokens are exactly invariant under rigid transforms of the input. The
decoder is a small transformer over token rows with relative-position
attention bias and outputs coordinates centered at the CA centroid.

Later stages run the trained tokenizer frozen, only through this module:
`tokenize` is the one encoder pass (continuous tokens, bits with
sign(0) = +1, hidden states, as arrays) and `decode` runs the decoder
without a graph. `tokenizer_loss` alone runs both with a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import kernels, nn
from .autodiff import LayerNorm, Linear, Module, Tensor
from .errors import DegenerateInput, IndexOutOfRange, ShapeMismatch
from .optim import fit

N_FEATURES = 23  # 8 distance offsets + 6 dihedral sin/cos + 9 frame projections
DIST_OFFSETS = (-4, -3, -2, -1, 1, 2, 3, 4)

COMMIT_WEIGHT = 0.25
ENTROPY_WEIGHT = 0.1
DIST_WEIGHT = 0.25
LR_PEAK = 1e-3
LR_WARMUP = 100


@dataclass
class TokenizerConfig:
    k: int = 8  # bit width; codebook size 2^k
    width: int = 64
    blocks: int = 3
    heads: int = 4


def mask_id(k):
    return 2**k


# -- invariant featurization -------------------------------------------------

def invariant_features(structure: geo.BackboneStructure) -> np.ndarray:
    """(L, 23) rigid-invariant per-residue features."""
    ca = structure.ca()
    chain = structure.chain_ids
    length = len(structure)
    feats = np.zeros((length, N_FEATURES))
    idx = np.arange(length)
    for col, off in enumerate(DIST_OFFSETS):
        j = idx + off
        ok = (j >= 0) & (j < length)
        ok[ok] &= chain[j[ok]] == chain[idx[ok]]
        feats[ok, col] = np.linalg.norm(ca[j[ok]] - ca[ok], axis=1)
    feats[:, 8:14] = _backbone_dihedral_sincos(structure.coords, chain)
    n_at, ca_at, c_at, o_at = (structure.coords[:, i, :] for i in range(4))
    e1 = _unit_rows(c_at - ca_at)
    normal = _unit_rows(geo.cross_rows(c_at - ca_at, n_at - ca_at))
    e2 = geo.cross_rows(normal, e1)
    frame = np.stack([e1, e2, normal], axis=2)  # (L, 3, 3) columns are axes
    for col, atom in enumerate((n_at, c_at, o_at)):
        rel = atom - ca_at
        feats[:, 14 + 3 * col : 17 + 3 * col] = np.einsum("li,lij->lj", rel, frame)
    return feats


def _unit_rows(v, eps=1e-12):
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), eps)


def _dihedral_sincos(p0, p1, p2, p3, eps=1e-8):
    """(sin, cos) of the dihedral defined by four (L, 3) point arrays."""
    b0 = p1 - p0
    b1 = p2 - p1
    b2 = p3 - p2
    n1 = geo.cross_rows(b0, b1)
    n2 = geo.cross_rows(b1, b2)
    b1n = b1 * (1.0 / np.sqrt((b1 * b1).sum(axis=1) + eps))[:, None]
    m1 = geo.cross_rows(n1, b1n)
    x = (n1 * n2).sum(axis=1)
    y = (m1 * n2).sum(axis=1)
    r = np.sqrt(x * x + y * y + eps)
    return y / r, x / r


def _backbone_dihedral_sincos(coords, chain_ids):
    """(L, 6) phi/psi/omega sin-cos from (L, 4, 3) coordinates; an angle
    whose same-chain neighbour is missing is zero."""
    length = coords.shape[0]
    prev_ok = np.zeros(length, dtype=bool)
    next_ok = np.zeros(length, dtype=bool)
    prev_ok[1:] = chain_ids[1:] == chain_ids[:-1]
    next_ok[:-1] = chain_ids[:-1] == chain_ids[1:]
    idx = np.arange(length)
    ip = np.where(prev_ok, idx - 1, idx)
    inx = np.where(next_ok, idx + 1, idx)
    n_at, ca_at, c_at = coords[:, 0], coords[:, 1], coords[:, 2]
    n_next, ca_next = coords[inx, 0], coords[inx, 1]
    phi_s, phi_c = _dihedral_sincos(coords[ip, 2], n_at, ca_at, c_at)
    psi_s, psi_c = _dihedral_sincos(n_at, ca_at, c_at, n_next)
    omg_s, omg_c = _dihedral_sincos(ca_at, c_at, n_next, ca_next)
    phi_mask = prev_ok.astype(np.float64)
    nxt_mask = next_ok.astype(np.float64)
    return np.stack([phi_s * phi_mask, phi_c * phi_mask, psi_s * nxt_mask, psi_c * nxt_mask,
                     omg_s * nxt_mask, omg_c * nxt_mask], axis=1)


# -- model -------------------------------------------------------------------

class Encoder(Module):
    def __init__(self, rng, cfg: TokenizerConfig):
        w = cfg.width
        self.embed = Linear(rng, N_FEATURES, w)
        self.blocks = [nn.Transition(rng, w, ratio=2) for _ in range(cfg.blocks)]
        self.norm = LayerNorm(w)
        self.head = Linear(rng, w, cfg.k)

    def __call__(self, feats):
        x = self.embed(feats if isinstance(feats, Tensor) else Tensor(feats))
        for block in self.blocks:
            x = x + block(x)
        hidden = self.norm(x)
        return self.head(hidden), hidden


class DecoderBlock(Module):
    def __init__(self, rng, cfg: TokenizerConfig):
        w = cfg.width
        self.norm = LayerNorm(w)
        self.attn = nn.MultiHeadAttention(rng, w, cfg.heads)
        self.rel = nn.RelPosBias(rng, cfg.heads, d_value=w // cfg.heads)
        self.mlp = nn.Transition(rng, w, ratio=2)

    def __call__(self, x, rel_terms):
        bias, rel = rel_terms
        x = x + self.attn(self.norm(x), bias=bias, rel=rel)
        return x + self.mlp(x)


class Decoder(Module):
    def __init__(self, rng, cfg: TokenizerConfig):
        w = cfg.width
        self.embed = Linear(rng, cfg.k, w)
        self.blocks = [DecoderBlock(rng, cfg) for _ in range(cfg.blocks)]
        self.norm = LayerNorm(w)
        self.out = Linear(rng, w, 12)

    def positional(self, length):
        """Each block's relative-position terms for `length` rows, as its
        `RelPosBias` returns them: `(bias, (table, diff))`. A sampler that
        decodes one length many times builds them once."""
        positions = np.arange(length)
        return [block.rel(positions) for block in self.blocks]

    def __call__(self, tokens, positional=None):
        """Coordinates (..., L, 4, 3) from (..., L, K) tokens.

        The length L is axis -2, and any leading axes are independent
        chains of that length: each is decoded as if alone, with the same
        bits, and centred on its own CA centroid. `positional` is a list
        from `self.positional` for L rows; it is built when not given."""
        x = self.embed(tokens if isinstance(tokens, Tensor) else Tensor(tokens))
        length = x.shape[-2]
        if positional is None:
            positional = self.positional(length)
        elif positional[0][0].shape[-1] != length:
            raise ShapeMismatch(f"decoder terms of length {positional[0][0].shape[-1]} "
                                f"for {length} tokens")
        for block, rel_terms in zip(self.blocks, positional):
            x = block(x, rel_terms)
        coords = ad.reshape(self.out(self.norm(x)), x.shape[:-1] + (4, 3))
        center = coords[..., 1:2, :].mean(axis=-3, keepdims=True)  # (..., 1, 1, 3)
        return coords - center


class TokenizerParams(Module):
    def __init__(self, cfg: TokenizerConfig, seed=0):
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(rng, cfg)
        self.decoder = Decoder(rng, cfg)


class Tokens(NamedTuple):
    """One frozen-encoder pass as arrays: continuous tokens z (L, K), their
    +-1 bits with sign(0) = +1, and the pre-head hidden states (L, width)."""

    z: np.ndarray
    bits: np.ndarray
    hidden: np.ndarray


def tokenize(structure, params: TokenizerParams) -> Tokens:
    """The `Tokens` of `structure`, from one encoder pass without a graph."""
    with ad.no_grad():
        z, hidden = params.encoder(invariant_features(structure))
    return Tokens(z.data, np.where(z.data >= 0.0, 1.0, -1.0), hidden.data)


def encode(structure, params: TokenizerParams):
    """Continuous tokens (L, K) from rigid-invariant features."""
    return Tensor(tokenize(structure, params).z)


def decode(tokens, params: TokenizerParams, positional=None):
    """Coordinates (..., L, 4, 3), CA-centroid centered, from the frozen
    decoder without a graph, of cont or bit tokens (..., L, K), arrays or
    Tensors; `positional` is the decoder's `Decoder.positional` for L rows."""
    with ad.no_grad():
        return params.decoder(tokens, positional)


# -- lookup-free quantization ------------------------------------------------

def lfq_quantize(z):
    """Dimension-wise sign quantization with straight-through gradients.

    Returns (bits in {-1,+1} with identity surrogate gradient, losses):
    commitment = mean (z - sg(bits))^2; entropy regularizer rewards
    balanced per-dimension bit usage across the batch axis.
    """
    z = z if isinstance(z, Tensor) else Tensor(z)
    bits = ad.sign_ste(z)
    hard = Tensor(bits.data)  # stop-gradient copy
    commitment = ((z - hard) ** 2).mean()
    p = ad.sigmoid(z).mean(axis=0)
    eps = 1e-9
    entropy_per_dim = -(p * ad.log(p + eps) + (1.0 - p) * ad.log(1.0 - p + eps))
    entropy = -entropy_per_dim.mean()  # minimized => entropy maximized
    return bits, {"commitment": commitment, "entropy": entropy}


# -- bit/index codec ---------------------------------------------------------

def bits_to_index(bits, groups=1):
    """(L, K) bits to (L, G) codes: each group's code reads its K/G
    consecutive bits as a binary number, its first bit the LSB. G = 1 gives
    the index token, G = K each bit as 0 or 1."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] % groups:
        raise ShapeMismatch(f"bits must be (L, K) with {groups} dividing K, got {bits.shape}")
    weights = 2 ** np.arange(bits.shape[1] // groups, dtype=np.int64)
    return ((bits.reshape(len(bits), groups, -1) > 0) * weights).sum(axis=-1)


def index_to_bits(codes, k):
    """(L, G) codes to (L, K) bits; the inverse of `bits_to_index`."""
    codes = np.asarray(codes, dtype=np.int64)
    width = k // codes.shape[1]
    if np.any(codes < 0) or np.any(codes >= 2**width):
        raise IndexOutOfRange(f"codes outside [0, {2**width})")
    return np.where((codes[..., None] >> np.arange(width)) & 1, 1.0, -1.0).reshape(len(codes), k)


# -- reconstruction loss and training ----------------------------------------

def reconstruction_loss(pred_coords, target: geo.BackboneStructure, d_true=None):
    """Rigid-alignment coordinate MSE plus a CA distance-matrix term.

    The target is superposed onto the current prediction with a proper
    rotation computed outside the autodiff graph; since that rotation is
    the minimizer over rigid moves, treating it as a constant gives the
    exact gradient of the aligned loss. Proper rotations only, so
    mirror-image reconstructions remain expensive. The superposition runs
    in float64; the aligned target and its distance matrix enter the graph
    in the compute dtype. `d_true` is that matrix, `target_distances(target)`,
    when the caller has it already."""
    pred_ca_data = pred_coords.data[:, 1, :]
    try:
        res = geo.kabsch_points(target.ca(), pred_ca_data)
        aligned = target.coords @ res.rotation.T + res.translation
    except DegenerateInput:
        aligned = target.coords - target.ca().mean(axis=0) + pred_ca_data.mean(axis=0)
    dtype = ad.compute_dtype()
    coord_term = ((pred_coords - aligned.astype(dtype)) ** 2).mean()
    if d_true is None:
        d_true = target_distances(target)
    dist_term = ((ad.pair_dist(pred_coords[:, 1, :]) - d_true) ** 2).mean()
    return coord_term + DIST_WEIGHT * dist_term


def target_distances(target: geo.BackboneStructure):
    """The target's CA distance matrix, computed in float64 and cast to the
    compute dtype, as `reconstruction_loss` compares it."""
    return kernels.pdist(target.ca(), 1e-8).astype(ad.compute_dtype())


@dataclass
class ReconReport:
    cont_rmsd: list = field(default_factory=list)
    cont_tm: list = field(default_factory=list)
    quant_rmsd: list = field(default_factory=list)
    quant_tm: list = field(default_factory=list)

    def summary(self):
        mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
        return {
            "cont_rmsd": mean(self.cont_rmsd),
            "cont_tm": mean(self.cont_tm),
            "quant_rmsd": mean(self.quant_rmsd),
            "quant_tm": mean(self.quant_tm),
        }


def reconstruction_report(params, dataset):
    """Per-sample Kabsch RMSD and TM on both token paths."""
    report = ReconReport()
    for structure in dataset:
        z, bits, _ = tokenize(structure, params)
        pred_q, pred_c = decode(np.stack([bits, z]), params).data
        for pred, rs, ts in (
            (pred_c, report.cont_rmsd, report.cont_tm),
            (pred_q, report.quant_rmsd, report.quant_tm),
        ):
            got = geo.BackboneStructure(pred, structure.chain_ids, structure.source_id)
            rs.append(geo.rmsd(got, structure))
            ts.append(geo.tm_score(got, structure))
    return report


def tokenizer_loss(params: TokenizerParams, structure, feats):
    """The training loss of one structure with invariant features `feats`:
    0.5*(cont + quant reconstruction) + 0.25*commitment + 0.1*entropy
    regularizer.

    Both token paths go through the decoder in one call, as a (2, L, K)
    stack of the quantized bits and the continuous tokens; each path's
    prediction is the one its own decoder call would give, and both are
    compared with one target distance matrix."""
    z, _ = params.encoder(feats)
    bits, q_losses = lfq_quantize(z)
    pred = params.decoder(ad.concat([ad.reshape(t, (1,) + t.shape) for t in (bits, z)]))
    d_true = target_distances(structure)
    return (
        0.5 * (reconstruction_loss(pred[0], structure, d_true)
               + reconstruction_loss(pred[1], structure, d_true))
        + COMMIT_WEIGHT * q_losses["commitment"]
        + ENTROPY_WEIGHT * q_losses["entropy"]
    )


def train_tokenizer(dataset, cfg: TokenizerConfig, seed, steps, log_every=0):
    """Returns (params, ReconReport), trained on `tokenizer_loss`."""
    params = TokenizerParams(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    feats = [invariant_features(s) for s in dataset]

    def step_loss(i):
        return tokenizer_loss(params, dataset[i], feats[i]), ""

    fit(params.parameters(), dataset, steps, rng, step_loss, "tokenizer",
        LR_PEAK, LR_WARMUP, log_every=log_every)
    return params, reconstruction_report(params, dataset)
