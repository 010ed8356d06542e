"""Multimer handling: glycine chain linkers, position-index offsets, and
their inverse bookkeeping.

Chains are joined into one token state with `linker_len` glycine sequence
tokens between consecutive chains; linker structure positions are masked
(no real coordinates exist for them) and excluded from losses. Position
indices add `chain_index * pos_offset` on top of a running index so the
relative-position embeddings see a saturated "different chain" signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion as dfn
from . import tokenizer as tok
from .errors import LayoutMismatch

GLY = 7  # glycine id in the 20-letter alphabet (alphabetical three-letter order)
LINKER_LEN_DEFAULT = 25
POS_OFFSET_DEFAULT = 25


@dataclass
class ChainLayout:
    chain_lengths: list
    linker_len: int
    pos_offset: int
    linker_mask: np.ndarray  # bool over the expanded length

    @property
    def expanded_length(self):
        n = len(self.chain_lengths)
        return sum(self.chain_lengths) + self.linker_len * (n - 1)

    def chain_index(self):
        """Chain index per expanded position; linkers inherit the preceding
        chain's index."""
        out = np.empty(self.expanded_length, dtype=np.int64)
        pos = 0
        for c, length in enumerate(self.chain_lengths):
            stop = pos + length
            out[pos:stop] = c
            pos = stop
            if c < len(self.chain_lengths) - 1:
                out[pos : pos + self.linker_len] = c
                pos += self.linker_len
        return out


def insert_linker(chains, linker_len=LINKER_LEN_DEFAULT, pos_offset=POS_OFFSET_DEFAULT):
    """Join per-chain (sequence, struct_bits) pairs into one TokenState.

    Linker positions carry glycine sequence tokens and masked structure
    rows. Returns (TokenState, ChainLayout).
    """
    if not chains:
        raise ValueError("need at least one chain")
    k = np.asarray(chains[0][1]).shape[1]
    seqs, bits, link_flags = [], [], []
    for i, (seq, struct_bits) in enumerate(chains):
        seq = np.asarray(seq, dtype=np.int64)
        struct_bits = np.asarray(struct_bits, dtype=np.float64)
        seqs.append(seq)
        bits.append(struct_bits)
        link_flags.append(np.zeros(len(seq), dtype=bool))
        if i < len(chains) - 1 and linker_len:
            seqs.append(np.full(linker_len, GLY, dtype=np.int64))
            bits.append(np.zeros((linker_len, k)))
            link_flags.append(np.ones(linker_len, dtype=bool))
    layout = ChainLayout(
        chain_lengths=[len(s) for s, _ in chains],
        linker_len=linker_len,
        pos_offset=pos_offset,
        linker_mask=np.concatenate(link_flags),
    )
    state = dfn.TokenState.observed(np.concatenate(seqs), np.concatenate(bits, axis=0))
    state.mask_struct = layout.linker_mask.copy()
    return state, layout


def strip_linker(joined, layout: ChainLayout):
    """Drop linker positions and split back into per-chain pieces.

    `joined` is any array (or TokenState) indexed by expanded position
    along its first axis; returns a list with one piece per chain.
    """
    if isinstance(joined, dfn.TokenState):
        return [
            (seq_part, bits_part)
            for seq_part, bits_part in zip(
                strip_linker(joined.seq, layout), strip_linker(joined.struct_bits, layout)
            )
        ]
    joined = np.asarray(joined)
    if joined.shape[0] != layout.expanded_length:
        raise LayoutMismatch(
            f"expected length {layout.expanded_length}, got {joined.shape[0]}"
        )
    pieces = []
    pos = 0
    for c, length in enumerate(layout.chain_lengths):
        pieces.append(joined[pos : pos + length])
        pos += length
        if c < len(layout.chain_lengths) - 1:
            pos += layout.linker_len
    return pieces


def position_indices(layout: ChainLayout):
    """Running expanded index plus chain_index * pos_offset per position."""
    running = np.arange(layout.expanded_length, dtype=np.int64)
    return running + layout.chain_index() * layout.pos_offset


def chains_from_structure(structure, tokenizer_params):
    """Tokenize a (possibly multi-chain) structure and split it into the
    per-chain (sequence-placeholder, struct_bits) list insert_linker
    expects; sequences must be supplied by the caller."""
    bits = tok.structure_bits(structure, tokenizer_params)
    pieces = []
    for c in np.unique(structure.chain_ids):
        sel = structure.chain_ids == c
        pieces.append(bits[sel])
    return pieces
