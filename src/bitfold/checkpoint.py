"""Binary checkpoint format.

Little-endian layout: magic `BFCK`, version u32, config echo (u32 length +
UTF-8 text), training step u64, rng-state echo (u32 length + UTF-8 JSON),
parameter count u32, then per-parameter records {u32 name length, name,
u32 rank, u32 dims..., float64 payload}. Loading returns the config echo
as stored; the caller scopes the check of it to the keys of the component
it loads (`config.check_architecture`).

Parameters compute in float32, and every float32 value converts to float64
exactly, so the payload holds them without loss and files written by
float64 builds stay valid. Restoring casts each stored array to its
parameter's dtype and refuses a finite value that overflows it.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import InvalidConfig, ParseError

MAGIC = b"BFCK"
VERSION = 1


def _pack_str(text):
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ParseError("truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def string(self):
        return self.take(self.u32()).decode("utf-8")


def save_checkpoint(path, params, config_text, step=0, rng_state=None):
    """Write named tensors as f64 plus config/step/rng-state echoes.

    `params` maps name -> Tensor (or ndarray)."""
    chunks = [MAGIC, struct.pack("<I", VERSION), _pack_str(config_text),
              struct.pack("<Q", step), _pack_str(json.dumps(rng_state or {}, default=int)),
              struct.pack("<I", len(params))]
    for name in sorted(params):
        value = params[name]
        arr = np.ascontiguousarray(getattr(value, "data", value), dtype="<f8")
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path):
    """Returns (tensors dict, config_text, step, rng_state)."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise ParseError("not a BFCK checkpoint")
    version = reader.u32()
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    config_text = reader.string()
    step = reader.u64()
    rng_state = json.loads(reader.string())
    tensors = {}
    for _ in range(reader.u32()):
        name = reader.string()
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        count = int(np.prod(dims)) if rank else 1
        payload = reader.take(8 * count)
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return tensors, config_text, step, rng_state


def restore_parameters(module, tensors, prefix=""):
    """Copy stored arrays into a Module's parameters in place, cast to each
    parameter's dtype; names must match exactly, and a finite stored value
    that overflows the dtype is refused with the parameter's name."""
    params = module.parameters(prefix=prefix)
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise InvalidConfig(
            f"parameter names mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}"
        )
    for name, tensor in params.items():
        stored = tensors[name]
        if stored.shape != tensor.data.shape:
            raise InvalidConfig(f"{name}: shape {stored.shape} vs {tensor.data.shape}")
        with np.errstate(over="ignore"):
            cast = stored.astype(tensor.data.dtype)
        overflow = np.isfinite(stored) & ~np.isfinite(cast)
        if overflow.any():
            raise InvalidConfig(f"{name}: stored value {stored[overflow][0]:g} overflows "
                                f"{tensor.data.dtype}")
        tensor.data[...] = cast
