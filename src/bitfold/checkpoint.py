"""Checkpoints as numpy `.npz` archives.

A checkpoint is one uncompressed zip archive written by `np.savez`, with
these entries:
- `param/<name>`: each parameter array in its own dtype (float32, as the
  model computes);
- `config`: the config text, a 0-d unicode array;
- `step`: the training step, a 0-d integer;
- `version`: the layout's version, a 0-d integer;
- `count`: the number of `param/` entries, a 0-d integer, written ahead
  of them.

Loading returns the config text as stored; the caller scopes the check of
it to the keys of the component it loads (`config.check_architecture`).
Entries outside this list are ignored, so a later layout can add entries
that older readers skip.

The zip format stores a CRC-32 of every entry and reading checks it, so a
flipped byte is refused. A flipped byte in the central directory can hide
the entries after it (a record's comment length that swallows the records
that follow), so loading checks the `param/` entries against `count`.
Every malformed file raises a `ParseError` whose message starts with the
path; a missing file raises `FileNotFoundError`.
Saving writes `<path>.tmp` and renames it over `<path>`, so an interrupted
save never leaves a truncated checkpoint under the final name.

Restoring casts each stored array to its parameter's dtype and refuses a
finite value that overflows it.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from .errors import InvalidConfig, ParseError

VERSION = 2


def save_checkpoint(path, params, config_text, step=0):
    """Write named arrays with the config text and step to `path`.

    `params` maps name -> Tensor (or ndarray)."""
    entries = {f"param/{name}": np.asarray(getattr(value, "data", value))
               for name, value in sorted(params.items())}
    tmp = f"{path}.tmp"
    try:
        # A file object, since `np.savez` appends `.npz` to a path without it.
        with open(tmp, "wb") as fh:
            np.savez(fh, allow_pickle=False, version=np.int64(VERSION),
                     config=np.array(config_text), step=np.int64(step),
                     count=np.int64(len(entries)), **entries)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (tensors dict, config_text, step)."""
    with open(path, "rb") as fh:  # outside the try: a missing file stays FileNotFoundError
        if fh.read(4) != b"PK\x03\x04":
            raise ParseError(f"{path}: not an .npz archive")
        fh.seek(0)
        try:
            archive = np.load(fh, allow_pickle=False)
            entries = {name: archive[name] for name in archive.files}
        except (ValueError, EOFError, OSError, NotImplementedError, zipfile.BadZipFile) as exc:
            # OSError: a corrupt offset seeks before the start of the file;
            # NotImplementedError: a corrupt header names an unknown compression.
            raise ParseError(f"{path}: not a readable checkpoint: {exc}") from None

    def scalar(name, kinds, what):
        value = entries.get(name)
        if value is None or value.shape != () or value.dtype.kind not in kinds:
            got = "no entry" if value is None else f"{value.dtype} of shape {value.shape}"
            raise ParseError(f"{path}: '{name}' must be {what}, got {got}")
        return value.item()

    version = scalar("version", "iu", "a scalar integer")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    config_text = scalar("config", "U", "scalar text")
    step = scalar("step", "iu", "a scalar integer")
    count = scalar("count", "iu", "a scalar integer")
    tensors = {name[len("param/"):]: value for name, value in entries.items()
               if name.startswith("param/")}
    if len(tensors) != count:
        raise ParseError(f"{path}: lists {len(tensors)} 'param/' entries, "
                         f"but 'count' is {count}")
    for name, value in tensors.items():
        if value.dtype.kind not in "fiu":
            raise ParseError(f"{path}: 'param/{name}' has dtype {value.dtype}, "
                             f"not float or integer")
    return tensors, config_text, step


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
