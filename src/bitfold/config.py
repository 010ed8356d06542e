"""Line-based `key = value` configuration with `[section]` headers.

One flat dataclass carries every knob: architecture flags and dims,
tokenizer shape, noise schedule, auxiliary heads, sampler options and
training hyperparameters. It is also the one description of the LM:
`geo_arch.ProteinLM` and its blocks read their flags and sizes from it.
Round-trips through text losslessly.

Every checkpoint stores the full config text as provenance, but
`COMPONENT_KEYS` alone says what a checkpoint is checked against: the keys
that define its component (tokenizer, LM or ResDiff head). Any other key
may differ between the run that wrote a checkpoint and the run that loads
it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InvalidConfig


@dataclass
class ModelConfig:
    # [model]
    d_model: int = 64
    d_pair: int = 16
    d_tri_update: int = 16
    d_tri_attn_head: int = 8
    heads: int = 4
    heads_tri: int = 2
    heads_seqstruct: int = 4
    transition_ratio: int = 4
    n_blocks: int = 2
    head: str = "bit"
    pair_bias: bool = False
    struct_transition: bool = False
    triangle_update: bool = False
    triangle_attention: bool = False
    seqstruct_attention: bool = False
    # [tokenizer]
    k: int = 8
    tok_width: int = 64
    tok_blocks: int = 3
    tok_heads: int = 4
    # [schedule]
    T: int = 100
    weighting: str = "uniform"
    # [repa]
    repa_enabled: bool = False
    repa_weight: float = 0.5
    # [resdiff]
    resdiff_t_r: int = 100
    resdiff_hidden: int = 128
    resdiff_layers: int = 4
    # [fm]
    fm_enabled: bool = False
    fm_n_steps: int = 10
    # [training]
    lr_peak: float = 1e-4
    warmup: int = 2000
    lr_floor: float = 1e-5
    steps: int = 1000
    seed: int = 0
    folding_sft: bool = False

    def validate(self):
        if self.head not in ("bit", "index"):
            raise InvalidConfig(f"head must be 'bit' or 'index', got {self.head!r}")
        if (self.triangle_update or self.triangle_attention) and not self.pair_bias:
            raise InvalidConfig("triangle operations require the pair representation")
        for name in _POSITIVE_KEYS:
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} = {getattr(self, name)} must be positive")
        splits = [("heads", self.heads, "d_model", self.d_model),
                  ("tok_heads", self.tok_heads, "tok_width", self.tok_width)]
        if self.seqstruct_attention:
            splits.append(
                ("heads_seqstruct", self.heads_seqstruct, "2 * d_model", 2 * self.d_model))
        for heads, n_heads, width, d in splits:
            if d % n_heads:
                raise InvalidConfig(f"{heads} = {n_heads} must divide {width} = {d}")
        return self


# Sizes and counts: a zero or negative one builds a model with no layer or
# no width.
_POSITIVE_KEYS = (
    "d_model", "d_pair", "d_tri_update", "d_tri_attn_head", "heads", "heads_tri",
    "heads_seqstruct", "transition_ratio", "n_blocks", "k", "tok_width", "tok_blocks",
    "tok_heads", "resdiff_hidden", "resdiff_layers", "fm_n_steps",
)

_SECTIONS = {
    "model": [
        "d_model", "d_pair", "d_tri_update", "d_tri_attn_head", "heads", "heads_tri",
        "heads_seqstruct", "transition_ratio", "n_blocks", "head", "pair_bias",
        "struct_transition", "triangle_update", "triangle_attention", "seqstruct_attention",
    ],
    "tokenizer": ["k", "tok_width", "tok_blocks", "tok_heads"],
    "schedule": ["T", "weighting"],
    "repa": ["repa_enabled", "repa_weight"],
    "resdiff": ["resdiff_t_r", "resdiff_hidden", "resdiff_layers"],
    "fm": ["fm_enabled", "fm_n_steps"],
    "training": ["lr_peak", "warmup", "lr_floor", "steps", "seed", "folding_sft"],
}

# The keys a checkpoint of each component must agree on with the loading config.
COMPONENT_KEYS = {
    "tokenizer": _SECTIONS["tokenizer"],
    "lm": _SECTIONS["model"] + ["k"] + _SECTIONS["schedule"],
    "resdiff": _SECTIONS["resdiff"] + ["k", "d_model", "n_blocks"],
}

_FIELD_TYPES = {f.name: f.type for f in fields(ModelConfig)}


def _assign(cfg, item, where):
    """Set one `key = value` item on `cfg`; errors start with `where`."""
    if "=" not in item:
        raise InvalidConfig(f"{where}expected 'key = value', got {item!r}")
    name, raw = (part.strip() for part in item.split("=", 1))
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise InvalidConfig(f"{where}unknown key {name!r}")
    if kind == "bool":
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise InvalidConfig(f"{where}{name}: expected boolean, got {raw!r}")
        value = raw.lower() in ("true", "1", "yes")
    elif kind in ("int", "float"):
        try:
            value = int(raw) if kind == "int" else float(raw)
        except ValueError:
            raise InvalidConfig(f"{where}{name}: expected {kind}, got {raw!r}") from None
    else:
        value = raw
    setattr(cfg, name, value)


def format_config(cfg: ModelConfig) -> str:
    lines = []
    for section, names in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            lines.append(f"{name} = {getattr(cfg, name)}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text) -> ModelConfig:
    cfg = ModelConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line and not (line.startswith("[") and line.endswith("]")):
            _assign(cfg, line, f"line {line_no}: ")
    return cfg.validate()


def apply_overrides(cfg: ModelConfig, overrides) -> ModelConfig:
    """Apply `key=value` strings (CLI --set)."""
    for item in overrides:
        _assign(cfg, item, "--set ")
    return cfg.validate()


def check_architecture(path, stored_text, cfg: ModelConfig, component):
    """Raise InvalidConfig if the config echo stored in the checkpoint at
    `path` disagrees with `cfg` on one of `component`'s keys."""
    try:
        stored = parse_config(stored_text)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: stored config: {exc}") from None
    for name in COMPONENT_KEYS[component]:
        if getattr(stored, name) != getattr(cfg, name):
            raise InvalidConfig(
                f"{path}: checkpoint has {name} = {getattr(stored, name)}, "
                f"config has {getattr(cfg, name)}"
            )


def load_config(path=None, overrides=()) -> ModelConfig:
    if path is None:
        cfg = ModelConfig()
    else:
        with open(path) as fh:
            cfg = parse_config(fh.read())
    return apply_overrides(cfg, overrides)
