"""Binary checkpoint files.

Layout: magic "DMSR", u16 format version, u32 entry count, then per entry a
length-prefixed name, dtype code, shape and little-endian payload; a UTF-8
`key = value` metadata block trails the table. Writes are atomic and the
byte stream is a pure function of (parameters, optimizer state, metadata),
so identical runs produce identical files.
"""

import math
import os
import struct

import numpy as np

from .imageio import atomic_write
from .model import ConfigError, DmsrModel, ModelConfig, parse
from .train import ADAM_SETTINGS, Adam

MAGIC = b"DMSR"
VERSION = 1
_DTYPES = {0: "<f8", 1: "<f4"}
_DTYPE_CODES = {"float64": 0, "float32": 1}
_MAX_NDIM = 64      # numpy's limit


class CheckpointError(ValueError):
    pass


def _chunks(arrays, metadata):
    """The file's bytes in order: each entry's header, then the buffer of its
    contiguous little-endian array, which is the array itself when it
    already is one, so no payload is copied into a bytes object."""
    yield MAGIC + struct.pack("<HI", VERSION, len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _DTYPE_CODES[str(arr.dtype)]
        # 0-d comes back 1-d: the header takes its shape from arr
        payload = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        nb = name.encode()
        yield (struct.pack("<H", len(nb)) + nb + struct.pack("<BB", code, arr.ndim)
               + struct.pack(f"<{arr.ndim}I", *arr.shape) + struct.pack("<Q", payload.nbytes))
        yield payload
    meta = "".join(f"{k} = {v}\n" for k, v in metadata.items()).encode()
    yield struct.pack("<I", len(meta)) + meta


def save_checkpoint(path, arrays, metadata):
    """arrays: ordered {name: ndarray}; metadata: {str: str|int|float}."""
    atomic_write(path, _chunks(arrays, metadata))


class _Reader:
    """Reads a checkpoint file field by field; a field that runs past the end
    of the file is truncation."""

    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size

    def _check(self, n, what):
        pos = self.f.tell()
        if pos + n > self.size:
            raise CheckpointError(f"truncated checkpoint while reading {what} "
                                  f"at byte {pos}")

    def take(self, n, what):
        self._check(n, what)
        return self.f.read(n)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n, what):
        try:
            return self.take(n, what).decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{what} is not UTF-8: {e}")

    def array(self, dtype, shape, nbytes, what):
        """The next nbytes, read straight into a new array of dtype and shape."""
        self._check(nbytes, what)
        out = np.empty(shape, dtype=dtype)
        self.f.readinto(out.reshape(-1).view(np.uint8))
        return out


def load_checkpoint(path):
    """Returns (arrays: {name: ndarray}, metadata: {str: str}). A repeated
    entry name or metadata key raises CheckpointError."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}")
    with f:
        r = _Reader(f)
        if r.take(4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a DMSR checkpoint")
        version, count = r.unpack("<HI", "version/count")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        arrays = {}
        for _ in range(count):
            (nlen,) = r.unpack("<H", "name length")
            name = r.text(nlen, "name")
            if name in arrays:
                raise CheckpointError(f"{path}: entry {name} repeats")
            code, ndim = r.unpack("<BB", "dtype/ndim")
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code}")
            if ndim > _MAX_NDIM:
                raise CheckpointError(f"{path}: entry {name} has {ndim} dimensions, "
                                      f"at most {_MAX_NDIM} are supported")
            shape = r.unpack(f"<{ndim}I", "shape") if ndim else ()
            (nbytes,) = r.unpack("<Q", "payload size")
            want = np.dtype(_DTYPES[code]).itemsize * math.prod(shape)
            if nbytes != want:
                raise CheckpointError(f"{path}: entry {name} has {nbytes} payload bytes, "
                                      f"its dtype and shape {shape} need {want}")
            arrays[name] = r.array(_DTYPES[code], shape, nbytes, f"payload of {name}")
        (mlen,) = r.unpack("<I", "metadata length")
        text = r.text(mlen, "metadata")
    metadata = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if " = " not in line:
            raise CheckpointError(f"{path}: bad metadata line {line!r}")
        k, v = line.split(" = ", 1)
        if k in metadata:
            raise CheckpointError(f"{path}: metadata key {k} repeats")
        metadata[k] = v
    return arrays, metadata


# ---------------------------------------------------------------------------
# model-level helpers


def pack_state(model, optimizer, metadata):
    """Flatten model parameters and optimizer moments into the entry table."""
    arrays = {name: p.data for name, p in model.named_parameters()}
    meta = dict(metadata)
    meta.update(model.cfg.to_flat_dict())
    for name, _ in optimizer.named_params:
        arrays[f"optim.m.{name}"] = optimizer.m[name]
        arrays[f"optim.v.{name}"] = optimizer.v[name]
    meta["optim.step"] = optimizer.step_count
    meta.update({f"optim.{k}": getattr(optimizer, k) for k in ADAM_SETTINGS})
    return arrays, meta


def config_from_metadata(metadata):
    try:
        return ModelConfig.from_flat(metadata, parse)
    except KeyError as e:
        raise CheckpointError(f"metadata has no {e.args[0]}")
    except ConfigError as e:
        raise CheckpointError(f"bad model metadata: {e}")


def _entry(arrays, name, shape):
    """arrays[name] as float64, checked to be there, against the shape it must
    have and for NaN and inf; a float64 entry is returned as it is, not copied."""
    if name not in arrays:
        raise CheckpointError(f"missing entry {name}")
    if arrays[name].shape != shape:
        raise CheckpointError(f"entry {name} has shape {arrays[name].shape}, expected {shape}")
    if not np.isfinite(arrays[name]).all():
        raise CheckpointError(f"entry {name} holds NaN or inf")
    return arrays[name].astype(np.float64, copy=False)


class _Unwritten:
    """Stands in for the rng of a model whose every parameter a checkpoint
    replaces: each draw is an unwritten array of its shape."""

    def normal(self, loc, scale, size):
        return np.empty(size)


def restore_model(path):
    """Rebuild (model, arrays, metadata) from a checkpoint file. The model's
    float64 parameters are the very arrays in `arrays`; an entry that is
    neither a parameter nor one of its two optimizer moments raises
    CheckpointError."""
    arrays, metadata = load_checkpoint(path)
    cfg = config_from_metadata(metadata)
    model = DmsrModel(cfg, rng=_Unwritten())
    known = set()
    for name, p in model.named_parameters():
        p.data = _entry(arrays, name, p.data.shape)
        known.update((name, f"optim.m.{name}", f"optim.v.{name}"))
    unknown = [name for name in arrays if name not in known]
    if unknown:
        raise CheckpointError(f"entry {unknown[0]} is not a model parameter or a moment of one")
    return model, arrays, metadata


def metadata_value(metadata, key, kind, default=None, check=None):
    """metadata[key] parsed as `kind`, or `default` when the key is absent.
    `check`, a (valid, ok) pair from a settings table, range-checks a value
    the metadata holds."""
    if key not in metadata:
        return default
    try:
        value = parse(kind, metadata[key])
    except ValueError as e:
        raise CheckpointError(f"bad metadata {key}: {e}")
    if check is not None and not check[1](value):
        raise CheckpointError(f"metadata {key} must be {check[0]}, got {metadata[key]}")
    return value


def restore_optimizer(model, arrays, metadata):
    settings = {name: metadata_value(metadata, f"optim.{name}", float, default, (valid, ok))
                for name, (default, valid, ok) in ADAM_SETTINGS.items()}
    opt = Adam(model.named_parameters(), **settings)
    opt.step_count = metadata_value(metadata, "optim.step", int, 0)
    for name, p in opt.named_params:
        for key, moments in ((f"optim.m.{name}", opt.m), (f"optim.v.{name}", opt.v)):
            moments[name] = _entry(arrays, key, p.data.shape)
    return opt
