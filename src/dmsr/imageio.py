"""Netpbm/PFM image files.

PGM P5 with maxval 65535 (16-bit big-endian) carries depth, PPM P6 carries
8-bit RGB guidance, PFM (little-endian float32) carries SR output. Loaders
report malformed headers, unsupported magics and truncated payloads as
distinct errors that name the file and carry the byte offset of the problem.
"""

import os
import tempfile

import numpy as np


class ImageFormatError(ValueError):
    """Base for file-format problems; `offset` is the failing byte position,
    `path` the file, which the message starts with when given."""

    def __init__(self, message, offset=None, path=None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message if path is None else f"{path}: {message}")
        self.offset = offset


class UnsupportedMagicError(ImageFormatError):
    pass


class MalformedHeaderError(ImageFormatError):
    pass


class TruncatedPayloadError(ImageFormatError):
    def __init__(self, expected, actual, offset, path=None):
        super().__init__(f"payload truncated: expected {expected} bytes, "
                         f"got {actual}", offset, path)
        self.expected = expected
        self.actual = actual


def atomic_write(path, chunks):
    """Write an iterable of bytes-like chunks (bytes, memoryviews, contiguous
    arrays), in order, via a temp file + rename so readers never see
    partials. A generator of chunks is consumed one chunk at a time."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _HeaderScanner:
    """Whitespace/comment-aware token reader that tracks byte offsets; its
    errors name the file `path`."""

    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.pos = 0
        self.token_start = 0

    def token(self):
        b = self.blob
        n = len(b)
        while self.pos < n:
            c = b[self.pos:self.pos + 1]
            if c == b"#":
                nl = b.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif c.isspace():
                self.pos += 1
            else:
                break
        self.token_start = self.pos
        while self.pos < n and not b[self.pos:self.pos + 1].isspace():
            self.pos += 1
        if self.token_start == self.pos:
            raise MalformedHeaderError("unexpected end of header", self.token_start, self.path)
        return b[self.token_start:self.pos]

    def int_token(self, what):
        """The next token as a positive decimal integer."""
        tok = self.token()
        if not tok.isdigit() or int(tok) < 1:
            raise MalformedHeaderError(f"bad {what} {tok!r}", self.token_start, self.path)
        return int(tok)


def _read_image(path, magic):
    """The bytes of an image file and a scanner past its magic, width and
    height tokens, with the width and height."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise ImageFormatError(f"cannot read image {path}: {e.strerror}")
    scan = _HeaderScanner(blob, path)
    got = scan.token()
    if got != magic:
        raise UnsupportedMagicError(f"expected magic {magic.decode()}, "
                                    f"got {got!r}", 0, path)
    return blob, scan, scan.int_token("width"), scan.int_token("height")


def _read_netpbm(path, magic, maxval_required):
    blob, scan, w, h = _read_image(path, magic)
    maxval = scan.int_token("maxval")
    if maxval != maxval_required:
        raise MalformedHeaderError(f"maxval {maxval}, expected {maxval_required}",
                                   scan.pos, path)
    scan.pos += 1  # single whitespace after maxval per the format
    return blob, scan.pos, w, h


def _payload(blob, offset, expected, path):
    actual = len(blob) - offset
    if actual < expected:
        raise TruncatedPayloadError(expected, actual, offset, path)
    return blob[offset:offset + expected]


def save_pgm16(path, depth):
    """Save (H,W) or (1,H,W) values in [0,1] as 16-bit big-endian P5.

    Scaling convention (also noted in the header): gray = round(v * 65535).
    """
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim == 3:
        d = d[0]
    q = np.round(np.clip(d, 0.0, 1.0) * 65535.0).astype(">u2")
    header = (f"P5\n# depth scaled: value = gray / 65535\n"
              f"{d.shape[1]} {d.shape[0]}\n65535\n").encode()
    atomic_write(path, (header, q))


def load_pgm16(path):
    """Load 16-bit P5 as (1, H, W) floats in [0,1]."""
    blob, off, w, h = _read_netpbm(path, b"P5", 65535)
    raw = _payload(blob, off, w * h * 2, path)
    img = np.frombuffer(raw, dtype=">u2").reshape(h, w).astype(np.float64)
    return (img / 65535.0)[None]


def save_ppm(path, rgb):
    """Save (3,H,W) values in [0,1] as 8-bit P6 (value = byte / 255)."""
    x = np.asarray(rgb, dtype=np.float64)
    q = np.round(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = (f"P6\n# rgb scaled: value = byte / 255\n"
              f"{x.shape[2]} {x.shape[1]}\n255\n").encode()
    atomic_write(path, (header, np.ascontiguousarray(q.transpose(1, 2, 0))))


def load_ppm(path):
    """Load 8-bit P6 as (3, H, W) floats in [0,1]."""
    blob, off, w, h = _read_netpbm(path, b"P6", 255)
    raw = _payload(blob, off, w * h * 3, path)
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).astype(np.float64)
    return img.transpose(2, 0, 1) / 255.0


def save_pfm(path, img):
    """Save (H,W) or (1,H,W) float data as grayscale PFM, little-endian
    (negative scale), rows bottom-to-top per the format."""
    x = np.asarray(img, dtype=np.float32)
    if x.ndim == 3:
        x = x[0]
    header = f"Pf\n{x.shape[1]} {x.shape[0]}\n-1.0\n".encode()
    atomic_write(path, (header, np.ascontiguousarray(x[::-1])))
