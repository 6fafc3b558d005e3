"""Write and read the ``.npz`` archives of the compile cache and of
checkpoints. Reads parse the one header spelling ``np.savez`` writes:
``np.load`` parses headers with ``ast.literal_eval``, which leaves a
reference cycle per call."""

import os
import re
import struct
import tempfile
import zipfile
import zlib
from typing import Dict, Iterable, Optional

import numpy as np

_HEADER = re.compile(r"\{'descr': '([<>|=][a-zA-Z]\d*)', 'fortran_order': "
                     r"False, 'shape': \(((?:\d+, ?)*\d*)\), \}\s*")


def save_npz(path, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` as one ``np.savez`` archive,
    atomically: an interrupted write never replaces a good archive."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_npz(path, names: Optional[Iterable[str]] = None
             ) -> Dict[str, np.ndarray]:
    """Every array of an ``np.savez`` archive (or only the ``names``
    given), by name, as an owned writable array, read from the file
    straight into it. Raises ``ValueError`` on a member it cannot read
    (object arrays included, as ``allow_pickle=False`` would; short,
    compressed or CRC-failing members) and ``KeyError`` on a missing
    name."""
    arrays = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as f:
        members = (archive.namelist() if names is None
                   else [f"{name}.npy" for name in names])
        for member in members:
            info = archive.getinfo(member)
            # the data follows the member's local header, whose name and
            # extra field lengths are at its bytes 26..29
            f.seek(info.header_offset + 26)
            f.seek(sum(struct.unpack("<HH", f.read(4))), os.SEEK_CUR)
            magic = f.read(8)
            if magic[:6] != b"\x93NUMPY" or magic[6] not in (1, 2, 3):
                raise ValueError(f"{member}: not an .npy array")
            size = f.read(2 if magic[6] == 1 else 4)
            text = f.read(int.from_bytes(size, "little"))
            header = _HEADER.fullmatch(text.decode("utf-8"))
            if header is None or np.dtype(header[1]).hasobject:
                raise ValueError(f"{member}: unsupported .npy header")
            shape = tuple(int(d) for d in header[2].split(",") if d.strip())
            arr = np.empty(shape, header[1])
            flat = memoryview(arr.reshape(-1).view(np.uint8))
            if (len(magic) + len(size) + len(text) + len(flat)
                    != info.file_size or f.readinto(flat) != len(flat)):
                raise ValueError(f"{member}: truncated .npy data")
            # zipfile's check, over the bytes as they landed
            if zlib.crc32(flat, zlib.crc32(magic + size + text)) != info.CRC:
                raise ValueError(f"{member}: CRC mismatch")
            arrays[member[:-len(".npy")]] = arr
    return arrays
