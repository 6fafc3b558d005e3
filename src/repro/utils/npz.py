"""Write and read the ``.npz`` archives of the compile cache and of
checkpoints. Reads parse the one header spelling ``np.savez`` writes:
``np.load`` parses headers with ``ast.literal_eval``, which leaves a
reference cycle per call."""

import os
import re
import tempfile
import zipfile
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
    given), by name, as an owned writable copy. Raises ``ValueError`` on
    a member it cannot read, object arrays included (as
    ``allow_pickle=False`` would), and ``KeyError`` on a missing name."""
    arrays = {}
    with zipfile.ZipFile(path) as archive:
        members = (archive.namelist() if names is None
                   else [f"{name}.npy" for name in names])
        for member in members:
            raw = archive.read(member)
            if raw[:6] != b"\x93NUMPY" or raw[6] not in (1, 2, 3):
                raise ValueError(f"{member}: not an .npy array")
            start = 10 if raw[6] == 1 else 12
            end = start + int.from_bytes(raw[8:start], "little")
            header = _HEADER.fullmatch(raw[start:end].decode("utf-8"))
            if header is None or np.dtype(header[1]).hasobject:
                raise ValueError(f"{member}: unsupported .npy header")
            shape = tuple(int(d) for d in header[2].split(",") if d.strip())
            arrays[member[:-len(".npy")]] = np.frombuffer(
                raw, header[1], count=int(np.prod(shape)), offset=end,
            ).reshape(shape).copy()
    return arrays
