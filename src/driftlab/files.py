"""Output files written whole or not at all, through a temp file and a rename."""

import contextlib
import os


def write_text(out_dir, name, text: str, replaces=None) -> str:
    """Write <out_dir>/<name> through a temp file and a rename, so a reader
    never sees a half-written file and a failed write leaves only the
    previous one; then remove <out_dir>/<replaces> if it is there."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if replaces is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, replaces))
    return path
