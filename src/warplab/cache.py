"""Line-oriented on-disk cache for orbit distances and orbit counts.

One file per model, keyed by a format version and the model key in the
header; another header means the file belongs to a different model or
record format and is ignored (and overwritten on the next append), never
silently reused.  The model key is the model's settings written out,
`name=repr(value)` pairs sorted by name and joined by `_` (for the pure
model `alpha=0.5_quad_rel_tol=1e-09`), and names the file
`orbit_<key>.tsv`: float reprs round-trip, so two settings that differ
in any bit get different keys and files.  Records are of two kinds, both
with full-precision reprs, so a warm cache reproduces runs byte-identically:
`l d_l` lines hold distances, and `n R N` lines the ball index
N = max{l : d_l <= R} that the turning-parameter inversion gave at radius
R.  The file is append-only: each new distance or count adds one line, and
a reader skips a last line without its newline (a write torn by a crash)
and every line that is not a well-formed record, whose record the run then
computes again and appends, and lets a repeated key's last record win.
Header checks and rewrites (a temp file + os.replace) hold an exclusive
flock on the cache directory, appends a shared one, so no process
rewrites the file while another writes to it; in-process appends are
serialized by a lock.
"""

import fcntl
import os
import threading
from typing import NamedTuple

# The version names the record format and the code that computes d_l and
# the counts: a file of another version holds other columns, or distances
# or counts that may differ in the last bits, so reusing it could break a
# byte-identical warm run; it is ignored, then rewritten like another model's
HEADER = "# warplab-orbit-cache v7 model="
COUNT = "n"  # first field of a count record


class Records(NamedTuple):
    """One file's records: distances by index l, counts by radius R (two
    dicts, since the radius 5.0 and the index 5 are one dict key)."""

    distances: dict
    counts: dict


def model_key(payload: dict) -> str:
    return "_".join(f"{name}={value!r}" for name, value in sorted(payload.items()))


def default_cache_dir() -> str:
    env = os.environ.get("WARPLAB_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "warplab")


class OrbitCache:
    def __init__(self, path: str, model_key: str):
        self.path = path
        self.model_key = model_key
        self._lock = threading.Lock()
        self._ready = False  # header checked by this instance

    @staticmethod
    def for_model(payload: dict, cache_dir: str | None = None) -> "OrbitCache":
        key = model_key(payload)
        d = cache_dir or default_cache_dir()
        return OrbitCache(os.path.join(d, f"orbit_{key}.tsv"), key)

    def load(self) -> Records:
        """Records from disk, both empty when absent or keyed to another model."""
        distances, counts = {}, {}
        try:
            with open(self.path) as fh:
                if fh.readline().rstrip("\n") != HEADER + self.model_key:
                    return Records({}, {})
                for line in fh:
                    if not line.endswith("\n"):
                        break  # torn last write
                    parts = line.split()
                    try:
                        if len(parts) == 2:
                            distances[int(parts[0])] = float(parts[1])
                        elif len(parts) == 3 and parts[0] == COUNT:
                            counts[float(parts[1])] = int(parts[2])
                    except ValueError:
                        pass  # not a record: computed again and appended
        except FileNotFoundError:
            pass
        return Records(distances, counts)

    def append(self, key, value, count=False):
        """One record: the distance d_l = value at index l = key, or with count
        the ball index N = value at radius R = key."""
        line = (f"{COUNT} {float(key)!r} {int(value)}\n" if count
                else f"{int(key)} {float(value)!r}\n")
        # the directory's inode, unlike the file's, survives os.replace; it is
        # made here, so a run that computes no record leaves no directory
        folder = os.path.dirname(os.path.abspath(self.path))
        if not self._ready:
            os.makedirs(folder, exist_ok=True)
        dir_fd = os.open(folder, os.O_RDONLY)
        try:
            with self._lock:
                fcntl.flock(dir_fd, fcntl.LOCK_SH if self._ready else fcntl.LOCK_EX)
                if not self._ready:
                    self._prepare()
                    self._ready = True
                with open(self.path, "a") as fh:
                    fh.write(line)
        finally:
            os.close(dir_fd)  # releases the flock

    def _prepare(self):
        """Before the first append, under the exclusive flock: start a file with
        this model's header when it is missing or keyed to another model, and
        cut a torn last line so the next record starts on a line of its own."""
        head = HEADER + self.model_key + "\n"
        try:
            with open(self.path) as fh:
                text = fh.read()
        except FileNotFoundError:
            text = ""
        if not text.startswith(head):
            keep = head
        elif not text.endswith("\n"):
            keep = text[: text.rfind("\n") + 1]
        else:
            return
        os.replace(self._temp_file(keep), self.path)

    def _temp_file(self, text):
        """A file holding text beside the cache file, named for this process
        and instance, so no other live writer uses the same name."""
        tmp = f"{self.path}.{os.getpid()}-{id(self)}.tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        return tmp
