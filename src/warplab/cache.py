"""Line-oriented on-disk cache for orbit distances.

One file per model, keyed by a format version and the model key in the
header; another header means the file belongs to a different model or
record format and is ignored (and overwritten on the next append), never
silently reused.  The model key is the model's settings written out,
`name=repr(value)` pairs sorted by name and joined by `_` (for the pure
model `alpha=0.5_quad_rel_tol=1e-09`), and names the file
`orbit_<key>.tsv`: float reprs round-trip, so two settings that differ
in any bit get different keys and files.  Records are `l d_l` lines with
full-precision reprs, so a warm cache reproduces runs byte-identically.
The file is append-only: each new distance adds one line, and a reader
skips a last line without its newline (a write torn by a crash) and lets a
repeated index's last record win.  Header checks and rewrites (a temp file
+ os.replace) hold an exclusive flock on the cache directory, appends a
shared one, so no process rewrites the file while another writes to it;
in-process appends are serialized by a lock.
"""

import fcntl
import os
import threading

# The version names the record format and the code that computes d_l: a
# file of another version holds other columns, or distances that may differ
# in the last bits, so reusing it could break a byte-identical warm run; it
# is ignored, then rewritten like another model's
HEADER = "# warplab-orbit-cache v6 model="


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

    def load(self) -> dict:
        """Records from disk, or {} when absent or keyed to another model."""
        try:
            with open(self.path) as fh:
                first = fh.readline().rstrip("\n")
                if first != HEADER + self.model_key:
                    return {}
                out = {}
                for line in fh:
                    if not line.endswith("\n"):
                        break  # torn last write
                    parts = line.split()
                    if len(parts) != 2:
                        continue
                    out[int(parts[0])] = float(parts[1])
                return out
        except FileNotFoundError:
            return {}

    def append(self, l, d):
        # the directory's inode, unlike the file's, survives os.replace; it is
        # made here, so a run that computes no distance leaves no directory
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
                    fh.write(f"{int(l)} {float(d)!r}\n")
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
