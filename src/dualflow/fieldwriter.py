"""The forked writer of `run`'s field CSVs.

Loaded on first use, by a `run` of the PDE engine with ``csv`` in its
formats; no other command compiles it.  It imports no ``dualflow.cli``,
which runs as ``__main__`` under ``python -m dualflow.cli`` (importing it
would compile and run it a second time): FieldWriter is handed the function
that writes the field CSVs.
"""

from __future__ import annotations

import contextlib
import os
import pickle


class FieldWriter(contextlib.AbstractContextManager):   # whose __enter__ returns self
    """``write(out_dir, snapshots)`` (cli.write_field_outputs) in a forked
    child, fed each snapshot by ``send`` as the march reaches it.  The child
    writes the files only after ``commit`` (every engine and check has run)
    and exits writing nothing when the pipe ends without one.  It answers
    once, when the files are written: a line, empty for done, else its error
    (an OSError here), and commit returns on that answer.  Leaving the
    ``with`` block reaps it.  Without a fork (no os.fork, or it fails),
    commit formats and writes in this process.
    """

    def __init__(self, out_dir: str, write):
        self.out_dir, self.write, self.pid = out_dir, write, None
        if not hasattr(os, "fork"):
            return
        # loaded before the fork: the child unpickles pde's states, extracts their atoms with
        # transport and formats with csvtext, all on numpy's arrays
        from . import csvtext, load_numpy, pde, transport   # noqa: F401
        load_numpy()
        (feed, self.feed), (self.back, back) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:   # no process to spare: commit writes in this process
            for fd in (feed, self.feed, self.back, back):
                os.close(fd)
            return
        if not self.pid:   # the child: it never returns
            try:
                import signal
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # the pipe says when to stop
                os.close(self.feed)
                os.close(self.back)
                feed, back = os.fdopen(feed, "rb"), os.fdopen(back, "w", 1, "utf-8")

                def received():
                    while (state := pickle.load(feed)) is not None:   # EOFError: no commit
                        yield state
                write(out_dir, received())
                back.write("\n")   # every snapshot is formatted and written
            except Exception as exc:   # one line, never empty: an empty one means done
                back.write(" ".join(str(exc).splitlines()) or type(exc).__name__)
                back.write("\n")
            finally:
                os._exit(0)
        os.close(feed)
        os.close(back)
        self.back = os.fdopen(self.back, encoding="utf-8")

    def _put(self, item):
        try:
            data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(self.feed, data):]
        except BrokenPipeError:   # the child has stopped: its line says why
            self._reply()
            raise

    def _reply(self):
        if (line := self.back.readline()) != "\n":
            raise OSError(line.strip() or "the field writer stopped without a reply")

    def send(self, snapshot):
        if self.pid:
            self._put(snapshot)
        return snapshot

    def commit(self, snapshots):
        if self.pid:
            self._put(None)
            os.close(self.feed)
            self.feed = None
            self._reply()
        else:   # no child: format and write here
            self.write(self.out_dir, snapshots)

    def __exit__(self, *_):
        if self.pid:
            if self.feed is not None:   # no commit: the child writes nothing
                os.close(self.feed)
            self.back.close()
            os.waitpid(self.pid, 0)
