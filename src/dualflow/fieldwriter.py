"""The forked formatter of `run`'s field CSVs.

Loaded on first use, by a `run` of the PDE engine with ``csv`` in its
formats; no other command compiles it.  It imports no ``dualflow.cli``,
which runs as ``__main__`` under ``python -m dualflow.cli`` (importing it
would compile and run it a second time): FieldWriter is handed the function
that formats the field CSVs.
"""

from __future__ import annotations

import contextlib
import os
import pickle


class FieldWriter(contextlib.AbstractContextManager):   # whose __enter__ returns self
    """``texts(snapshots)`` (cli.write_field_outputs, {file: text}) in a
    forked child, fed each snapshot by ``send`` as the march reaches it.  The
    child opens no file.  It answers once, with the texts after ``commit``,
    or with its error as one line (an OSError here); commit returns the
    texts.  A pipe that ends without a commit stops it, and no answer is
    read.  Leaving the ``with`` block reaps it.  Without a fork (no os.fork,
    or it fails), commit formats in this process.
    """

    def __init__(self, texts):
        self.texts, self.pid = texts, None
        if not hasattr(os, "fork"):
            return
        # loaded before the fork: the child unpickles pde's states, extracts their atoms with
        # transport and formats with csvtext, all on numpy's arrays
        from . import csvtext, load_numpy, pde, transport   # noqa: F401
        load_numpy()
        (feed, self.feed), (self.back, back) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:   # no process to spare: commit formats in this process
            for fd in (feed, self.feed, self.back, back):
                os.close(fd)
            return
        if not self.pid:   # the child: it never returns
            try:
                import signal
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # the pipe says when to stop
                os.close(self.feed)
                os.close(self.back)
                feed = os.fdopen(feed, "rb")
                # the snapshots up to the commit's None; EOFError when the pipe ends before it
                reply = texts(iter(lambda: pickle.load(feed), None))
            except Exception as exc:   # one line, never empty
                reply = " ".join(str(exc).splitlines()) or type(exc).__name__
            try:
                with os.fdopen(back, "wb") as out:
                    pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(feed)
        os.close(back)
        self.back = os.fdopen(self.back, "rb")

    def _put(self, item):
        try:
            data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(self.feed, data):]
        except BrokenPipeError:   # the child has stopped: its reply says why
            self._reply()
            raise

    def _reply(self) -> dict:
        try:
            reply = pickle.load(self.back)
        except (EOFError, pickle.UnpicklingError):   # the child stopped mid-reply, or before
            reply = "the field writer stopped without a reply"
        if isinstance(reply, str):
            raise OSError(reply)
        return reply

    def send(self, snapshot):
        if self.pid:
            self._put(snapshot)
        return snapshot

    def commit(self, snapshots) -> dict:
        if not self.pid:
            return self.texts(snapshots)
        self._put(None)
        os.close(self.feed)
        self.feed = None
        return self._reply()

    def __exit__(self, *_):
        if self.pid:
            if self.feed is not None:   # no commit: the child stops, and no answer is read
                os.close(self.feed)
            self.back.close()
            os.waitpid(self.pid, 0)
