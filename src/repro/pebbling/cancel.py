"""First-winner cancellation across process boundaries.

Portfolio backend races run their lanes in separate processes, so an
in-memory ``threading.Event`` cannot tell a losing lane to stop.  A
:class:`CancellationToken` is the smallest primitive that can: a path in
a scratch directory whose *existence* is the flag.  Creating a file is
atomic on every platform we run on, ``os.path.exists`` is a single cheap
``stat`` call, and the token pickles into pool workers as a plain string.

Lanes poll the token between SAT calls and while a time-sliced call waits
(see ``ReversiblePebblingSolver._query_loop``), and between retry
attempts (``portfolio._execute_task``); once the first lane completes,
the winner cancels the token and every sibling stops at its next check
instead of running to completion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: First time slice of a SAT query issued under a cancellation token;
#: slices double on every retry, so non-resumable backends waste at most
#: one final slice of rework while the lane keeps reacting to its
#: siblings mid-query.
POLL_SLICE = 0.5


@dataclass(frozen=True)
class CancellationToken:
    """A cross-process cancellation flag backed by a marker file.

    The token never creates its parent directory: callers own the scratch
    directory's lifetime (typically a ``tempfile.TemporaryDirectory``
    around one race), so a token outliving its scratch
    space degrades to "never cancelled" instead of leaking files.
    """

    path: str

    def cancel(self) -> None:
        """Raise the flag.  Idempotent; racing cancellers are harmless."""
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        except OSError:
            # Scratch directory already gone (the run is over) — nothing
            # left to cancel.
            return
        os.close(fd)

    def cancelled(self) -> bool:
        """``True`` once any process has called :meth:`cancel`."""
        return os.path.exists(self.path)


def resolve_token(cancel: "CancellationToken | str | None") -> CancellationToken | None:
    """Accept a token, a bare path (what crosses pickling), or ``None``."""
    if cancel is None or isinstance(cancel, CancellationToken):
        return cancel
    return CancellationToken(str(cancel))
