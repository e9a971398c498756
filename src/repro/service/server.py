"""The stdin transport of the propagation service.

:func:`serve_stream` speaks the line protocol of
:mod:`repro.service.protocol` against a
:class:`~repro.service.protocol.ServiceSession`: JSON request lines from a
text stream, plain-text response lines to another.  It is ``repro serve``
without ``--port`` (pipe-friendly, one client); with ``--port`` the
asyncio server of :mod:`repro.service.aserve` serves the same session over
TCP.
"""

from __future__ import annotations

from typing import IO

from repro.service.protocol import ServiceSession

__all__ = ["serve_stream"]


def serve_stream(session: ServiceSession, in_stream: IO[str],
                 out_stream: IO[str]) -> int:
    """Serve requests from a text stream until EOF or ``shutdown``.

    Returns the number of requests processed.  Blank lines are skipped
    (convenient for hand-typed sessions); responses are flushed after
    every line so the loop works over pipes.
    """
    handled = 0
    for line in in_stream:
        if not line.strip():
            continue
        response, keep_running = session.handle_line(line)
        handled += 1
        out_stream.write(response + "\n")
        out_stream.flush()
        if not keep_running:
            break
    return handled
