"""Single-process HTTP load for the gateway: closed and open loops.

Both loops speak HTTP/1.1 over at most ``connections`` keep-alive sockets
from one asyncio event loop.  The closed loop keeps every connection busy
back to back and measures capacity.  The open loop sends on a fixed
schedule whatever the server does: request ``i`` is due at
``start + i / rate``, its latency runs from that due time (so a stall
also charges the requests queued behind it), and the generator records
how late it woke for each due time.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: Statuses the gateway uses to refuse work it did not attempt.
REFUSALS = (429, 503)


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    status: int  # 0 when the connection failed
    payload: bytes
    latency_s: float
    late_s: float = 0.0
    sent: float = 0.0  # perf_counter when the request was written
    done: float = 0.0  # perf_counter when the response was read


@dataclass
class LoadResult:
    outcomes: List[Outcome] = field(default_factory=list)
    seconds: float = 0.0

    def failed(self, latency_limit_s: float) -> int:
        """Non-200 responses, refusals, connection errors and late replies."""
        return sum(
            1
            for outcome in self.outcomes
            if outcome.status != 200 or outcome.latency_s > latency_limit_s
        )


def open_loop_schedule(start: float, rate: float, count: int) -> List[float]:
    """Due times of an open loop at ``rate`` requests per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate for index in range(count)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator issued each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


class Connection:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        assert self._reader is not None
        try:
            self._writer.write(
                b"%s %s HTTP/1.1\r\nhost: bench\r\ncontent-length: %d\r\n\r\n"
                % (method.encode(), path.encode(), len(body))
                + body
            )
            await self._writer.drain()
            head = await self._reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            close = False
            for line in head.lower().split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection" and value.strip() == b"close":
                    close = True
            payload = await self._reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            raise
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _send(connection: Connection, body: bytes) -> Tuple[int, bytes]:
    try:
        return await connection.request("POST", "/v1/predict", body)
    except (OSError, asyncio.IncompleteReadError, ValueError) as error:
        return 0, repr(error).encode()


async def closed_loop(
    host: str,
    port: int,
    body_for: Callable[[int], bytes],
    connections: int,
    seconds: float,
) -> LoadResult:
    """Each connection sends its next request as soon as the last returns."""
    result = LoadResult()
    counter = iter(range(1 << 62))
    start = time.perf_counter()
    deadline = start + seconds

    async def client() -> None:
        connection = Connection(host, port)
        try:
            while time.perf_counter() < deadline:
                index = next(counter)
                body = body_for(index)
                sent = time.perf_counter()
                status, payload = await _send(connection, body)
                done = time.perf_counter()
                result.outcomes.append(
                    Outcome(index, status, payload, done - sent, 0.0, sent, done)
                )
        finally:
            await connection.close()

    await asyncio.gather(*(client() for _ in range(connections)))
    result.seconds = time.perf_counter() - start
    return result


async def open_loop(
    host: str,
    port: int,
    body_for: Callable[[int], bytes],
    connections: int,
    rate: float,
    count: int,
) -> LoadResult:
    """``count`` requests due at a fixed ``rate``, over a connection pool.

    A request whose due time finds every connection busy waits for one;
    that wait is part of its latency, as it would be for a user.
    """
    idle: "asyncio.Queue[Connection]" = asyncio.Queue()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        idle.put_nowait(connection)
    outcomes: List[Optional[Outcome]] = [None] * count
    loop = asyncio.get_running_loop()
    start = time.perf_counter() + 0.01
    due = open_loop_schedule(start, rate, count)
    issued = [0.0] * count

    async def one(index: int) -> None:
        body = body_for(index)
        connection = await idle.get()
        try:
            sent = time.perf_counter()
            status, payload = await _send(connection, body)
        finally:
            idle.put_nowait(connection)
        done = time.perf_counter()
        outcomes[index] = Outcome(
            index, status, payload, done - due[index], 0.0, sent, done
        )

    tasks = []
    for index in range(count):
        delay = due[index] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        issued[index] = time.perf_counter()
        tasks.append(loop.create_task(one(index)))
    await asyncio.gather(*tasks)
    for connection in pool:
        await connection.close()
    finished = [outcome for outcome in outcomes if outcome is not None]
    for outcome, late in zip(finished, lateness(due, issued)):
        outcome.late_s = late
    result = LoadResult(finished)
    result.seconds = time.perf_counter() - start
    return result
