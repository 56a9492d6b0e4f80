"""In-process message bus — the stand-in for Akka (paper §V-A).

The real Swallow passes messages between driver, master, cluster manager and
workers over Akka with Kryo serialisation.  Here all components live in one
process, so the bus delivers synchronously; it still gives the system layer
the same *shape* (topic-addressed handlers, observable message flow) and
counts traffic per topic so tests can assert the protocol actually runs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ProtocolError
from repro.obs import NULL_OBS, Observability

Handler = Callable[[Any], None]


class MessageBus:
    """Topic-based synchronous publish/subscribe.

    Parameters
    ----------
    obs:
        Observability bundle.  When enabled, every publish bumps the
        ``bus.messages.<topic>`` counter and emits a ``bus`` trace record
        stamped with :attr:`clock` (simulated seconds; ``-1`` when no
        clock is attached).
    """

    def __init__(self, obs: Optional[Observability] = None):
        self._handlers: Dict[str, List[Handler]] = defaultdict(list)
        self._counts: Dict[str, int] = defaultdict(int)
        self._log: List = []
        self.keep_log = False
        self.obs = obs if obs is not None else NULL_OBS
        #: Supplies the simulated timestamp for trace records; attached by
        #: the owning context once an engine exists.
        self.clock: Optional[Callable[[], float]] = None

    def subscribe(self, topic: str, handler: Handler) -> None:
        self._handlers[topic].append(handler)

    def unsubscribe(self, topic: str, handler: Handler) -> None:
        """Remove one subscription; error if it does not exist."""
        try:
            self._handlers[topic].remove(handler)
        except ValueError:
            raise ProtocolError(
                f"unsubscribe() of handler not subscribed to {topic!r}"
            ) from None

    def publish(self, topic: str, message: Any) -> None:
        """Deliver to every subscriber; error if nobody listens.

        An unrouted message is a protocol bug in a closed system, so it
        raises rather than vanishing.  Delivery iterates a snapshot of the
        handler list: a handler that subscribes or unsubscribes during
        delivery takes effect from the *next* publish, never mid-iteration.
        """
        handlers = self._handlers.get(topic)
        if not handlers:
            raise ProtocolError(f"no subscriber for topic {topic!r}")
        self._counts[topic] += 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(f"bus.messages.{topic}").inc()
        flt = self.obs.recorder
        if flt.enabled:
            t = self.clock() if self.clock is not None else -1.0
            flt.emit(t, "bus", topic=topic)
        if self.keep_log:
            self._log.append((topic, message))
        for h in tuple(handlers):
            h(message)

    def count(self, topic: str) -> int:
        """Messages published to a topic so far."""
        return self._counts.get(topic, 0)

    @property
    def total_messages(self) -> int:
        return sum(self._counts.values())

    @property
    def log(self) -> List:
        return list(self._log)
