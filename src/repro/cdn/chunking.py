"""Video chunking.

"The CDN treats video chunks as separate objects for the sake of caching"
(paper Section V).  A video object is therefore split into fixed-size
chunks; a user request for a byte range touches only the chunks covering
that range, each of which hits or misses independently in the edge cache.
Images and other small objects are unchunked (one cache key).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CdnError
from repro.types import ContentCategory
from repro.workload.catalog import ContentObject

#: Default chunk size: 2 MB, typical for HTTP progressive-download CDNs.
DEFAULT_CHUNK_BYTES = 2_000_000


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """One cache-addressable piece of an object."""

    key: str
    index: int
    size: int


class Chunker:
    """Maps (object, byte range) to the cache keys covering it.

    Each object's chunks — its *plan* — are built once per chunker, on
    first use, and cached by ``object_id``: the plan is a pure function of
    the object's id, size and category and of ``chunk_bytes``.  One id may
    name different objects in different catalogs (the same URL under two
    seeds), so each entry keeps the size and category it was built from
    and is reused only for an object that has both.  A byte range is
    served as a slice of the plan.  This module is the only place that
    formats chunk keys.
    """

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise CdnError(f"chunk size must be positive, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes
        #: object_id -> (size, category, plan).
        self._plans: dict[str, tuple[int, ContentCategory, tuple[ChunkRef, ...]]] = {}

    def is_chunked(self, obj: ContentObject) -> bool:
        """Only videos larger than one chunk are split."""
        return obj.category is ContentCategory.VIDEO and obj.size_bytes > self.chunk_bytes

    def chunk_count(self, obj: ContentObject) -> int:
        if not self.is_chunked(obj):
            return 1
        return (obj.size_bytes + self.chunk_bytes - 1) // self.chunk_bytes

    def chunk_size(self, obj: ContentObject, index: int) -> int:
        count = self.chunk_count(obj)
        if not 0 <= index < count:
            raise CdnError(f"chunk index {index} out of range for {obj.object_id} ({count} chunks)")
        if not self.is_chunked(obj):
            return obj.size_bytes
        if index < count - 1:
            return self.chunk_bytes
        return obj.size_bytes - self.chunk_bytes * (count - 1)

    def chunks_for_range(self, obj: ContentObject, start: int, length: int) -> tuple[ChunkRef, ...]:
        """Cache keys covering bytes ``[start, start+length)`` of ``obj``.

        Chunks ``first..last`` of the object's plan (:meth:`all_chunks`).
        For unchunked objects this is always the single whole-object key.
        """
        if length <= 0:
            raise CdnError(f"range length must be positive, got {length}")
        size = obj.size_bytes
        if start < 0 or start >= size:
            raise CdnError(f"range start {start} outside object of {size} bytes")
        plan = self.all_chunks(obj)
        if len(plan) == 1:
            return plan
        chunk_bytes = self.chunk_bytes
        last = (start + min(length, size - start) - 1) // chunk_bytes
        return plan[start // chunk_bytes : last + 1]

    def all_chunks(self, obj: ContentObject) -> tuple[ChunkRef, ...]:
        """Every chunk of ``obj`` in index order: the object's plan.

        Built on first use and cached (see the class docstring).  An unchunked
        object is one chunk keyed by its ``object_id``; a chunked video's
        chunk ``i`` is keyed ``"<object_id>#c<i>"``.  Every chunk is full
        except the object's final one, which holds the remainder
        (``chunk_size``'s definition, computed arithmetically).
        """
        size = obj.size_bytes
        entry = self._plans.get(obj.object_id)
        if entry is not None and entry[0] == size and entry[1] is obj.category:
            return entry[2]
        if not self.is_chunked(obj):
            plan = (ChunkRef(key=obj.object_id, index=0, size=size),)
        else:
            chunk_bytes = self.chunk_bytes
            final = (size - 1) // chunk_bytes
            final_size = size - chunk_bytes * final
            prefix = f"{obj.object_id}#c"
            plan = tuple(
                ChunkRef(key=f"{prefix}{index}", index=index, size=chunk_bytes if index < final else final_size)
                for index in range(final + 1)
            )
        self._plans[obj.object_id] = (size, obj.category, plan)
        return plan
