"""Tests for video chunking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.chunking import ChunkRef, Chunker
from repro.errors import CdnError
from repro.types import ContentCategory, TrendClass
from repro.workload.catalog import ContentObject


def make_object(category: ContentCategory, size: int) -> ContentObject:
    ext = "mp4" if category is ContentCategory.VIDEO else "jpg"
    return ContentObject(
        object_id=f"{category.value}-{size}",
        site="V-1",
        category=category,
        extension=ext,
        size_bytes=size,
        birth_time=0.0,
        trend=TrendClass.DIURNAL,
        popularity_weight=1.0,
    )


class TestChunker:
    def test_positive_chunk_size_required(self):
        with pytest.raises(CdnError):
            Chunker(chunk_bytes=0)

    def test_images_never_chunked(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.IMAGE, 50_000)
        assert not chunker.is_chunked(obj)
        assert chunker.chunk_count(obj) == 1

    def test_small_video_unchunked(self):
        chunker = Chunker(chunk_bytes=2_000_000)
        obj = make_object(ContentCategory.VIDEO, 1_500_000)
        assert not chunker.is_chunked(obj)

    def test_chunk_count_rounds_up(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        assert chunker.chunk_count(obj) == 3

    def test_chunk_sizes_sum_to_object(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        sizes = [chunker.chunk_size(obj, i) for i in range(3)]
        assert sizes == [1000, 1000, 500]

    def test_chunk_index_out_of_range(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        with pytest.raises(CdnError):
            chunker.chunk_size(obj, 3)

    def test_all_chunks_cover_object(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 5_300)
        chunks = chunker.all_chunks(obj)
        assert sum(c.size for c in chunks) == 5_300
        assert [c.index for c in chunks] == list(range(6))

    def test_chunk_keys_unique_and_derived(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 3000)
        keys = [c.key for c in chunker.all_chunks(obj)]
        assert len(set(keys)) == 3
        assert all(key.startswith(obj.object_id) for key in keys)

    def test_range_maps_to_covering_chunks(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 10_000)
        chunks = chunker.chunks_for_range(obj, start=1500, length=2000)
        assert [c.index for c in chunks] == [1, 2, 3]

    def test_range_single_byte(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 10_000)
        chunks = chunker.chunks_for_range(obj, start=999, length=1)
        assert [c.index for c in chunks] == [0]

    def test_range_clamped_to_object_end(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2_500)
        chunks = chunker.chunks_for_range(obj, start=2_000, length=99_999)
        assert [c.index for c in chunks] == [2]

    def test_invalid_ranges_rejected(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2_500)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=-1, length=10)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=2_500, length=10)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=0, length=0)

    def test_unchunked_range_returns_whole_object(self):
        chunker = Chunker(chunk_bytes=1_000_000)
        obj = make_object(ContentCategory.IMAGE, 300)
        chunks = chunker.chunks_for_range(obj, 100, 50)
        assert len(chunks) == 1
        assert chunks[0].key == obj.object_id
        assert chunks[0].size == 300


def _reference_chunks(chunker: Chunker, obj: ContentObject, start: int, length: int) -> list[ChunkRef]:
    """``chunks_for_range`` by its per-index definition, one ``chunk_size`` per chunk."""
    length = min(length, obj.size_bytes - start)
    if not chunker.is_chunked(obj):
        return [ChunkRef(key=obj.object_id, index=0, size=chunker.chunk_size(obj, 0))]
    first = start // chunker.chunk_bytes
    last = (start + length - 1) // chunker.chunk_bytes
    return [
        ChunkRef(key=f"{obj.object_id}#c{index}", index=index, size=chunker.chunk_size(obj, index))
        for index in range(first, last + 1)
    ]


@st.composite
def _ranges(draw):
    chunk_bytes = draw(st.integers(min_value=1, max_value=5_000))
    category = draw(st.sampled_from(list(ContentCategory)))
    size = draw(st.integers(min_value=1, max_value=40 * chunk_bytes))
    count = -(-size // chunk_bytes)
    start = draw(
        st.one_of(
            st.integers(min_value=0, max_value=size - 1),
            # Starts inside the object's last chunk.
            st.integers(min_value=(count - 1) * chunk_bytes, max_value=size - 1),
        )
    )
    length = draw(
        st.one_of(
            st.integers(min_value=1, max_value=2 * size),
            # Ends exactly at the object's end.
            st.just(size - start),
        )
    )
    return Chunker(chunk_bytes), make_object(category, size), start, length


class TestChunksForRangeMatchesDefinition:
    @settings(max_examples=400)
    @given(case=_ranges())
    def test_random_ranges(self, case):
        chunker, obj, start, length = case
        assert chunker.chunks_for_range(obj, start, length) == _reference_chunks(chunker, obj, start, length)

    @pytest.mark.parametrize("size", [2_000, 2_001, 2_999, 3_000, 3_001])
    def test_edges_of_the_last_chunk(self, size):
        chunker = Chunker(chunk_bytes=1_000)
        obj = make_object(ContentCategory.VIDEO, size)
        last_start = (chunker.chunk_count(obj) - 1) * 1_000
        for start in (0, last_start - 1, last_start, size - 1):
            for length in (1, size - start, size):
                assert chunker.chunks_for_range(obj, start, length) == _reference_chunks(
                    chunker, obj, start, length
                )

    def test_all_chunks_matches_definition(self):
        chunker = Chunker(chunk_bytes=1_000)
        for size in (1, 999, 1_000, 1_001, 5_300, 6_000):
            obj = make_object(ContentCategory.VIDEO, size)
            assert chunker.all_chunks(obj) == _reference_chunks(chunker, obj, 0, size)
