"""Element sets: the inputs and outputs of containment joins.

An :class:`ElementSet` is a heap file of PBiTree codes plus the
metadata the planner needs (Table 1): whether the set is sorted (in
region-``Start`` order) and whether an index exists on it.  Helper
constructors build sets from raw code lists or from an encoded data
tree by tag.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, cast

from ..core import batch, pbitree
from ..core.pbitree import Height, PBiCode
from ..datatree.node import DataTree
from .buffer import BufferManager
from .heapfile import HeapFile
from .record import CODE

__all__ = ["ElementSet", "SortOrder"]


class SortOrder:
    """Sort-order tags for element sets."""

    NONE = None
    #: document order: ascending region ``Start``, ties broken by
    #: descending ``End`` so ancestors precede descendants (what the
    #: merge-based algorithms require).
    START = "start"
    #: ascending raw code value.
    CODE = "code"


class ElementSet:
    """A set of elements identified by PBiTree codes, stored on pages."""

    def __init__(
        self,
        heap: HeapFile,
        tree_height: int,
        name: str = "",
        sorted_by: Optional[str] = SortOrder.NONE,
        known_heights: Optional[frozenset[int]] = None,
    ) -> None:
        self.heap = heap
        self.tree_height = tree_height
        self.name = name or heap.name
        self.sorted_by = sorted_by
        #: node heights present, when recorded at load time (catalog
        #: statistics — saves algorithms a discovery scan)
        self.known_heights = known_heights

    # ------------------------------------------------------------------
    @classmethod
    def from_codes(
        cls,
        bufmgr: BufferManager,
        codes: Iterable[PBiCode],
        tree_height: int,
        name: str = "",
        sorted_by: Optional[str] = SortOrder.NONE,
    ) -> "ElementSet":
        from .record import MAX_CODE_BITS

        if tree_height > MAX_CODE_BITS:
            raise ValueError(
                f"PBiTree height {tree_height} exceeds the {MAX_CODE_BITS}-bit "
                "storage code space (Section 2.3.3: pathologically deep trees "
                "need a wider record format)"
            )
        # materialised list → bulk page packing in the heap writer
        code_list = list(codes)
        heap = HeapFile.from_records(
            bufmgr, CODE, [(code,) for code in code_list], name=name
        )
        return cls(
            heap,
            tree_height,
            name=name,
            sorted_by=sorted_by,
            known_heights=frozenset(batch.heights(code_list)),
        )

    @classmethod
    def from_tree_tag(
        cls,
        bufmgr: BufferManager,
        tree: DataTree,
        tag: str,
        tree_height: int,
        name: str = "",
    ) -> "ElementSet":
        """Element set of all nodes with ``tag`` in an encoded data tree.

        Codes come out in document order, which is *not* start order in
        general, so the set is marked unsorted — the starting condition
        the paper's new algorithms target.
        """
        codes = (tree.codes[node] for node in tree.iter_by_tag(tag))
        return cls.from_codes(
            bufmgr, codes, tree_height, name=name or f"//{tag}"
        )

    def with_bufmgr(self, bufmgr: BufferManager) -> "ElementSet":
        """A read view of this set pinned through ``bufmgr``.

        Used by the service tier: each session rebinds the shared
        corpus sets to its private buffer pool (over a
        :class:`~repro.storage.disk.SessionDiskView`), so concurrent
        queries read the same pages with isolated I/O accounting.
        Metadata (sort order, known heights) carries over; the view
        must not be destroyed.
        """
        return ElementSet(
            self.heap.view(bufmgr),
            self.tree_height,
            name=self.name,
            sorted_by=self.sorted_by,
            known_heights=self.known_heights,
        )

    # ------------------------------------------------------------------
    @property
    def bufmgr(self) -> BufferManager:
        return self.heap.bufmgr

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def __len__(self) -> int:
        return self.heap.num_records

    def scan(self) -> Iterator[PBiCode]:
        """Yield codes in file order (sequential page reads)."""
        for page in self.scan_pages():
            yield from page

    def scan_pages(self) -> Iterator[list[PBiCode]]:
        """Yield the code list of each page.

        The list is built in one pass from the page's zero-copy field
        view (a single C-level loop) instead of materialising a tuple
        per record.
        """
        for fields in self.heap.scan_page_arrays():
            yield cast("list[PBiCode]", list(fields))

    def scan_code_arrays(self, copy: bool = False) -> Iterator[Sequence[PBiCode]]:
        """Yield each page's codes as a zero-copy ``Q``-cast view.

        Element-set heaps store one code per record, so the flat field
        view *is* the page's code array.  The default is a borrow with
        :meth:`HeapFile.scan_page_arrays`'s contract — valid only
        within the loop iteration, revoked on resume under
        ``REPRO_SANITIZE`` — while ``copy=True`` yields owning
        ``array("Q")`` pages that may be kept (one extra memcpy per
        page, no extra I/O).
        """
        for fields in self.heap.scan_page_arrays(copy=copy):
            yield cast("Sequence[PBiCode]", fields)

    def to_list(self) -> list[PBiCode]:
        return list(self.scan())

    # ------------------------------------------------------------------
    def heights(self) -> set[Height]:
        """Distinct node heights present (catalog statistic, or one scan)."""
        if self.known_heights is not None:
            return {Height(h) for h in self.known_heights}
        return {pbitree.height_of(code) for code in self.scan()}

    def sorted_copy(self, order: str = SortOrder.START) -> "ElementSet":
        """In-memory sorted copy — tests/examples only.

        Real operators use :mod:`repro.sort.external_sort`, which charges
        the I/O the paper's analysis assigns to on-the-fly sorting.
        """
        key = pbitree.doc_order_key if order == SortOrder.START else None
        codes = sorted(self.scan(), key=key)
        return ElementSet.from_codes(
            self.bufmgr,
            codes,
            self.tree_height,
            name=f"{self.name}[sorted:{order}]",
            sorted_by=order,
        )

    def destroy(self) -> None:
        self.heap.destroy()

    def __repr__(self) -> str:
        return (
            f"<ElementSet {self.name!r} n={len(self)} pages={self.num_pages} "
            f"H={self.tree_height} sorted={self.sorted_by}>"
        )
