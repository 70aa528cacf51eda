"""Set-associative cache tag model with LRU replacement.

The simulator only needs hit/miss behaviour and access counts (data values
come functionally from the global-memory image), so this models tags only.
Used for the L1 data cache, the constant cache hierarchy, the instruction
cache, and the shared L2.
"""

from __future__ import annotations

from typing import List


class SetAssocCache:
    """A tags-only set-associative LRU cache.

    Addresses are byte addresses; lines of ``line_bytes`` map to sets by
    simple modulo indexing.
    """

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (line_bytes * assoc) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line*assoc {line_bytes * assoc}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = size_bytes // (line_bytes * assoc)
        # Each set is an LRU-ordered list of tags (most recent last).
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.reads = 0
        self.writes = 0
        self.read_misses = 0
        self.write_misses = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def _locate(self, addr_bytes: int) -> tuple[List[int], int]:
        line = addr_bytes // self.line_bytes
        return self._sets[line % self.n_sets], line // self.n_sets

    def lookup(self, addr_bytes: int, is_write: bool = False,
               allocate: bool = True) -> bool:
        """Access the cache; returns True on hit.

        Misses allocate the line unless ``allocate`` is False (pass False
        for write misses under a no-write-allocate policy, typical for
        GPU L1s, which are write-through to L2).
        """
        line = addr_bytes // self.line_bytes
        n_sets = self.n_sets
        ways = self._sets[line % n_sets]
        tag = line // n_sets
        hit = tag in ways
        if is_write:
            self.writes += 1
            if not hit:
                self.write_misses += 1
        else:
            self.reads += 1
            if not hit:
                self.read_misses += 1
        if hit:
            if ways[-1] != tag:     # already most recent: nothing moves
                ways.remove(tag)
                ways.append(tag)
        elif allocate:
            if len(ways) >= self.assoc:
                ways.pop(0)
                self.evictions += 1
            ways.append(tag)
        return hit

    def probe(self, addr_bytes: int) -> bool:
        """Hit test with no state change or counting."""
        ways, tag = self._locate(addr_bytes)
        return tag in ways

    def install(self, addr_bytes: int) -> None:
        """Insert a line without counting an access (coherence warm-up).

        Used by sharded simulation to mirror lines that *other* shards
        filled into the logically-shared cache: the line lands at the
        LRU end so it serves future hits but yields to the local working
        set, and no local counter moves -- the access was already
        counted by the shard that performed it.
        """
        ways, tag = self._locate(addr_bytes)
        if tag in ways:
            return
        if len(ways) >= self.assoc:
            ways.pop(0)
        ways.insert(0, tag)

    def flush(self) -> None:
        """Invalidate all lines (counters are kept)."""
        for ways in self._sets:
            ways.clear()

    def miss_rate(self) -> float:
        """Overall miss rate; 0 when never accessed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses
