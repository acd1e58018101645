"""GhostDB's index structures (paper, Section 4).

* :class:`~repro.index.skt.SubtreeKeyTable` -- the generalized join index:
  every key of a subtree, one row per root-table row, in root-ID order.
* :class:`~repro.index.climbing.ClimbingIndex` -- value -> sorted ID lists
  for the indexed table *and every ancestor up to the root*, precomputing
  the joins along that path.  A climbing index on a table's primary key is
  the ID-conversion index used to turn visible selection results into
  root IDs.
* :class:`~repro.index.bloom.BloomFilter` -- the compact membership filter
  Post-filtering plans build from visible ID streams.
* :func:`~repro.index.posting.merge_posting_streams` -- the
  bounded-fan-in union of posting lists.  A posting list is a
  ``(first, count)`` slice of a level's extent of 4-byte ID records
  (:mod:`repro.storage.pagestore`).
"""

from repro.index.bloom import BloomFilter, bloom_parameters
from repro.index.posting import merge_posting_streams
from repro.index.skt import SubtreeKeyTable
from repro.index.climbing import ClimbingIndex

__all__ = [
    "BloomFilter",
    "ClimbingIndex",
    "SubtreeKeyTable",
    "bloom_parameters",
    "merge_posting_streams",
]
