"""Privacy-aware data engine over an append-only stream ledger.

Attribute-level privacy preferences are bound into versioned privacy
tuples, each committed to as SHA-256 over a fresh nonce and the tuple's
canonical bytes, and published to per-lineage ledger streams.  Queries
are mediated: stored policy is verified against the ledger, evaluated
per attribute, and results are disclosed at the granted granularity.
"""

__version__ = "0.1.0"
