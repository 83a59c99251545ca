"""simharvest: an OAI-PMH harvesting aggregator with similarity re-export.

Harvests Dublin Core records over OAI-PMH into a hierarchical store, builds
tf-idf vectors, scores every document pair by cosine similarity, and serves
the collection back out over OAI-PMH with each record's ranked nearest
neighbors attached in an <about> container.

The package re-exports nothing: import names from their submodules, as in
``from simharvest.store import RecordStore``.
"""
