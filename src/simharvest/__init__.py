"""simharvest: an OAI-PMH harvesting aggregator with similarity re-export.

Harvests Dublin Core records over OAI-PMH into a hierarchical store, builds
tf-idf vectors, scores every document pair by cosine similarity, and serves
the collection back out over OAI-PMH with each record's ranked nearest
neighbors attached in an <about> container.
"""

from .exceptions import (
    ConfigError,
    HarvestError,
    NotFoundError,
    PathCollisionError,
    ProtocolMismatchError,
    RecordValidationError,
    RequestArgumentError,
    RestartRequiredError,
    ResumableHarvestError,
    SimHarvestError,
    StalenessError,
    StorageError,
    TokenLoopError,
    XmlParseError,
)
from .harvester import HarvestReport, HarvestSession, build_request_url, harvest
from .oai_xml import (
    ParsedResponse,
    ResumptionToken,
    build_similarity_about,
    parse_response,
    serialize_error,
    serialize_get_record,
    serialize_identify,
    serialize_list_identifiers,
    serialize_list_metadata_formats,
    serialize_list_records,
    serialize_list_sets,
)
from .pipeline import compute_store, index_store, load_top_matches
from .records import (
    DC_ELEMENTS,
    OAI_ERROR_CODES,
    MetadataRecord,
    OaiError,
    SimilarityAbout,
    SimilarityMatch,
)
from .service import DuplicatePair, OaiProvider, ProviderConfig, duplicate_report
from .similarity import (
    CollectionStats,
    VectorSpaceModel,
    WeightedVector,
    collection_stats,
    estimate_runtime,
    format_duration,
    idf,
    weight_vector,
)
from .store import RecordStore
from .textpipe import (
    TermFrequencyVector,
    extract_text,
    term_frequencies,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
