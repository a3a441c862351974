"""viscx: enrich conceptual visual index structures of web images with
semantic concepts mined from the surrounding page text.

The pipeline pairs each webpage with a textual visual-index sidecar,
extracts weighted contextual concepts from the page, relates both through
a hypernym lattice and fuzzy membership aggregation, and fuses the result
back into the visual records. A retrieval harness compares indexing
strategies (vis, cx, vis+cx, tfidf) with NDCG@n.
"""

from .config import PipelineConfig, load_config, parse_config
from .context import (AreaKind, Category, ContextualConcept, ExtractionArea,
                      SyntacticPattern, SyntacticTerm, TaggedToken,
                      apply_patterns, assign_impacts, extract_areas,
                      parse_pattern, tag_tokens, term_vectors, tokenize)
from .errors import (ConfigError, StoreError, TaxonomyError,
                     UnindexableQueryError, UnknownConceptError,
                     UnrelatedConceptsError, VisParseError, ViscxError)
from .fusion import (CorrespondencePair, EnrichedVisRecord, FacetKernel,
                     FusionProvenance, SimilarityMatrix, best_correspondences,
                     build_similarity_matrix, enrich_records, fuse,
                     structure_similarity)
from .membership import MembershipTable, TConormKind, aggregate_mu_tot
from .pipeline import enrich_document, enrich_store, ingest_corpus, pair_corpus
from .retrieval import (ALL_STRATEGIES, EvalReport, Qrels, Query, RankedList,
                        Strategy, eval_report, load_queries, ndcg_at_n,
                        parse_query, rank)
from .store import (IndexRecord, IndexStore, StoreMeta, load_store,
                    save_store)
from .taxonomy import (Concept, SemanticLattice, SemRelation,
                       bundled_taxonomy_path, insert_concept, load_taxonomy,
                       parse_taxonomy)
from .vis import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, FacetVectors,
                  VisRecord, facet_vectors, parse_vis, serialize_vis)

__version__ = "0.1.0"
